package sched

import (
	"fmt"
	"math/rand"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/sim"
)

// This file is the deterministic simulation harness: a seeded fake
// clock replaying workloads through the REAL steal and migrate code
// (core.Queues, core.FlowTable, core.Balance). Nothing here
// reimplements policy — the harness only supplies arrivals, service
// time, and timers, so whatever the tests prove about convergence is
// proved about the production code paths, without real hardware.

// Conn is the connection payload replayed through the queues.
type Conn struct {
	Port uint16
	At   sim.Time
}

// Phase is one segment of a replayed workload: until Until (virtual
// time), connections arrive every ArrivalGap cycles with a source port
// drawn from Port. Phases let a scenario shift its skew mid-run.
type Phase struct {
	Until      sim.Time
	ArrivalGap sim.Cycles
	Port       func(rng *rand.Rand) uint16
}

// PortForGroups returns a port chooser that draws uniformly from the
// given flow groups (the port's low bits are the group, §3.1).
func PortForGroups(groups []int) func(rng *rand.Rand) uint16 {
	return func(rng *rand.Rand) uint16 {
		return uint16(groups[rng.Intn(len(groups))])
	}
}

// HarnessConfig configures one deterministic replay.
type HarnessConfig struct {
	Cores int
	Seed  int64
	// Groups is the flow-group count (default 64 — small enough that
	// scenarios can aim traffic at specific owners).
	Groups int
	// Backlog is the total accept backlog (default 16 per core).
	Backlog int
	// ServiceCycles is the per-connection service time (default 40k,
	// ~17 µs at 2.4 GHz).
	ServiceCycles sim.Cycles
	// PollGap is how often an idle core re-polls its queue (default 20k).
	PollGap sim.Cycles
	// MigrateEvery is the balancing interval (default 1 ms).
	MigrateEvery time.Duration
}

// Result is what one replay measured.
type Result struct {
	Locals, Steals uint64
	Drops          uint64
	Served         uint64
	Migrations     uint64
	// TickLocality is the locality ratio of each balancing tick's
	// delta window, in tick order (NaN-free: ticks with no accepts are
	// recorded as -1).
	TickLocality  []float64
	FinalLocality float64
}

// Harness replays a workload through the real policy code on a
// simulated clock.
type Harness struct {
	cfg HarnessConfig
	eng *sim.Engine
	rng *rand.Rand

	Q     *core.Queues[Conn]
	Table *core.FlowTable

	phases  []Phase
	phaseIx int

	lastLocals, lastSteals uint64
	res                    Result
}

// NewHarness builds the harness around the real queues and flow table.
func NewHarness(cfg HarnessConfig) *Harness {
	if cfg.Cores <= 0 {
		panic("sched: harness needs cores")
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 64
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 16 * cfg.Cores
	}
	if cfg.ServiceCycles == 0 {
		cfg.ServiceCycles = 40_000
	}
	if cfg.PollGap == 0 {
		cfg.PollGap = 20_000
	}
	if cfg.MigrateEvery <= 0 {
		cfg.MigrateEvery = time.Millisecond
	}
	return &Harness{
		cfg:   cfg,
		eng:   sim.New(sim.Config{Cores: cfg.Cores, Seed: cfg.Seed}),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		Q:     core.NewQueues[Conn](core.Config{Cores: cfg.Cores, Backlog: cfg.Backlog}),
		Table: core.NewFlowTable(cfg.Groups, cfg.Cores),
	}
}

// arrive is the global arrival process: route one connection through
// the flow table, then schedule the next arrival from the active phase.
func (h *Harness) arrive(e *sim.Engine, _ *sim.Core) {
	for h.phaseIx < len(h.phases) && e.Now() >= h.phases[h.phaseIx].Until {
		h.phaseIx++
	}
	if h.phaseIx >= len(h.phases) {
		return
	}
	ph := h.phases[h.phaseIx]
	port := ph.Port(h.rng)
	_, dest := h.Table.Route(port, 1)
	if ok, _ := h.Q.Push(dest, Conn{Port: port, At: e.Now()}); !ok {
		h.res.Drops++
	}
	e.After(ph.ArrivalGap, h.arrive)
}

// serveLoop is each core's accept loop: Pop via the real policy and
// charge service time; on empty, observe idleness (decaying the EWMA
// exactly as serve's poller does) and re-poll after PollGap.
func (h *Harness) serveLoop(e *sim.Engine, c *sim.Core) {
	if _, _, ok := h.Q.Pop(c.ID); ok {
		h.res.Served++
		c.Charge(h.cfg.ServiceCycles)
		e.OnCore(c.ID, c.Now(), h.serveLoop)
		return
	}
	h.Q.ObserveIdle(c.ID, 1)
	e.OnCore(c.ID, c.Now()+h.cfg.PollGap, h.serveLoop)
}

// balanceTick runs one migration tick through the real balancer,
// records the window's locality and schedules the next tick.
func (h *Harness) balanceTick(e *sim.Engine, _ *sim.Core) {
	core.Balance(h.Table, h.Q, nil)
	locals, steals := h.Q.Locals, h.Q.Steals
	dLocal, dSteal := locals-h.lastLocals, steals-h.lastSteals
	h.lastLocals, h.lastSteals = locals, steals
	tickLoc := -1.0
	if dLocal+dSteal > 0 {
		tickLoc = float64(dLocal) / float64(dLocal+dSteal)
	}
	h.res.TickLocality = append(h.res.TickLocality, tickLoc)
	e.After(h.eng.CyclesOf(h.cfg.MigrateEvery.Seconds()), h.balanceTick)
}

// Run replays the phases and returns the measurements. The run extends
// one extra interval past the last phase so queued work drains.
func (h *Harness) Run(phases []Phase) Result {
	if len(phases) == 0 {
		panic("sched: harness needs at least one phase")
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Until <= phases[i-1].Until {
			panic(fmt.Sprintf("sched: phase %d does not advance time", i))
		}
	}
	h.phases = phases
	h.phaseIx = 0
	for i := 0; i < h.cfg.Cores; i++ {
		h.eng.OnCore(i, 0, h.serveLoop)
	}
	h.eng.After(0, h.arrive)
	h.eng.After(h.eng.CyclesOf(h.cfg.MigrateEvery.Seconds()), h.balanceTick)
	horizon := phases[len(phases)-1].Until + h.eng.CyclesOf(h.cfg.MigrateEvery.Seconds())
	h.eng.Run(horizon)

	h.res.Locals, h.res.Steals = h.Q.Locals, h.Q.Steals
	h.res.Migrations = h.Table.Migrations()
	if h.res.Locals+h.res.Steals > 0 {
		h.res.FinalLocality = float64(h.res.Locals) / float64(h.res.Locals+h.res.Steals)
	}
	return h.res
}

// LocalityOver averages the tick locality over the window [from, to)
// of tick indices, skipping empty ticks.
func LocalityOver(ticks []float64, from, to int) float64 {
	if to > len(ticks) {
		to = len(ticks)
	}
	sum, n := 0.0, 0
	for i := from; i < to; i++ {
		if ticks[i] >= 0 {
			sum += ticks[i]
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}
