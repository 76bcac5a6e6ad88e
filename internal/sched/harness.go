package sched

import (
	"fmt"
	"math/rand"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/mem"
	"affinityaccept/internal/sim"
)

// This file is the deterministic topology-simulation harness: a seeded
// fake topology and fake clock replaying workloads through the REAL
// steal and migrate code (core.Queues, core.FlowTable, Controller).
// Nothing here reimplements policy — the harness only supplies
// arrivals, service time, and timers, so whatever the tests prove about
// distance ordering, convergence and oscillation freezing is proved
// about the production code paths, without real hardware.

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
	Topology core.Topology
	Seed     int64
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
	// MigrateEvery is the base balancing interval (default 1 ms).
	MigrateEvery time.Duration
	// Adaptive enables the Controller: it drives the balancing timer
	// and vetoes frozen groups. Off, the interval is fixed and no group
	// is ever frozen — the §3.3.2 baseline.
	Adaptive   bool
	Controller core.ControllerConfig
	// DistanceBlind drops the topology from the steal path (the
	// ablation arm): the queues scan victims in flat round-robin order
	// while the harness still prices every steal against the topology.
	DistanceBlind bool
	// Machine prices steals (default mem.AMD48 latencies): same-chip at
	// L3, cross-chip scaled linearly up to RemoteL3 for the two chips
	// farthest apart, matching Table 1's measurement convention.
	Machine mem.Machine
}

// Result is what one replay measured.
type Result struct {
	Locals, Steals uint64
	Drops          uint64
	Served         uint64
	// StealsByDistance counts steals by thief↔victim chip distance
	// (index 0 = same chip).
	StealsByDistance []uint64
	CrossChipSteals  uint64
	// EstStealCycles prices every steal at the machine's line-transfer
	// latency for its distance.
	EstStealCycles uint64
	Migrations     uint64
	// OrderViolations counts steals for which a strictly closer
	// stealable victim existed at steal time. The invariant the
	// tentpole promises is that this is always zero.
	OrderViolations int
	// Reports holds the controller's per-tick decisions (adaptive only).
	Reports []core.Report
	// TickMoves holds the migrations each balancing tick applied, in
	// tick order — the freeze tests read which ticks touched a group.
	TickMoves [][]core.Migration
	// TickLocality is the locality ratio of each balancing tick's
	// delta window, in tick order (NaN-free: ticks with no accepts are
	// recorded as -1).
	TickLocality  []float64
	FinalLocality float64
}

// Frozen reports whether any tick froze a group.
func (r Result) Frozen() bool {
	for _, rep := range r.Reports {
		if len(rep.NewlyFrozen) > 0 {
			return true
		}
	}
	return false
}

// Unfroze reports whether any tick unfroze a group.
func (r Result) Unfroze() bool {
	for _, rep := range r.Reports {
		if len(rep.Unfrozen) > 0 {
			return true
		}
	}
	return false
}

// Harness replays a workload through the real policy code on a
// simulated clock.
type Harness struct {
	cfg HarnessConfig
	eng *sim.Engine
	rng *rand.Rand

	Q     *core.Queues[Conn]
	Table *core.FlowTable
	Ctl   *core.Controller

	phases  []Phase
	phaseIx int

	lastLocals, lastSteals uint64
	res                    Result
	maxDist                int
}

// NewHarness builds the harness: the real queues (distance-aware unless
// DistanceBlind), the real flow table, and — when Adaptive — the real
// controller.
func NewHarness(cfg HarnessConfig) *Harness {
	if cfg.Topology.Cores() == 0 {
		panic("sched: harness needs a topology")
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 64
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 16 * cfg.Topology.Cores()
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
	if cfg.Machine.Name == "" {
		cfg.Machine = mem.AMD48()
	}
	n := cfg.Topology.Cores()
	qcfg := core.Config{Cores: n, Backlog: cfg.Backlog}
	if !cfg.DistanceBlind {
		qcfg.ChipOf = cfg.Topology.ChipOf
	}
	h := &Harness{
		cfg:   cfg,
		eng:   sim.New(simConfig(cfg.Topology, cfg.Seed)),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		Q:     core.NewQueues[Conn](qcfg),
		Table: core.NewFlowTable(cfg.Groups, n),
	}
	if cfg.Adaptive {
		ctlCfg := cfg.Controller
		if ctlCfg.BaseInterval <= 0 {
			ctlCfg.BaseInterval = cfg.MigrateEvery
		}
		h.Ctl = core.NewController(ctlCfg)
	}
	for _, chip := range cfg.Topology.Chip {
		if chip > h.maxDist {
			h.maxDist = chip
		}
	}
	h.res.StealsByDistance = make([]uint64, h.maxDist+1)
	return h
}

// simConfig builds a sim.Config that places each simulated core on the
// topology's chips.
func simConfig(t core.Topology, seed int64) sim.Config {
	chips := make([]int, len(t.Chip))
	copy(chips, t.Chip)
	return sim.Config{Cores: len(t.Chip), ChipOf: chips, Seed: seed}
}

// stealCost prices a steal at the machine's line-transfer latency for
// the thief↔victim chip distance: L3 on the same chip, scaling linearly
// to RemoteL3 at the maximum distance (Table 1 measures its remote
// latencies "between the two chips farthest apart").
func (h *Harness) stealCost(dist int) uint64 {
	l3 := uint64(h.cfg.Machine.Lat.L3)
	remote := uint64(h.cfg.Machine.Lat.RemoteL3)
	if dist <= 0 || h.maxDist == 0 {
		return l3
	}
	return l3 + (remote-l3)*uint64(dist)/uint64(h.maxDist)
}

// stealable mirrors stealFrom's effective victim predicate.
func (h *Harness) stealable(victim int) bool {
	if h.Q.Len(victim) == 0 || !h.Q.Busy(victim) {
		return false
	}
	_, low := h.Q.Watermarks()
	return h.Q.EWMAValue(victim) >= low
}

// checkStealOrder verifies no strictly closer stealable victim existed
// when thief stole from victim. Sound as a post-check: the scan only
// clears stale busy bits, so a victim stealable now was stealable
// during the scan.
func (h *Harness) checkStealOrder(thief, victim int) {
	d := chipDist(h.cfg.Topology, thief, victim)
	for v := 0; v < h.cfg.Topology.Cores(); v++ {
		if v == thief || v == victim {
			continue
		}
		if chipDist(h.cfg.Topology, thief, v) < d && h.stealable(v) {
			h.res.OrderViolations++
			return
		}
	}
}

func chipDist(t core.Topology, a, b int) int {
	return core.ChipDistance(t.Chip[a], t.Chip[b])
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
	group := h.Table.GroupOf(port)
	h.Table.ObserveLoad(group, 1)
	dest := h.Table.CoreOf(group)
	if !h.Q.Push(dest, Conn{Port: port, At: e.Now()}) {
		h.res.Drops++
	}
	e.After(ph.ArrivalGap, h.arrive)
}

// serveLoop is each core's accept loop: Pop via the real policy, charge
// service time, account the steal if the connection came from another
// core's queue; on empty, observe idleness (decaying the EWMA exactly
// as serve's poller does) and re-poll after PollGap.
func (h *Harness) serveLoop(e *sim.Engine, c *sim.Core) {
	if _, from, ok := h.Q.Pop(c.ID); ok {
		h.res.Served++
		if from != c.ID {
			d := chipDist(h.cfg.Topology, c.ID, from)
			h.res.StealsByDistance[d]++
			if h.cfg.Topology.Chip[c.ID] != h.cfg.Topology.Chip[from] {
				h.res.CrossChipSteals++
			}
			h.res.EstStealCycles += h.stealCost(d)
			h.checkStealOrder(c.ID, from)
		}
		c.Charge(h.cfg.ServiceCycles)
		e.OnCore(c.ID, c.Now(), h.serveLoop)
		return
	}
	h.Q.ObserveIdle(c.ID, 1)
	e.OnCore(c.ID, c.Now()+h.cfg.PollGap, h.serveLoop)
}

// balanceTick runs one migration tick through the real balancer — with
// the controller's freeze veto when adaptive — then feeds the window's
// accept deltas back into the controller and schedules the next tick at
// whatever interval it chose.
func (h *Harness) balanceTick(e *sim.Engine, _ *sim.Core) {
	var groupOK func(int) bool
	if h.Ctl != nil {
		groupOK = h.Ctl.GroupOK
	}
	moves := core.Balance(h.Table, h.Q, nil, groupOK)
	h.res.TickMoves = append(h.res.TickMoves, moves)

	locals, steals := h.Q.Locals, h.Q.Steals
	dLocal, dSteal := locals-h.lastLocals, steals-h.lastSteals
	h.lastLocals, h.lastSteals = locals, steals
	tickLoc := -1.0
	if dLocal+dSteal > 0 {
		tickLoc = float64(dLocal) / float64(dLocal+dSteal)
	}
	h.res.TickLocality = append(h.res.TickLocality, tickLoc)

	next := h.cfg.MigrateEvery
	if h.Ctl != nil {
		rep := h.Ctl.Advance(dLocal, dSteal, moves)
		h.res.Reports = append(h.res.Reports, rep)
		next = rep.Interval
	}
	e.After(h.eng.CyclesOf(next.Seconds()), h.balanceTick)
}

// Run replays the phases and returns the measurements. The run extends
// one extra base interval past the last phase so queued work drains.
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
	for i := 0; i < h.cfg.Topology.Cores(); i++ {
		h.eng.OnCore(i, 0, h.serveLoop)
	}
	h.eng.After(0, h.arrive)
	h.eng.After(h.eng.CyclesOf(h.cfg.MigrateEvery.Seconds()), h.balanceTick)
	horizon := phases[len(phases)-1].Until + h.eng.CyclesOf(h.cfg.MigrateEvery.Seconds())
	h.eng.Run(horizon)

	h.res.Locals, h.res.Steals = h.Q.Locals, h.Q.Steals
	h.res.Migrations = h.Table.Migrations
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
