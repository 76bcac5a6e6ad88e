// Package sim is the discrete-event simulation engine underneath the
// Affinity-Accept reproduction: it supplies the virtual multicore
// machine on which the evaluation of §6 is re-run, standing in for the
// paper's 48-core AMD and 80-core Intel testbeds (§2, Table 1).
//
// Virtual time is measured in CPU cycles. A single min-heap of events
// drives the run; every event either targets a core (kernel or
// application work that occupies that core's timeline) or is global
// (client-side workload actions, NIC wire delays, timers).
//
// Each core keeps a busyUntil timestamp. When a core event is dispatched
// its handler starts at max(event time, busyUntil); the positive gap when
// the core was free is recorded as idle time. Handlers advance the core's
// clock with Charge and related helpers, and the engine stores the new
// busyUntil when the handler returns. This "timeline" model resolves CPU
// contention, lock serialization and queueing without simulating
// individual instructions.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in CPU cycles since simulation start.
type Time uint64

// Cycles is a duration in CPU cycles.
type Cycles = Time

// Handler is the body of an event. It runs on the engine goroutine; the
// core argument is the executing core's context, or nil for global events.
type Handler func(e *Engine, c *Core)

type event struct {
	at      Time
	seq     uint64
	core    int // -1 for global events
	handler Handler
}

// before orders events by time, then by scheduling order: a strict
// total order, so every run dispatches the same events in the same order.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Core is one simulated CPU core's execution context.
type Core struct {
	ID   int
	Chip int

	// Eng points back to the owning engine, giving handlers access to
	// the global (monotone) event clock for cross-core resources.
	Eng *Engine

	// now is the core-local clock while a handler is running.
	now Time
	// busyUntil is the end of the last work executed on this core.
	busyUntil Time
	// idle accumulates cycles the core spent with nothing to run.
	idle Cycles
	// busy accumulates cycles of executed work.
	busy Cycles

	// UserShare caps the fraction of this core available to
	// process-context (user) work, modelling CFS shares against
	// CPU-bound competitors: 0 or 1 means uncontended. Interrupt work
	// is never paced — it preempts everything.
	UserShare float64
	// userFreeAt is when share-constrained user work may next run.
	userFreeAt Time

	// Data is substrate-owned per-core state (TCP stack, scheduler, NIC
	// ring bindings). The engine never inspects it.
	Data interface{}
}

// DeferUser accounts the user work executed since start against the
// core's UserShare and returns the earliest time further user work may
// run: a task that consumed d cycles of CPU must wait d*(1/share-1)
// before its next turn against always-runnable competitors. Deferral —
// rather than stretching the work in place — caps the user-work rate at
// the share while leaving the remaining core time to the competitor,
// exactly what a fair-share scheduler does; backlog then accumulates in
// the application's queues where the balancer can see it.
func (c *Core) DeferUser(start Time) Time {
	if c.UserShare <= 0 || c.UserShare >= 1 {
		return c.now
	}
	if c.userFreeAt < c.now {
		c.userFreeAt = c.now
	}
	if c.now > start {
		used := float64(c.now - start)
		c.userFreeAt += Time(used * (1/c.UserShare - 1))
	}
	return c.userFreeAt
}

// UserEligibleAt reports when user-context work may next run on this
// core (now, when the core is not share-constrained).
func (c *Core) UserEligibleAt() Time {
	if c.userFreeAt < c.now {
		return c.now
	}
	return c.userFreeAt
}

// Now reports the core-local clock. Valid only inside a handler running
// on this core.
func (c *Core) Now() Time { return c.now }

// SetNow advances the core-local clock to t (used when a handler must
// wait on an external resource such as a lock that frees in the future).
// Time never moves backwards.
func (c *Core) SetNow(t Time) {
	if t > c.now {
		c.busy += Cycles(t - c.now)
		c.now = t
	}
}

// Charge advances the core's clock by d cycles of busy work.
func (c *Core) Charge(d Cycles) {
	c.now += d
	c.busy += d
}

// BusyUntil reports the end of the last scheduled work on this core.
func (c *Core) BusyUntil() Time { return c.busyUntil }

// IdleCycles reports accumulated idle time.
func (c *Core) IdleCycles() Cycles { return c.idle }

// BusyCycles reports accumulated executed work.
func (c *Core) BusyCycles() Cycles { return c.busy }

// AddIdle accounts d cycles of idleness without moving the clock; used by
// blocking primitives (mutex-mode socket locks park the caller).
func (c *Core) AddIdle(d Cycles) { c.idle += d }

// Sleep advances the clock by d cycles of idleness (the core is parked:
// time passes but no work executes).
func (c *Core) Sleep(d Cycles) {
	c.now += d
	c.idle += d
}

// Engine is the discrete-event simulator.
type Engine struct {
	Cores []*Core
	Rand  *rand.Rand

	// Freq is the simulated core clock in cycles per second.
	Freq uint64

	queue  []event // binary min-heap under event.before
	seq    uint64
	now    Time
	nEvent uint64

	// stop aborts the run loop when set by a handler.
	stop bool
}

// Config configures an Engine.
type Config struct {
	Cores        int
	CoresPerChip int
	// Freq is cycles per second; the paper's machines run at 2.4 GHz.
	Freq uint64
	Seed int64
}

// DefaultFreq is the clock rate of both evaluation machines in the paper.
const DefaultFreq = 2_400_000_000

// New creates an engine with the given core count and topology.
func New(cfg Config) *Engine {
	if cfg.Cores <= 0 {
		panic("sim: need at least one core")
	}
	if cfg.CoresPerChip <= 0 {
		cfg.CoresPerChip = cfg.Cores
	}
	if cfg.Freq == 0 {
		cfg.Freq = DefaultFreq
	}
	e := &Engine{
		Rand: rand.New(rand.NewSource(cfg.Seed)),
		Freq: cfg.Freq,
	}
	for i := 0; i < cfg.Cores; i++ {
		e.Cores = append(e.Cores, &Core{ID: i, Chip: i / cfg.CoresPerChip, Eng: e})
	}
	return e
}

// GlobalNow reports the engine's monotone event-dispatch clock. Unlike
// per-core clocks, which drift ahead while a handler runs, this value
// never decreases between events, which makes it the right anchor for
// cross-core queueing resources (locks, memory controllers).
func (c *Core) GlobalNow() Time {
	if c.Eng == nil {
		return c.now
	}
	return c.Eng.Now()
}

// Now reports the engine's global clock: the time of the event currently
// being dispatched.
func (e *Engine) Now() Time { return e.now }

// Events reports how many events have been dispatched.
func (e *Engine) Events() uint64 { return e.nEvent }

// At schedules a global event at absolute time t.
func (e *Engine) At(t Time, h Handler) { e.schedule(-1, t, h) }

// After schedules a global event d cycles from the global clock.
func (e *Engine) After(d Cycles, h Handler) { e.schedule(-1, e.now+d, h) }

// OnCore schedules an event on a core at absolute time t. If the core is
// busy at t the handler starts when the core frees up.
func (e *Engine) OnCore(core int, t Time, h Handler) {
	if core < 0 || core >= len(e.Cores) {
		panic(fmt.Sprintf("sim: no such core %d", core))
	}
	e.schedule(core, t, h)
}

// schedule queues an event no earlier than the global clock.
func (e *Engine) schedule(core int, t Time, h Handler) {
	e.seq++
	ev := event{at: max(t, e.now), seq: e.seq, core: core, handler: h}
	q := append(e.queue, ev)
	i := len(q) - 1
	for ; i > 0 && ev.before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i] = q[(i-1)/2]
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the earliest queued event.
func (e *Engine) pop() event {
	q, n := e.queue, len(e.queue)-1
	top, last, i := q[0], q[n], 0
	for c := 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
	}
	q[i] = last
	q[n] = event{} // drop the handler reference (when n == 0, q[n] is q[i])
	e.queue = q[:n]
	return top
}

// Stop aborts the run loop after the current event completes.
func (e *Engine) Stop() { e.stop = true }

// Run dispatches events until the heap empties, the global clock passes
// until, or Stop is called. It returns the final global time.
func (e *Engine) Run(until Time) Time {
	e.stop = false
	for len(e.queue) > 0 && !e.stop {
		if e.queue[0].at > until {
			// Leave it queued so a later Run resumes exactly here.
			e.now = until
			return e.now
		}
		ev := e.pop()
		e.now = ev.at
		e.nEvent++
		if ev.core < 0 {
			ev.handler(e, nil)
			continue
		}
		c := e.Cores[ev.core]
		start := ev.at
		if c.busyUntil > start {
			start = c.busyUntil
		} else {
			c.idle += Cycles(start - c.busyUntil)
		}
		c.now = start
		ev.handler(e, c)
		if c.now > c.busyUntil {
			c.busyUntil = c.now
		}
	}
	if len(e.queue) == 0 && e.now < until {
		e.now = until
	}
	return e.now
}

// Seconds converts a cycle duration to seconds at the engine frequency.
func (e *Engine) Seconds(d Cycles) float64 { return float64(d) / float64(e.Freq) }

// CyclesOf converts seconds to cycles at the engine frequency.
func (e *Engine) CyclesOf(sec float64) Cycles { return Cycles(sec * float64(e.Freq)) }

// Millis converts milliseconds to cycles.
func (e *Engine) Millis(ms float64) Cycles { return e.CyclesOf(ms / 1e3) }

// Micros converts microseconds to cycles.
func (e *Engine) Micros(us float64) Cycles { return e.CyclesOf(us / 1e6) }

// TotalIdle sums idle cycles across cores, including trailing idleness up
// to the given horizon.
func (e *Engine) TotalIdle(horizon Time) Cycles {
	var idle Cycles
	for _, c := range e.Cores {
		idle += c.idle
		if horizon > c.busyUntil {
			idle += Cycles(horizon - c.busyUntil)
		}
	}
	return idle
}
