// Package core implements the Affinity-Accept algorithms from §3 of the
// paper as pure data structures, independent of the simulator:
//
//   - per-core accept queues with the paper's watermark-based busy
//     tracking (high/low watermarks, EWMA of queue length, busy bit
//     vector readable in one load);
//   - the connection-stealing policy (non-busy cores steal from busy
//     cores, 5:1 proportional share between local and remote accepts,
//     round-robin victim selection);
//   - the flow-group table and migration policy (4,096 source-port
//     groups spread over cores; every balancing interval a non-busy core
//     migrates one group away from the victim it stole from most).
//
// The simulator wires these into its TCP stack and charges lock and
// cache costs around them; the serve package wires the same structures
// around real SO_REUSEPORT listeners. The structures themselves do no
// locking: callers either run single-threaded (the simulator) or use
// Guarded.
package core

import (
	"fmt"

	"affinityaccept/internal/stats"
)

// Defaults from the paper.
const (
	// DefaultHighPct marks a core busy when its instantaneous local
	// queue length exceeds this percentage of the max local length.
	DefaultHighPct = 75
	// DefaultLowPct clears busy when the EWMA of the queue length drops
	// below this percentage of the max local length.
	DefaultLowPct = 10
	// DefaultStealRatio is the local:remote proportional share (§3.3.1).
	DefaultStealRatio = 5
	// DefaultBacklogPerCore is within the 64–256 range the paper found
	// effective per core for its benchmarks.
	DefaultBacklogPerCore = 128
)

// Config parameterizes the accept queues.
type Config struct {
	Cores int
	// Backlog is the application-specified maximum accept queue length
	// (the listen() argument), split evenly across cores.
	Backlog int
	// HighPct/LowPct are busy watermarks in percent of max local length.
	// Zero selects the paper defaults (75 and 10).
	HighPct, LowPct float64
	// StealRatio is the number of local accepts per remote accept on a
	// non-busy core. Zero selects the paper default (5).
	StealRatio int
	// ChipOf maps a core to its chip, making the steal victim scan
	// NUMA-distance-aware: victims are ordered by non-decreasing chip
	// distance (same chip first, then chips one interconnect hop away,
	// and so on — Table 1's remote latencies are between the chips
	// farthest apart), with round-robin fairness preserved within each
	// distance tier. The paper's 5:1 proportional share is untouched;
	// only *which* busy victim a steal prefers changes. nil means a
	// flat machine: every core equidistant, the original wraparound
	// scan order.
	ChipOf func(core int) int
}

func (c *Config) fill() {
	if c.Cores <= 0 {
		panic("core: Config.Cores must be positive")
	}
	if c.Backlog <= 0 {
		c.Backlog = DefaultBacklogPerCore * c.Cores
	}
	if c.HighPct == 0 {
		c.HighPct = DefaultHighPct
	}
	if c.LowPct == 0 {
		c.LowPct = DefaultLowPct
	}
	if c.StealRatio == 0 {
		c.StealRatio = DefaultStealRatio
	}
	if c.LowPct >= c.HighPct {
		panic(fmt.Sprintf("core: low watermark %v%% must be below high %v%%",
			c.LowPct, c.HighPct))
	}
}

// ring is a FIFO ring buffer with a hard capacity.
type ring[T any] struct {
	buf        []T
	head, size int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) bool {
	if r.size == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.size)%len(r.buf)] = v
	r.size++
	return true
}

func (r *ring[T]) pop() (T, bool) {
	var zero T
	if r.size == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return v, true
}

func (r *ring[T]) len() int { return r.size }

// perCore is the accept state of one core.
type perCore struct {
	ewma       *stats.EWMA
	sinceSteal int // local accepts since the last remote accept
	stolenFrom []uint64

	// order is the core's steal-scan order: every other core sorted by
	// non-decreasing chip distance (see Config.ChipOf), ties broken by
	// wraparound core number so a flat topology reproduces the original
	// round-robin scan. tierEnd marks the exclusive end of each distance
	// tier within order; cursor holds one rotation offset per tier so
	// victims within a tier are still picked round-robin.
	order   []int32
	tierEnd []int32
	cursor  []int32
}

// Queues implements Affinity-Accept's per-core accept queues and
// balancing policy for connection values of type T.
type Queues[T any] struct {
	cfg      Config
	maxLocal int
	high     float64
	low      float64

	rings []ring[T]
	cores []perCore

	// busy is the per-listen-socket busy bit vector (§3.3.1): one bit
	// per core, readable in a single sweep.
	busy []uint64

	// Counters for tests and reports.
	Drops   uint64 // pushes rejected because the local queue was full
	Steals  uint64 // remote accepts
	Locals  uint64 // local accepts
	Pushes  uint64
	BusySet uint64 // busy transitions (non-busy -> busy)
}

// NewQueues creates the per-core accept queues.
func NewQueues[T any](cfg Config) *Queues[T] {
	cfg.fill()
	maxLocal := cfg.Backlog / cfg.Cores
	if maxLocal < 1 {
		maxLocal = 1
	}
	q := &Queues[T]{
		cfg:      cfg,
		maxLocal: maxLocal,
		high:     float64(maxLocal) * cfg.HighPct / 100,
		low:      float64(maxLocal) * cfg.LowPct / 100,
		rings:    make([]ring[T], cfg.Cores),
		cores:    make([]perCore, cfg.Cores),
		busy:     make([]uint64, (cfg.Cores+63)/64),
	}
	for i := range q.rings {
		q.rings[i] = newRing[T](maxLocal)
		order, tierEnd := victimOrder(i, cfg.Cores, cfg.ChipOf)
		q.cores[i] = perCore{
			ewma:       stats.NewQueueEWMA(maxLocal),
			stolenFrom: make([]uint64, cfg.Cores),
			order:      order,
			tierEnd:    tierEnd,
			cursor:     make([]int32, len(tierEnd)),
		}
	}
	return q
}

// MaxLocalLen reports the per-core queue capacity.
func (q *Queues[T]) MaxLocalLen() int { return q.maxLocal }

// Cores reports the configured core count.
func (q *Queues[T]) Cores() int { return q.cfg.Cores }

// Len reports the instantaneous local queue length of a core.
func (q *Queues[T]) Len(core int) int { return q.rings[core].len() }

// TotalLen reports queued connections across all cores.
func (q *Queues[T]) TotalLen() int {
	n := 0
	for i := range q.rings {
		n += q.rings[i].len()
	}
	return n
}

// Busy reports whether a core is currently marked busy.
func (q *Queues[T]) Busy(core int) bool {
	return q.busy[core>>6]&(1<<(core&63)) != 0
}

func (q *Queues[T]) setBusy(core int) {
	w := &q.busy[core>>6]
	bit := uint64(1) << (core & 63)
	if *w&bit == 0 {
		*w |= bit
		q.BusySet++
	}
}

func (q *Queues[T]) clearBusy(core int) { q.busy[core>>6] &^= 1 << (core & 63) }

// anyBusy reports whether any core is marked busy (one vector read).
func (q *Queues[T]) anyBusy() bool {
	for _, w := range q.busy {
		if w != 0 {
			return true
		}
	}
	return false
}

// BusyVector returns a copy of the busy bit vector.
func (q *Queues[T]) BusyVector() []uint64 {
	out := make([]uint64, len(q.busy))
	copy(out, q.busy)
	return out
}

// Push appends an established connection to core's local accept queue.
// It returns false when the queue is full, in which case the kernel
// drops the connection request (§3.3: queue overflow).
func (q *Queues[T]) Push(core int, v T) bool {
	q.Pushes++
	r := &q.rings[core]
	ok := r.push(v)
	if !ok {
		q.Drops++
		// A full queue certainly exceeds the high watermark.
		q.setBusy(core)
		return false
	}
	st := &q.cores[core]
	// The paper updates the EWMA on every push and compares the
	// instantaneous length against the high watermark.
	st.ewma.Observe(float64(r.len()))
	if float64(r.len()) > q.high {
		q.setBusy(core)
	}
	return true
}

// maybeClearBusy applies the low-watermark rule: busy clears when the
// EWMA drops below the low watermark. In the paper the work stealer
// performs this check when scanning for victims.
func (q *Queues[T]) maybeClearBusy(core int) {
	if q.Busy(core) && q.cores[core].ewma.Value() < q.low {
		q.clearBusy(core)
	}
}

// popLocal dequeues from the core's own queue.
func (q *Queues[T]) popLocal(core int) (T, bool) {
	v, ok := q.rings[core].pop()
	if ok {
		q.Locals++
		q.cores[core].sinceSteal++
		q.maybeClearBusy(core)
	}
	return v, ok
}

// stealFrom scans busy cores in distance order — nearest tier first,
// round-robin within a tier starting one past the last victim — and
// steals the oldest connection from the first busy core with queued
// work. A cross-chip victim is therefore chosen only when no same-chip
// (or nearer-chip) core is stealable, keeping the stolen connection's
// cache lines on the cheap side of Table 1's latency cliff. Returns the
// victim core.
func (q *Queues[T]) stealFrom(core int) (T, int, bool) {
	var zero T
	st := &q.cores[core]
	start := int32(0)
	for t, end := range st.tierEnd {
		size := end - start
		cur := st.cursor[t]
		for j := int32(0); j < size; j++ {
			victim := int(st.order[start+(cur+j)%size])
			if !q.Busy(victim) {
				continue
			}
			q.maybeClearBusy(victim)
			if !q.Busy(victim) {
				continue
			}
			if v, ok := q.rings[victim].pop(); ok {
				st.cursor[t] = (cur + j + 1) % size
				st.stolenFrom[victim]++
				st.sinceSteal = 0
				q.Steals++
				q.cores[victim].ewma.Observe(float64(q.rings[victim].len()))
				return v, victim, true
			}
		}
		start = end
	}
	return zero, -1, false
}

// PopAt dequeues directly from queue idx without applying the stealing
// policy. Fine-Accept's round-robin accept and tests use it.
func (q *Queues[T]) PopAt(idx int) (T, bool) {
	v, ok := q.rings[idx].pop()
	if ok {
		q.Locals++
		q.cores[idx].ewma.Observe(float64(q.rings[idx].len()))
		q.maybeClearBusy(idx)
	}
	return v, ok
}

// DiscardAt dequeues directly from queue idx without counting the pop
// as an accept or updating the EWMA: the connection is being thrown
// away (forced shutdown), not served.
func (q *Queues[T]) DiscardAt(idx int) (T, bool) {
	return q.rings[idx].pop()
}

// Pop implements accept() on the given core: proportional-share between
// local and stolen connections when the core is non-busy, local-only
// preference when busy, and a steal scan of every other core before
// reporting empty. The scan skips non-busy victims — their own threads
// are about to serve those connections, and taking them would destroy
// the affinity the design exists to preserve (the paper's prose scans
// non-busy cores last; in a discrete-event model that scan wins races
// against the local thread far more often than real timing allows, so
// the conservative policy reproduces the measured behaviour). So an
// empty Pop by a non-busy core leaves no other core busy with queued
// connections. It returns the connection and the core whose queue
// supplied it.
func (q *Queues[T]) Pop(core int) (v T, from int, ok bool) {
	st := &q.cores[core]
	busySelf := q.Busy(core)
	q.maybeClearBusy(core)

	// Proportional share: after StealRatio local accepts, a non-busy
	// core prefers one remote accept if any core is busy.
	if !busySelf && st.sinceSteal >= q.cfg.StealRatio && q.anyBusy() {
		if v, victim, ok := q.stealFrom(core); ok {
			return v, victim, true
		}
	}
	if v, ok := q.popLocal(core); ok {
		return v, core, true
	}
	if busySelf {
		// Busy cores never steal.
		var zero T
		return zero, -1, false
	}
	// Nothing local: steal from the nearest busy core.
	return q.stealFrom(core)
}

// StolenFrom returns how many connections `core` has stolen from each
// other core since the last ResetSteals — the signal driving flow-group
// migration (§3.3.2).
func (q *Queues[T]) StolenFrom(core int) []uint64 {
	out := make([]uint64, q.cfg.Cores)
	copy(out, q.cores[core].stolenFrom)
	return out
}

// ResetSteals clears core's steal counters (called once per balancing
// interval after a migration decision).
func (q *Queues[T]) ResetSteals(core int) {
	for i := range q.cores[core].stolenFrom {
		q.cores[core].stolenFrom[i] = 0
	}
}

// ObserveIdle folds `samples` observations of the current local queue
// length into core's EWMA and re-evaluates the busy bit. Real-server
// workers (the serve package) call it when they come back from waiting
// for work: the EWMA is otherwise sampled only on pushes, so once arrivals
// stop it — and therefore the busy bit — would freeze at its burst-time
// value and non-busy cores would never resume stealing. The kernel gets
// these samples for free at softirq arrival frequency; a user-space
// worker supplies the observations its sleep skipped by scaling
// `samples` with the wall-clock time it was away.
func (q *Queues[T]) ObserveIdle(core, samples int) {
	q.cores[core].ewma.ObserveN(float64(q.rings[core].len()), samples)
	q.maybeClearBusy(core)
}

// EWMAValue exposes a core's queue-length average for tests and reports.
func (q *Queues[T]) EWMAValue(core int) float64 { return q.cores[core].ewma.Value() }

// Watermarks reports the absolute high and low watermark values.
func (q *Queues[T]) Watermarks() (high, low float64) { return q.high, q.low }
