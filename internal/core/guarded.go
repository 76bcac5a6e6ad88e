package core

import "sync"

// Guarded wraps Queues with a single mutex for use from real concurrent
// code: it is the production balancer behind serve.Server, on every
// accept, wake and pop. The paper's kernel implementation uses one lock
// per queue (§3.2); the single mutex keeps the policy code identical to
// the simulator's but is a measured bottleneck — the benchmark's traced
// run reads 3–6 µs of mutex wait per churn connection at two workers
// (ROADMAP item 3 replaces it).
type Guarded[T any] struct {
	mu sync.Mutex
	q  *Queues[T]
}

// NewGuarded creates mutex-protected accept queues.
func NewGuarded[T any](cfg Config) *Guarded[T] {
	return &Guarded[T]{q: NewQueues[T](cfg)}
}

// Push appends a connection to core's queue; false means overflow.
func (g *Guarded[T]) Push(core int, v T) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Push(core, v)
}

// Pop accepts a connection on core, applying the stealing policy.
func (g *Guarded[T]) Pop(core int) (T, int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Pop(core)
}

// Busy reports core's busy flag.
func (g *Guarded[T]) Busy(core int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Busy(core)
}

// AllBusy reports whether every core's §3.3.1 busy bit is set — the
// whole-server saturation signal overload backpressure keys on. One
// lock acquisition covers all cores, so callers on the accept path pay
// the same as a single Busy probe.
func (g *Guarded[T]) AllBusy() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < g.q.Cores(); i++ {
		if !g.q.Busy(i) {
			return false
		}
	}
	return true
}

// Len reports core's local queue length.
func (g *Guarded[T]) Len(core int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Len(core)
}

// TotalLen reports queued connections across all cores.
func (g *Guarded[T]) TotalLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.TotalLen()
}

// DiscardAt dequeues directly from queue idx without touching the
// accept counters or EWMA. Forced shutdown paths use it to drain
// queues of connections that will be closed, not served.
func (g *Guarded[T]) DiscardAt(idx int) (T, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.DiscardAt(idx)
}

// Cores reports the configured core count.
func (g *Guarded[T]) Cores() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Cores()
}

// ObserveIdle folds `samples` observations of the current queue length
// into core's EWMA (see Queues.ObserveIdle) and reports the busy bit.
func (g *Guarded[T]) ObserveIdle(core, samples int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.q.ObserveIdle(core, samples)
	return g.q.Busy(core)
}

// BalanceTable runs one §3.3.2 migration tick against a concurrently
// used flow table and returns the applied migrations. It holds both
// locks — queues first, then table — so routing never observes a
// half-applied tick; this is the only code path that nests the two, so
// the ordering cannot deadlock against acceptors (which take each lock
// separately).
func (g *Guarded[T]) BalanceTable(gt *GuardedFlowTable, eligible func(core int) bool) []Migration {
	return g.BalanceTableFiltered(gt, eligible, nil)
}

// BalanceTableFiltered is BalanceTable with a group veto: groups for
// which groupOK returns false sit the tick out (the migration
// controller's oscillation freeze). groupOK is called with both locks
// held and must not touch the balancer or the table.
func (g *Guarded[T]) BalanceTableFiltered(gt *GuardedFlowTable, eligible func(core int) bool, groupOK func(group int) bool) []Migration {
	g.mu.Lock()
	defer g.mu.Unlock()
	gt.mu.Lock()
	defer gt.mu.Unlock()
	return Balance(gt.t, g.q, eligible, groupOK)
}

// Stats returns (pushes, locals, steals, drops).
func (g *Guarded[T]) Stats() (pushes, locals, steals, drops uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Pushes, g.q.Locals, g.q.Steals, g.q.Drops
}
