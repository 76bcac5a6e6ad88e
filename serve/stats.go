package serve

import "sync/atomic"

// PoolStats counts one worker-local object pool's traffic: Reuses were
// served from the worker's own slot (the warm, core-local path), Misses
// had to allocate or dial. Gets = Reuses + Misses.
type PoolStats struct {
	Reuses, Misses uint64
}

// Gets is the total number of acquisitions (reuses plus misses).
func (s PoolStats) Gets() uint64 { return s.Reuses + s.Misses }

// ReusePct is the percentage of gets served from the pool, or 100
// for an untouched pool (no gets yet means nothing was ever cold).
func (s PoolStats) ReusePct() float64 {
	gets := s.Gets()
	if gets == 0 {
		return 100
	}
	return 100 * float64(s.Reuses) / float64(gets)
}

// Add returns the element-wise sum of two snapshots, for aggregating
// per-worker pools into a server-wide figure.
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{Reuses: s.Reuses + o.Reuses, Misses: s.Misses + o.Misses}
}

// PoolCounters tracks one worker-local pool's traffic with atomic
// counters: the owning worker bumps them, and a stats snapshot on
// another goroutine reads them without a lock. A pool that stays
// core-local and warm shows a reuse rate near 100% after startup: the
// only misses are the first acquisition per live object on each worker.
type PoolCounters struct {
	reuses atomic.Uint64
	misses atomic.Uint64
}

// Reuse records a get served from the pool.
func (c *PoolCounters) Reuse() { c.reuses.Add(1) }

// Miss records a get that had to allocate a new object.
func (c *PoolCounters) Miss() { c.misses.Add(1) }

// Snapshot returns a consistent-enough copy of the counters.
func (c *PoolCounters) Snapshot() PoolStats {
	return PoolStats{Reuses: c.reuses.Load(), Misses: c.misses.Load()}
}

// WorkerStats is one worker's view of the balancer, mirroring the
// per-core counters the paper's kernel implementation exports.
type WorkerStats struct {
	Worker int
	// Accepted counts connections routed to this worker at accept time:
	// the owner of their flow group, whichever listener accepted them.
	// AcceptRemote counts the subset another worker's listener accepted
	// under SO_REUSEPORT, where the kernel's hash rather than the flow
	// table picks the listener (0 on the shared-listener fallback).
	Accepted     uint64
	AcceptRemote uint64
	// ServedLocal counts connections this worker served from its own
	// queue; ServedStolen counts ones it stole from other workers.
	ServedLocal  uint64
	ServedStolen uint64
	// Active is the number of handlers currently running.
	Active int64
	// QueueDepth is the instantaneous local queue length; Busy is the
	// §3.3.1 busy bit.
	QueueDepth int
	Busy       bool
	// Parked is the instantaneous number of connections parked on this
	// worker's event loop between requeue passes.
	Parked int
	// GroupsOwned is how many flow groups currently steer to this
	// worker; MigratedIn counts groups it claimed via §3.3.2 migration.
	GroupsOwned int
	MigratedIn  uint64
	// Wakes counts this worker's returns from its park for a push — onto
	// its own queue, or onto a busy one it may steal from; DecayTicks
	// counts returns for the busy-bit decay tick. An idle server adds none.
	Wakes      uint64
	DecayTicks uint64
	// Panics counts handler passes that panicked; each closed its
	// connection and left the worker serving.
	Panics uint64
	// ClockLagUs is how far this worker's coarse event-loop clock
	// trailed the wall clock at snapshot time, in microseconds. Healthy
	// loops stay under one poll interval (~50ms); a persistently larger
	// lag means the loop goroutine is starved of CPU.
	ClockLagUs int64
	// Pool is this worker's request-context traffic and Upstream its
	// upstream connection-pool traffic — backend connections dialed
	// (Misses) or reused from the worker's own idle slot (Reuses). This
	// layer leaves both zero; httpaff.Server.Stats fills them.
	Pool     PoolStats
	Upstream PoolStats
}

// Stats is an aggregate snapshot of a Server, shaped like the
// simulator's RunResult locality counters.
type Stats struct {
	// Sharded reports one-SO_REUSEPORT-listener-per-worker mode.
	Sharded bool
	// FlowGroups is the (rounded-up) flow-group count.
	FlowGroups int
	// Accepted counts connections routed at accept time; Served counts
	// handler passes (accepts plus requeue passes); Dropped the
	// queue-overflow sheds. Served = ServedLocal + ServedStolen.
	Accepted     uint64
	Served       uint64
	ServedLocal  uint64
	ServedStolen uint64
	Dropped      uint64
	// Requeued counts successful Server.Requeue calls; Migrations the
	// applied §3.3.2 flow-group migrations.
	Requeued   uint64
	Migrations uint64
	// Parked is the instantaneous number of connections waiting between
	// requeue passes — the held-open population of a long-lived
	// workload. Parked connections live on the per-worker event loops
	// (one epoll registration each on Linux), costing no goroutine and
	// no worker capacity.
	Parked int64
	// Pool and Upstream aggregate the per-worker pool counters; like
	// those, they are zero here and filled by httpaff.Server.Stats.
	Pool     PoolStats
	Upstream PoolStats
	// Queued and Active are instantaneous totals across workers.
	Queued  int
	Active  int64
	Workers []WorkerStats

	// Admission-control counters (all zero unless the corresponding
	// Config knobs — PerIPAcceptRate, MaxConns — are set).
	//
	// Ratelimited counts connections closed at accept because their
	// client IP's token bucket was empty. ShedParked counts parked
	// keep-alive connections closed LIFO to reclaim descriptors or
	// budget; BudgetRejected counts fresh connections turned away
	// because the budget was exhausted with nothing parked to shed.
	// AcceptRetries counts transient accept errors survived
	// (EMFILE/ENFILE/ECONNABORTED).
	Ratelimited    uint64
	ShedParked     uint64
	BudgetRejected uint64
	AcceptRetries  uint64
	// Live and LivePeak track the connection budget's occupancy and
	// high-water mark; MaxConns echoes the configured budget. The
	// enforced invariant is LivePeak <= MaxConns.
	Live     int64
	LivePeak int64
	MaxConns int
}

// LocalityPct is the percentage of served handler passes that stayed on
// the worker owning the connection's flow group — the user-space
// analogue of the paper's connection-affinity metric.
func (s Stats) LocalityPct() float64 {
	if s.Served == 0 {
		return 100
	}
	return 100 * float64(s.ServedLocal) / float64(s.Served)
}
