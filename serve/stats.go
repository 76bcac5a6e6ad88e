package serve

import (
	"time"

	"affinityaccept/internal/stats"
)

// PoolStats counts one worker-local object pool's traffic, as reported
// by the Config.WorkerPool hook: Reuses were served from the worker's
// free list (the warm, core-local path), Misses had to allocate, Drops
// were discarded on release because the free list was full. It carries
// Gets, ReusePct and Add from the stats layer's snapshot type.
type PoolStats = stats.PoolSnapshot

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
	// Chip is which chip of the configured topology (Config.Chips) this
	// worker maps to — 0 on a flat machine.
	Chip int
	// PinnedCPU is the CPU this worker's OS thread is pinned to under
	// Config.PinWorkers, -1 when unpinned.
	PinnedCPU int
	// StolenCross counts the subset of ServedStolen whose victim lived
	// on a different chip — the steals the distance-ordered scan exists
	// to avoid.
	StolenCross uint64
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
	// ClockLagUs is how far this worker's coarse event-loop clock
	// trailed the wall clock at snapshot time, in microseconds. Healthy
	// loops stay under one poll interval (~50ms); a persistently larger
	// lag means the loop goroutine is starved of CPU.
	ClockLagUs int64
	// Pool is this worker's application object-pool traffic (zero
	// unless Config.WorkerPool is set).
	Pool PoolStats
	// Upstream is this worker's upstream connection-pool traffic —
	// backend connections dialed (Misses), reused from the worker's own
	// free list (Reuses) and discarded over the idle cap (Drops). Zero
	// unless Config.WorkerUpstream is set.
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
	// Chips is the configured topology's chip count (1 = flat).
	// CrossChipSteals and CrossChipMigrations count the hops whose two
	// workers lived on different chips — the traffic the paper's
	// policies exist to minimize.
	Chips               int
	CrossChipSteals     uint64
	CrossChipMigrations uint64
	// AdaptiveInterval is the migration controller's current balancing
	// interval (zero under Config.DisableMigration): MigrateInterval
	// while converging, backed off up to 8x once locality converges.
	AdaptiveInterval time.Duration
	// FrozenGroups is how many flow groups the controller currently has
	// frozen for ping-ponging; GroupFreezes/GroupUnfreezes count the
	// transitions.
	FrozenGroups   int64
	GroupFreezes   uint64
	GroupUnfreezes uint64
	// PinnedWorkers counts workers whose threads are pinned to a CPU;
	// PinFailures counts workers that asked to pin but could not
	// (restricted cpuset, unsupported platform).
	PinnedWorkers int
	PinFailures   uint64
	// Parked is the instantaneous number of connections waiting between
	// requeue passes — the held-open population of a long-lived
	// workload. Parked connections live on the per-worker event loops
	// (one epoll registration each on Linux), costing no goroutine and
	// no worker capacity.
	Parked int64
	// Pool aggregates the per-worker object-pool counters (zero unless
	// Config.WorkerPool is set).
	Pool PoolStats
	// Upstream aggregates the per-worker upstream connection-pool
	// counters (zero unless Config.WorkerUpstream is set).
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

// StealPct is the percentage of served handler passes that were stolen
// from another worker's queue.
func (s Stats) StealPct() float64 {
	if s.Served == 0 {
		return 0
	}
	return 100 * float64(s.ServedStolen) / float64(s.Served)
}
