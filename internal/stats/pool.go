package stats

import "sync/atomic"

// PoolCounters tracks the traffic of one object pool with atomic
// counters, so a pool touched only by its owning goroutine (the
// worker-local arenas of the httpaff layer) can still be observed
// lock-free from a stats snapshot on another goroutine.
//
// The two events mirror the two ways a get is served:
//
//   - Reuse: from the pool — the warm, local path.
//   - Miss: the pool was empty and a new object was made.
//
// Gets = Reuses + Misses. A pool that stays core-local and warm shows a
// reuse rate near 100% after startup: the only misses are the first
// acquisition per concurrently live object on each core.
type PoolCounters struct {
	reuses atomic.Uint64
	misses atomic.Uint64
}

// Reuse records a get served from the pool.
func (c *PoolCounters) Reuse() { c.reuses.Add(1) }

// Miss records a get that had to allocate a new object.
func (c *PoolCounters) Miss() { c.misses.Add(1) }

// Snapshot returns a consistent-enough copy of the counters.
func (c *PoolCounters) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		Reuses: c.reuses.Load(),
		Misses: c.misses.Load(),
	}
}

// PoolSnapshot is a point-in-time copy of a PoolCounters.
type PoolSnapshot struct {
	Reuses, Misses uint64
}

// Gets is the total number of acquisitions (reuses plus misses).
func (s PoolSnapshot) Gets() uint64 { return s.Reuses + s.Misses }

// ReusePct is the percentage of gets served from the pool, or 100
// for an untouched pool (no gets yet means nothing was ever cold).
func (s PoolSnapshot) ReusePct() float64 {
	gets := s.Gets()
	if gets == 0 {
		return 100
	}
	return 100 * float64(s.Reuses) / float64(gets)
}

// Add returns the element-wise sum of two snapshots, for aggregating
// per-worker pools into a server-wide figure.
func (s PoolSnapshot) Add(o PoolSnapshot) PoolSnapshot {
	return PoolSnapshot{
		Reuses: s.Reuses + o.Reuses,
		Misses: s.Misses + o.Misses,
	}
}
