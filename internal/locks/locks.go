// Package locks models kernel locks in virtual time and gathers the
// lock_stat-style statistics behind the paper's Table 2.
//
// A lock is a timestamp resource: it is free again at freeAt. A core
// acquiring at time t waits max(0, freeAt-t) and then holds the lock
// until it calls Unlock with its (advanced) clock. Chains of contending
// acquirers therefore serialize exactly as a FIFO ticket lock would,
// without simulating individual spin iterations.
//
// Linux's socket lock runs in two modes (§6.3): process context first
// spins briefly, then sleeps (mutex mode), while softirq context always
// spins. The Lock type models both: waits up to SpinLimit are charged to
// the core as busy spinning; longer waits from process context park the
// caller and are accounted as idle time, matching how the paper's Table 2
// splits "socket lock wait" between spin and mutex columns.
package locks

import "affinityaccept/internal/sim"

// Stats aggregates lock_stat counters for one lock or one lock class.
type Stats struct {
	Acquisitions uint64
	Contended    uint64
	// SpinWait is total cycles spent spinning for the lock.
	SpinWait sim.Cycles
	// MutexWait is total cycles spent parked waiting for the lock
	// (counted as idle, like the paper's mutex-mode wait).
	MutexWait sim.Cycles
	// Hold is total cycles the lock was held.
	Hold sim.Cycles
}

// Merge folds other into s.
func (s *Stats) Merge(other Stats) {
	s.Acquisitions += other.Acquisitions
	s.Contended += other.Contended
	s.SpinWait += other.SpinWait
	s.MutexWait += other.MutexWait
	s.Hold += other.Hold
}

// Lock is a simulated kernel lock.
type Lock struct {
	Name string
	// SpinLimit is the longest wait charged as spinning; waits beyond it
	// from process context park the caller instead (mutex mode). Zero
	// means pure spinlock.
	SpinLimit sim.Cycles
	// HandoffDelay is the dead time between a mutex-mode holder's
	// release and a parked waiter actually resuming (wakeup IPI,
	// schedule-in, cache refill). Heavily contended mutex-mode locks
	// serialize at hold+handoff per critical section, which is what
	// collapses Stock-Accept's throughput in the paper's Figure 2.
	HandoffDelay sim.Cycles
	// QueueCap bounds the virtual wait queue: a core can have at most
	// one acquisition outstanding, so the backlog ahead of any acquirer
	// cannot exceed roughly (cores-1) holds. Zero means a generous
	// default. Without the cap, sustained overload would grow the
	// queue without bound, which no physical lock does.
	QueueCap sim.Cycles

	// vFree is when the lock's FIFO service queue drains, measured on
	// the engine's global event clock. Using the monotone dispatch
	// clock instead of per-core clocks (which drift ahead inside
	// handlers) makes the lock a proper single-server queue: each
	// acquisition waits for the queue, then appends its own hold time.
	vFree      sim.Time
	curStart   sim.Time
	curLocal   sim.Time
	lastHolder int16

	Stats Stats

	// Overhead, when nonzero, is added to every acquisition to model
	// lock_stat's accounting cost (the paper notes lock_stat measurably
	// lowers throughput).
	Overhead sim.Cycles
}

// New returns a named spinlock.
func New(name string) *Lock { return &Lock{Name: name, lastHolder: -1} }

// NewSocketLock returns a lock with Linux socket-lock behaviour: spin up
// to the given limit, then sleep.
func NewSocketLock(name string, spinLimit sim.Cycles) *Lock {
	return &Lock{Name: name, SpinLimit: spinLimit, lastHolder: -1}
}

// Acquire takes the lock on core c, advancing the core's clock across
// the wait. fromProcess selects process-context behaviour (mutex mode
// allowed); softirq context always spins. Queueing is anchored to the
// engine's global clock, so acquisitions serialize in dispatch order
// regardless of per-core clock drift.
func (l *Lock) Acquire(c *sim.Core, fromProcess bool) {
	l.Stats.Acquisitions++
	if l.Overhead > 0 {
		c.Charge(l.Overhead)
	}
	g := c.GlobalNow()
	cap := l.QueueCap
	if cap == 0 {
		cap = 400_000
	}
	if l.vFree > g+cap {
		// More backlog than physically possible: the excess reflects
		// acquirers whose cores gave up their slots; pull the queue in.
		l.vFree = g + cap
	}
	start := g
	if l.vFree > start {
		start = l.vFree
	}
	wait := sim.Cycles(start - g)
	if wait > 0 {
		l.Stats.Contended++
		if fromProcess && l.SpinLimit > 0 && wait > l.SpinLimit {
			// Spin for the limit, then park: the remainder plus the
			// wakeup handoff is idle time.
			parked := wait - l.SpinLimit + l.HandoffDelay
			l.Stats.SpinWait += l.SpinLimit
			l.Stats.MutexWait += parked
			c.Charge(l.SpinLimit)
			c.Sleep(parked)
			start += l.HandoffDelay
		} else {
			l.Stats.SpinWait += wait
			c.Charge(wait)
		}
	}
	l.lastHolder = int16(c.ID)
	l.curStart = start
	l.curLocal = c.Now()
	// Reserve the slot immediately so re-acquisitions within the same
	// event still queue behind this hold (the hold length is appended
	// at Unlock).
	l.vFree = start
}

// Unlock releases the lock: the hold time, measured on the holder's
// core clock, extends the lock's global service queue.
func (l *Lock) Unlock(c *sim.Core, acquiredAt sim.Time) {
	now := c.Now()
	var hold sim.Cycles
	if now > acquiredAt {
		hold = sim.Cycles(now - acquiredAt)
	}
	l.Stats.Hold += hold
	if l.Overhead > 0 {
		c.Charge(l.Overhead)
	}
	l.vFree = l.curStart + hold
}

// With runs fn while holding the lock and accounts hold time.
func (l *Lock) With(c *sim.Core, fromProcess bool, fn func()) {
	l.Acquire(c, fromProcess)
	at := c.Now()
	fn()
	l.Unlock(c, at)
}

// LastHolder reports the core that last held the lock, or -1.
func (l *Lock) LastHolder() int { return int(l.lastHolder) }

// BucketLocks is an array of locks guarding hash-table buckets, as the
// kernel uses for the established-connection table and as Affinity-Accept
// adds for the listen socket's request hash table (§5.2).
type BucketLocks struct {
	locks []Lock
	mask  uint64
}

// NewBucketLocks creates n bucket locks; n is rounded up to a power of 2.
func NewBucketLocks(name string, n int) *BucketLocks {
	size := 1
	for size < n {
		size <<= 1
	}
	b := &BucketLocks{locks: make([]Lock, size), mask: uint64(size - 1)}
	for i := range b.locks {
		b.locks[i].Name = name
		b.locks[i].lastHolder = -1
	}
	return b
}

// Bucket returns the lock guarding the bucket for hash h.
func (b *BucketLocks) Bucket(h uint64) *Lock { return &b.locks[h&b.mask] }

// Len reports the number of buckets.
func (b *BucketLocks) Len() int { return len(b.locks) }

// SetOverhead applies a lock_stat accounting cost to every bucket.
func (b *BucketLocks) SetOverhead(ov sim.Cycles) {
	for i := range b.locks {
		b.locks[i].Overhead = ov
	}
}

// Stats sums statistics across all buckets.
func (b *BucketLocks) Stats() Stats {
	var s Stats
	for i := range b.locks {
		s.Merge(b.locks[i].Stats)
	}
	return s
}
