// Package evloop is the per-worker event loop behind serve.Requeue: one
// epoll(7) instance per worker owns readability for every parked
// (between-requests) connection that worker's flow groups hold, so a
// million held-open sockets cost one epoll registration each instead of
// a goroutine each. The paper's argument (and ROADMAP item 1) is that
// locality wins evaporate unless steady-state bookkeeping is O(cores),
// not O(connections) — this package is that collapse for the park path.
//
// A Loop owns three things:
//
//   - a platform poller (epoll on Linux) plus one goroutine waiting on
//     it — the single production delivery path: it wakes batches of
//     parked conns and hands each to the Ready callback (serve routes
//     it through the flow table, so migration/steal semantics are
//     untouched);
//   - an intrusive doubly-linked park-order list (newest at the head)
//     giving O(1) arm/disarm, O(1) LIFO shedding under fd or budget
//     pressure, and a cheap idle sweep for park deadlines;
//   - a coarse per-worker clock, stamped once per loop iteration —
//     layers above read Loop.Now instead of calling time.Now per
//     request (à la fasthttp's coarseTime).
//
// Handles that cannot use the poller — connections without a file
// descriptor (net.Pipe in tests), platforms without one (non-Linux, or
// a runtime that cannot netpoll an epoll descriptor), or an epoll_ctl
// failure such as EMFILE — degrade to the one portable fallback: a
// persistent per-handle parker goroutine blocked in a one-byte read,
// exactly the pre-evloop design. The fallback is sticky per handle once
// a poller registration fails, so a connection never flip-flops between
// paths.
package evloop

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// PollInterval bounds how long a loop iteration may block, and is
	// therefore the resolution of the coarse clock: Now() is at most
	// this far behind time.Now.
	PollInterval = 50 * time.Millisecond

	// sweepInterval is how often a loop walks its park list looking for
	// expired park deadlines. The walk is skipped entirely while no
	// armed handle carries a deadline (the million-idle-sockets case).
	sweepInterval = 500 * time.Millisecond
)

// armSeq is the global park-order sequence. Monotonic across loops, so
// "the newest parked connection in the whole server" — the LIFO shed
// victim — is simply the handle with the largest seq among the loops'
// list heads.
var armSeq atomic.Uint64

// testForceCtlError, when set, makes Arm treat every poller registration
// as having failed with EMFILE. Tests use it to exercise the degrade-to-
// fallback path without actually exhausting the interest list.
var testForceCtlError atomic.Bool

// Callbacks are how a Loop hands connections back to its owner. Both
// run on loop-internal goroutines and must not block for long.
type Callbacks struct {
	// Ready delivers a connection whose next request bytes (or EOF —
	// the handler observes that on its next read) arrived while parked.
	// The receiver owns the connection again.
	Ready func(c net.Conn)
	// Dead delivers a connection the loop gave up on: its park deadline
	// expired, its fallback read failed, or the loop is closing. The
	// receiver owns it and is expected to close it.
	Dead func(c net.Conn)
}

// Config parameterizes a Loop.
type Config struct {
	Callbacks

	// ForcePortable disables the platform poller so every handle runs
	// the portable parker-goroutine path. Tests use it to prove the two
	// implementations behave identically; on platforms without a poller
	// it is implicitly true.
	ForcePortable bool
}

// Loop is one worker's park event loop. Create with New, then Start;
// Arm parks handles on it; Close tears it down and reports every
// still-parked connection Dead.
type Loop struct {
	cb Callbacks

	mu     sync.Mutex
	newest *Handle // intrusive park-order list head (most recent arm)
	oldest *Handle
	n      int
	timed  int // armed handles carrying a park deadline
	closed bool
	start  bool

	// byFD maps a registered descriptor to its handle, for event
	// delivery. Registrations persist across parks (armed or not);
	// Retire removes the entry.
	byFD map[int32]*Handle

	count      atomic.Int64 // == n, readable without the lock
	clock      atomic.Int64 // coarse time, unix nanos
	closedFlag atomic.Bool

	// Lifetime delivery counters, exported by Counters for the metrics
	// plane: ready wakes, dead deliveries (all causes), and the subset
	// of deads caused by park-deadline expiry.
	ready   atomic.Uint64
	dead    atomic.Uint64
	expired atomic.Uint64
	// Arm's MSG_PEEK probes and the loop's epoll_waits, for tests.
	probes   atomic.Uint64
	harvests atomic.Uint64

	p         *poller       // nil: portable mode
	done      chan struct{} // closed when the loop goroutine exits
	stop      chan struct{} // signals the portable loop goroutine to exit
	closeOnce sync.Once

	// inflight counts fallback deliveries between detach and callback
	// return, so Close can guarantee no delivery outlives it.
	inflight sync.WaitGroup

	scratch []*Handle // sweep's reusable expired-handle buffer
}

// Handle is one connection's park state, embedded by value in the
// owner's per-connection wrapper so parking allocates nothing. Init
// once, then Arm on each park.
type Handle struct {
	c    net.Conn
	fd   int // -1: no descriptor, portable path only
	loop *Loop

	armed      bool
	registered bool  // in the poller's interest set (persists across parks)
	regTag     int32 // seq low bits stashed in the registration's events
	fallback   bool  // sticky: this handle parks via its parker goroutine
	missed     bool  // next Arm must probe: see deliver (set under loop.mu)
	drained    bool  // the owner's last read came back short: no data left
	deadline   int64
	seq        uint64
	next       *Handle // toward older
	prev       *Handle // toward newer

	// Portable-path state: the parker goroutine, its signal channel,
	// and the consumed-but-unreplayed wake byte.
	parkCh    chan struct{}
	closeOnce sync.Once
	head      byte
	has       bool
	buf       [1]byte
}

// New creates a Loop. It is not polling until Start.
func New(cfg Config) *Loop {
	l := &Loop{
		cb:   cfg.Callbacks,
		byFD: make(map[int32]*Handle),
		done: make(chan struct{}),
		stop: make(chan struct{}),
	}
	l.clock.Store(time.Now().UnixNano())
	if !cfg.ForcePortable {
		l.p = newPoller()
	}
	return l
}

// Start launches the loop goroutine.
func (l *Loop) Start() {
	l.mu.Lock()
	if l.start || l.closed {
		l.mu.Unlock()
		return
	}
	l.start = true
	l.mu.Unlock()
	if l.p != nil {
		go l.run()
	} else {
		go l.runPortable()
	}
}

// Now returns the loop's coarse clock: the wall time as of the last
// loop iteration, at most PollInterval behind time.Now. Layers above
// use it for idle/read deadlines so the request hot path performs no
// clock syscalls.
func (l *Loop) Now() time.Time { return time.Unix(0, l.clock.Load()) }

// Nanos is Now in unix nanoseconds.
func (l *Loop) Nanos() int64 { return l.clock.Load() }

// Len reports how many handles are currently parked on this loop.
func (l *Loop) Len() int { return int(l.count.Load()) }

// Portable reports whether this loop runs without a platform poller
// (every handle on the parker-goroutine fallback).
func (l *Loop) Portable() bool { return l.p == nil }

// Counters reports the loop's lifetime delivery totals: ready is parked
// connections delivered because input arrived, dead is connections the
// loop gave up on (peer gone, deadline, shutdown), expired the subset
// of dead closed by park-deadline expiry.
func (l *Loop) Counters() (ready, dead, expired uint64) {
	return l.ready.Load(), l.dead.Load(), l.expired.Load()
}

// Init prepares a handle for its connection, resolving the underlying
// file descriptor once. Call exactly once per handle, before the first
// Arm.
func (h *Handle) Init(c net.Conn) {
	h.c = c
	h.fd = rawFD(c)
}

// Replay copies the consumed fallback wake byte into b, reporting
// whether one was held. A zero-length b leaves the byte held.
func (h *Handle) Replay(b []byte) (int, bool) {
	if !h.has {
		return 0, false
	}
	if len(b) == 0 {
		return 0, true
	}
	b[0] = h.head
	h.has = false
	return 1, true
}

// Clock returns the coarse clock of the loop the handle last parked on
// (time.Now before any park). Wrappers expose it upward so request
// layers can arm deadlines without a clock syscall.
func (h *Handle) Clock() time.Time {
	if h.loop == nil {
		return time.Now()
	}
	return h.loop.Now()
}

// NoteRead records whether the owner's last transport read came back
// short (fewer bytes than asked, no error): no data was then left, so
// any later byte fires an edge and the next Arm need not probe (a
// hangup that came with the wake is deliver's to record).
func (h *Handle) NoteRead(short bool) { h.drained = short }

// Retire releases the handle's loop-side resources: its persistent
// poller registration, and its parker goroutine if it ever grew one.
// The owner calls it when closing the connection, before closing the
// transport; it must not race an Arm (the owner either requeues or
// closes, never both).
func (h *Handle) Retire() {
	if h.registered {
		l := h.loop
		l.mu.Lock()
		// Deregister only while the loop still maps the descriptor
		// number to this handle: a transport closed without Retire freed
		// the number, and it may since name another connection's
		// registration. After Close the epoll descriptor itself is gone
		// and recyclable; closed is written under l.mu strictly before
		// the poller closes.
		if h.registered && l.byFD[int32(h.fd)] == h {
			delete(l.byFD, int32(h.fd))
			if !l.closed {
				l.p.del(h.fd)
			}
		}
		h.registered = false
		l.mu.Unlock()
	}
	h.closeOnce.Do(func() {
		if h.parkCh != nil {
			close(h.parkCh)
		}
	})
}

// Arm parks the handle on the loop: the loop now owns the connection
// and will deliver it to exactly one of Ready (input arrived) or Dead
// (deadline, error, close) — unless ShedNewest or Cancel takes it
// first. deadline, when non-zero, is the park deadline enforced by the
// idle sweep. Arm reports false, parking nothing, once the loop is
// closed; the caller then still owns the connection.
func (l *Loop) Arm(h *Handle, deadline time.Time) bool {
	var dl int64
	if !deadline.IsZero() {
		dl = deadline.UnixNano()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	h.loop = l
	h.seq = armSeq.Add(1)
	h.deadline = dl
	if dl != 0 {
		l.timed++
	}
	h.prev = nil
	h.next = l.newest
	if l.newest != nil {
		l.newest.prev = h
	}
	l.newest = h
	if l.oldest == nil {
		l.oldest = h
	}
	l.n++
	l.count.Store(int64(l.n))
	h.armed = true

	// A handle holding an unreplayed wake byte must be delivered
	// immediately — the byte is already out of the kernel, so the
	// poller would never fire for it. The parker path handles that.
	usePoller := l.p != nil && l.start && !h.fallback && h.fd >= 0 && !h.has
	fresh := false
	if usePoller && !h.registered {
		// First park: register once, edge-triggered, and keep the
		// registration for the connection's lifetime. Every later park
		// costs no epoll_ctl, and at most the one probe below.
		var err error = syscall.EMFILE
		if !testForceCtlError.Load() {
			err = l.p.add(h.fd, h.seq)
		}
		if err != nil {
			// epoll_ctl failed (EMFILE on the interest list, exotic
			// fd): degrade this handle to the portable path, sticky,
			// so it never bounces between implementations.
			h.fallback = true
			usePoller = false
		} else {
			h.registered = true
			h.regTag = int32(uint32(h.seq))
			l.byFD[int32(h.fd)] = h
			fresh = true
		}
	}
	// Edge-triggered close race: input that arrived while the handle
	// was unarmed fired an edge no armed handle received. One MSG_PEEK
	// after arming catches it, needed only if deliver recorded such an
	// edge or a hangup, or the owner's last read did not show the queue
	// empty (it filled its buffer, or there was none since the wake);
	// any other byte's edge is still pending in epoll and reaches the
	// armed handle. A fresh registration needs no probe: EPOLL_CTL_ADD
	// on a readable descriptor generates the initial event itself.
	probe := usePoller && !fresh && (h.missed || !h.drained)
	h.missed, h.drained = false, false
	if probe {
		l.probes.Add(1)
		if h.probeReadable() {
			l.detachLocked(h)
			l.mu.Unlock()
			l.ready.Add(1)
			l.cb.Ready(h.c)
			return true
		}
	}
	if !usePoller {
		if h.fd < 0 || l.p == nil {
			h.fallback = true
		}
		if h.parkCh == nil {
			h.parkCh = make(chan struct{}, 1)
			go h.parker()
		}
		// Signal under the lock: the buffer slot is free by the
		// ownership contract (one outstanding park per handle), so this
		// never blocks — and Close cannot observe the handle armed,
		// deliver it Dead, and let the owner Retire (closing parkCh)
		// before the signal lands.
		h.parkCh <- struct{}{}
	}
	l.mu.Unlock()
	return true
}

// detachLocked unlinks an armed handle from the park list. The poller
// registration, if any, deliberately survives — deregistration happens
// once, at Retire — so detach is pure pointer surgery. Callers hold
// l.mu.
func (l *Loop) detachLocked(h *Handle) {
	if h.prev != nil {
		h.prev.next = h.next
	} else {
		l.newest = h.next
	}
	if h.next != nil {
		h.next.prev = h.prev
	} else {
		l.oldest = h.prev
	}
	h.prev, h.next = nil, nil
	l.n--
	l.count.Store(int64(l.n))
	if h.deadline != 0 {
		l.timed--
	}
	h.armed = false
}

// deliver hands a poller readability event to its handle's owner,
// reporting whether it did. tag is the registration's stashed low-order
// seq bits: a stale event for a since-recycled descriptor number fails
// the comparison and is dropped. An edge that fired while the handle
// was between parks, or for a handle that shed, sweep or Close already
// detached, fails the armed check: it is recorded on the handle, so the
// next Arm probes for the input it announced. So is a delivered wake
// that carries a hangup or error (hup): a read that returns the last
// data short leaves the EOF behind it, and no later edge announces it.
func (l *Loop) deliver(fd int32, tag int32, hup bool) bool {
	l.mu.Lock()
	h, ok := l.byFD[fd]
	if !ok || !h.armed || h.regTag != tag {
		if ok && h.regTag == tag {
			h.missed = true
		}
		l.mu.Unlock()
		return false
	}
	l.detachLocked(h)
	h.missed = hup
	l.mu.Unlock()
	l.ready.Add(1)
	l.cb.Ready(h.c)
	return true
}

// sweep reports every handle whose park deadline has passed as Dead.
// Skipped in O(1) while nothing armed carries a deadline.
func (l *Loop) sweep(now int64) {
	l.mu.Lock()
	if l.timed == 0 || l.closed {
		l.mu.Unlock()
		return
	}
	expired := l.scratch[:0]
	for h := l.newest; h != nil; h = h.next {
		if h.deadline != 0 && h.deadline <= now {
			expired = append(expired, h)
		}
	}
	for _, h := range expired {
		l.detachLocked(h)
	}
	l.scratch = expired[:0]
	l.mu.Unlock()
	l.dead.Add(uint64(len(expired)))
	l.expired.Add(uint64(len(expired)))
	for _, h := range expired {
		l.cb.Dead(h.c)
	}
}

// NewestSeq reports the park-order sequence of the loop's most recently
// armed handle. The global LIFO shed compares heads across loops.
func (l *Loop) NewestSeq() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.newest == nil {
		return 0, false
	}
	return l.newest.seq, true
}

// ShedNewest detaches and returns the most recently parked connection —
// the LIFO victim under descriptor or budget pressure. The caller owns
// it (and closes it); the loop will not deliver it.
func (l *Loop) ShedNewest() (net.Conn, bool) {
	l.mu.Lock()
	h := l.newest
	if h == nil {
		l.mu.Unlock()
		return nil, false
	}
	l.detachLocked(h)
	l.mu.Unlock()
	return h.c, true
}

// Cancel unparks one handle — the targeted form of ShedNewest. It
// reports true if the handle was armed on this loop: it is detached,
// the loop will not deliver it and the caller owns the connection. It
// reports false if a delivery, a shed or the sweep took the handle
// first (whoever did owns the connection), or it was never armed.
func (l *Loop) Cancel(h *Handle) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !h.armed {
		return false
	}
	l.detachLocked(h)
	return true
}

// Close stops the loop, reports every still-parked connection Dead, and
// waits until no delivery can be in flight. Arm refuses afterwards.
func (l *Loop) Close() { l.closeOnce.Do(l.shutdown) }

func (l *Loop) shutdown() {
	l.mu.Lock()
	l.closed = true
	started := l.start
	l.mu.Unlock()
	l.closedFlag.Store(true)
	if started {
		if l.p != nil {
			l.p.wakeup()
		} else {
			close(l.stop)
		}
		<-l.done
	}
	l.mu.Lock()
	var all []*Handle
	for h := l.newest; h != nil; h = h.next {
		all = append(all, h)
	}
	for _, h := range all {
		l.detachLocked(h)
	}
	l.mu.Unlock()
	l.dead.Add(uint64(len(all)))
	for _, h := range all {
		l.cb.Dead(h.c)
	}
	// Fallback parkers that detached their handle just before closed
	// was set are still completing a Ready delivery; join them so no
	// callback runs after Close returns.
	l.inflight.Wait()
	if l.p != nil {
		l.p.close()
	}
}

// runPortable is the loop goroutine without a poller: it only keeps the
// coarse clock fresh and runs the deadline sweep — wakes come from the
// per-handle parkers.
func (l *Loop) runPortable() {
	defer close(l.done)
	t := time.NewTicker(PollInterval)
	defer t.Stop()
	lastSweep := time.Now().UnixNano()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			l.clock.Store(now)
			if now-lastSweep >= int64(sweepInterval) {
				lastSweep = now
				l.sweep(now)
			}
		}
	}
}

// parker is a fallback handle's persistent park goroutine: once per Arm
// signal it blocks in a one-byte read and delivers the handle. It exits
// when the connection dies or the owner Retires it.
func (h *Handle) parker() {
	for range h.parkCh {
		if !h.parkOnce() {
			return
		}
	}
}

// parkOnce waits for the handle's next input byte and delivers Ready,
// or Dead on a read failure, reporting whether the handle can park
// again. A handle re-armed with its wake byte still unreplayed is
// delivered immediately — that byte is the next input.
func (h *Handle) parkOnce() bool {
	l := h.loop
	if !h.has {
		n, err := h.c.Read(h.buf[:1])
		if err != nil || n == 0 {
			l.mu.Lock()
			if !h.armed {
				// Shed, sweep or Close beat us to the handle; whoever
				// detached it owns the close and the notification.
				l.mu.Unlock()
				return false
			}
			l.detachLocked(h)
			l.inflight.Add(1)
			l.mu.Unlock()
			l.dead.Add(1)
			l.cb.Dead(h.c)
			l.inflight.Done()
			return false
		}
		h.head, h.has = h.buf[0], true
	}
	l.mu.Lock()
	if !h.armed {
		l.mu.Unlock()
		return false
	}
	l.detachLocked(h)
	l.inflight.Add(1)
	l.mu.Unlock()
	l.ready.Add(1)
	l.cb.Ready(h.c)
	l.inflight.Done()
	return true
}

// rawFD resolves a connection's file descriptor, -1 when it has none
// to give (net.Pipe; a wrapper whose transport is not a syscall.Conn
// reports that as an error) — such connections park on the portable
// path.
func rawFD(c net.Conn) int {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return -1
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return -1
	}
	fd := -1
	if err := rc.Control(func(u uintptr) { fd = int(u) }); err != nil {
		return -1
	}
	return fd
}
