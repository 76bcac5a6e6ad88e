// Package serve is the production half of the Affinity-Accept
// reproduction: a real TCP server built on the paper's per-core accept
// queues (§3.2), connection-stealing policy (§3.3.1) and flow-group
// migration (§3.3.2).
//
// On Linux the server opens one SO_REUSEPORT listener per worker, so
// the kernel gives every worker its own accept queue — the user-space
// equivalent of the paper's per-core clone sockets. Each accepted
// connection's remote port is hashed into a flow group (the paper's
// low-source-port-bits FDir groups, §3.1) and the connection is pushed
// onto the queue of the worker that currently *owns* that group, in a
// core.Queues balancer. Workers pop with the paper's policy: local
// connections preferred, one remote steal per StealRatio local accepts
// when some other worker is over its high watermark. A stalled worker's
// backlog is therefore drained by idle workers instead of timing out.
// A worker with nothing to pop parks on a slot of its own: a push wakes
// the worker it pushed to, and the others only once that queue is busy
// and may be stolen from (§3.3.1); an idle server runs no timers.
//
// Stealing alone leaves a long-lived connection remote forever: every
// keep-alive pass re-enters the overloaded owner's queue and is stolen
// again. The migration loop fixes that — every balancing tick, each
// non-busy worker re-points the hottest flow group of the victim it
// stole from most at itself (§3.3.2), so subsequent connections in that
// group, and requeued keep-alive connections returned via
// Server.Requeue, land locally. The tick fires every MigrateInterval.
//
// Between requests a keep-alive connection parks on the event loop of
// the worker owning its flow group (internal/evloop): one epoll
// instance per worker owns readability for that worker's whole parked
// population, so a million held-open sockets cost O(workers)
// goroutines, not O(connections). Each loop also stamps a coarse
// per-worker clock once per iteration, which the layers above use for
// deadlines instead of calling time.Now per request.
//
// On other platforms, or when SO_REUSEPORT is unavailable, the server
// falls back to a single shared listener; connections are still routed
// through the same flow-group table, so locality and migration stats
// stay meaningful.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/internal/admit"
	"affinityaccept/internal/core"
	"affinityaccept/internal/evloop"
	"affinityaccept/internal/obs"
)

// WorkerHandler serves one accepted connection on the given worker,
// whose index keys per-worker state (caches, buffers). The handler owns
// the connection and must close it or hand it back with Server.Requeue.
type WorkerHandler func(worker int, conn net.Conn)

// Config parameterizes a Server. WorkerHandler is required; everything
// else has working defaults.
type Config struct {
	// Network and Addr are passed to net.Listen ("tcp", ":0" style).
	// Network defaults to "tcp", Addr to "127.0.0.1:0".
	Network string
	Addr    string

	// Workers is the number of worker goroutines and (on Linux) of
	// SO_REUSEPORT listeners. 0 means GOMAXPROCS.
	Workers int

	// WorkerHandler serves each connection.
	WorkerHandler WorkerHandler

	// Backlog bounds queued-but-unserved connections across all
	// workers (0 = 128 per worker, the paper's effective per-core
	// range). Connections pushed onto a full worker queue are closed.
	Backlog int
	// StealRatio is local accepts per remote steal on a non-busy
	// worker (0 = the paper's 5).
	StealRatio int
	// HighPct / LowPct are the busy watermarks in percent of the
	// per-worker queue bound (0 = the paper's 75 and 10).
	HighPct, LowPct float64

	// FlowGroups is the number of flow groups connections are hashed
	// into by the low bits of their remote port, rounded up to a power
	// of two (0 = the paper's 4,096, §3.1).
	FlowGroups int
	// MigrateInterval is how often each non-busy worker considers
	// claiming one flow group from the victim it stole from most (0 =
	// the paper's 100ms, §3.3.2).
	MigrateInterval time.Duration

	// MaxConns, when positive, is the server's connection budget: the
	// maximum number of accepted connections (plus descriptors charged
	// via ChargeConn, e.g. proxy tunnel upstreams) alive at once. An
	// accept that would exceed the budget sheds the newest parked
	// keep-alive connection to make room — LIFO, so the longest-idle
	// survivors keep their warm state — and is rejected outright only
	// when nothing is parked. 0 means unlimited (and the accept path
	// skips budget accounting entirely).
	MaxConns int
	// PerIPAcceptRate, when positive, limits each client IP to this
	// many accepted connections per second (burst PerIPAcceptBurst).
	// Each acceptor owns a private lock-free bucket array — no state is
	// shared between workers, mirroring the paper's no-shared-state
	// accept path — so under SO_REUSEPORT a single IP sprayed across
	// all listeners is effectively allowed Workers× the configured
	// rate; set the rate with that in mind. Over-rate connections are
	// closed immediately after accept, before any routing or handler
	// work. 0 disables per-IP limiting.
	PerIPAcceptRate float64
	// PerIPAcceptBurst is the per-IP bucket depth (0 = max(8, rate)).
	PerIPAcceptBurst int
}

func (c *Config) fill() error {
	if c.WorkerHandler == nil {
		return errors.New("serve: Config.WorkerHandler is required")
	}
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Validate the watermarks here so New returns an error instead of
	// letting core.NewQueues panic on a bad combination.
	high, low := c.HighPct, c.LowPct
	if high == 0 {
		high = core.DefaultHighPct
	}
	if low == 0 {
		low = core.DefaultLowPct
	}
	if high < 0 || high > 100 || low < 0 || low >= high {
		return fmt.Errorf("serve: watermarks must satisfy 0 <= low < high <= 100, got low %v%% high %v%%", low, high)
	}
	if c.Backlog < 0 || c.StealRatio < 0 {
		return errors.New("serve: Backlog and StealRatio must be non-negative")
	}
	if c.FlowGroups < 0 || c.MigrateInterval < 0 {
		return errors.New("serve: FlowGroups and MigrateInterval must be non-negative")
	}
	if c.FlowGroups == 0 {
		c.FlowGroups = core.DefaultFlowGroups
	}
	if c.MaxConns < 0 || c.PerIPAcceptRate < 0 || c.PerIPAcceptBurst < 0 {
		return errors.New("serve: MaxConns, PerIPAcceptRate and PerIPAcceptBurst must be non-negative")
	}
	if c.PerIPAcceptRate > 0 && c.PerIPAcceptBurst == 0 {
		c.PerIPAcceptBurst = 8
		if r := int(c.PerIPAcceptRate); r > 8 {
			c.PerIPAcceptBurst = r
		}
	}
	if c.MigrateInterval == 0 {
		c.MigrateInterval = core.DefaultMigrateInterval
	}
	return nil
}

// Server is a multi-listener TCP server applying Affinity-Accept's
// queueing, stealing and flow-group-migration policies to real
// connections.
type Server struct {
	cfg Config

	bal       *core.Queues[*Conn]
	flow      *core.FlowTable
	listeners []net.Listener
	sharded   bool // one listener per worker (SO_REUSEPORT)

	drainCh chan struct{} // closed when acceptors have stopped

	started  atomic.Bool
	draining atomic.Bool
	shutOnce sync.Once

	acceptWG sync.WaitGroup
	workerWG sync.WaitGroup

	workers []workerState
	// loops are the per-worker park event loops: loops[i] owns
	// readability (one epoll instance on Linux) for every keep-alive
	// connection parked between requeue passes whose flow group worker
	// i owns, plus worker i's coarse clock.
	loops    []*evloop.Loop
	requeued atomic.Uint64 // successful Requeue calls
	rr       atomic.Uint64 // round-robin cursor for non-TCP remote addresses

	// limiters are the per-acceptor per-IP token buckets (nil slots
	// when PerIPAcceptRate is 0). limiters[i] belongs to acceptLoop i
	// alone in sharded mode; the single-listener fallback has one.
	limiters []*admit.Limiter

	// live / livePeak track the connection budget (MaxConns > 0 only):
	// accepted connections not yet closed, plus ChargeConn charges.
	live     atomic.Int64
	livePeak atomic.Int64

	ratelimited    atomic.Uint64 // conns closed at accept by the per-IP buckets
	shedParked     atomic.Uint64 // parked conns closed to make room (budget or fd pressure)
	budgetRejected atomic.Uint64 // conns rejected because the budget was exhausted and nothing was parked
	acceptRetries  atomic.Uint64 // transient accept errors survived (EMFILE/ENFILE/ECONNABORTED)
	panicLogged    atomic.Int64  // unix nanos of the last logged handler panic

	// obs is the observability plane: event rings and serve-layer
	// histograms.
	obs *serverObs
}

// workerState holds one worker's atomically updated counters.
type workerState struct {
	accepted     atomic.Uint64 // connections routed to this worker at accept time
	acceptRemote atomic.Uint64 // of those, accepted on another worker's listener
	servedLocal  atomic.Uint64 // served from this worker's own queue
	servedStolen atomic.Uint64 // served by this worker from another queue
	active       atomic.Int64  // handlers currently running on this worker
	migratedIn   atomic.Uint64 // flow groups this worker claimed via §3.3.2

	// slot is where the worker parks when it finds nothing to pop: it
	// holds at most one token, left by signal, so a push that lands after
	// the worker's failed Pop and before it blocks is found when it blocks.
	slot       chan struct{}
	wakes      atomic.Uint64 // returns from the park for a token
	decayTicks atomic.Uint64 // returns from the park for the busy-bit tick
	panics     atomic.Uint64 // handler passes that panicked

	rd rawReader // the worker's TryRead callback
}

// New creates a Server and binds its listeners; the returned server is
// not accepting until Start. On Linux it opens Config.Workers
// SO_REUSEPORT listeners on the same address; elsewhere, or if
// SO_REUSEPORT fails, it opens one shared listener.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		flow:    core.NewFlowTable(cfg.FlowGroups, cfg.Workers),
		drainCh: make(chan struct{}),
		workers: make([]workerState, cfg.Workers),
	}
	s.obs = newServerObs(cfg.Workers, s.flow.Groups())
	s.loops = make([]*evloop.Loop, cfg.Workers)
	for i := range s.loops {
		s.loops[i] = evloop.New(evloop.Config{
			Callbacks:     evloop.Callbacks{Ready: s.parkWake, Dead: s.parkDead},
			ForcePortable: forcePortableParking,
		})
	}
	bcfg := core.Config{
		Cores:      cfg.Workers,
		Backlog:    cfg.Backlog,
		StealRatio: cfg.StealRatio,
		HighPct:    cfg.HighPct,
		LowPct:     cfg.LowPct,
	}
	s.bal = core.NewQueues[*Conn](bcfg)
	for i := range s.workers {
		w := &s.workers[i]
		w.slot = make(chan struct{}, 1)
		w.rd.fn = w.rd.read
	}
	if err := s.listen(); err != nil {
		return nil, err
	}
	if cfg.PerIPAcceptRate > 0 {
		s.limiters = make([]*admit.Limiter, len(s.listeners))
		for i := range s.limiters {
			s.limiters[i] = admit.NewLimiter(cfg.PerIPAcceptRate, cfg.PerIPAcceptBurst, admit.DefaultBuckets)
		}
	}
	return s, nil
}

// forceSharedListener makes New take the single-shared-listener
// fallback even where SO_REUSEPORT works, so tests on Linux exercise the
// path every other platform runs.
var forceSharedListener = false

// listen binds the listeners, preferring one SO_REUSEPORT listener per
// worker and falling back to a single shared listener.
func (s *Server) listen() error {
	if !forceSharedListener && reusePortAvailable {
		listeners, err := listenShards(s.cfg.Network, s.cfg.Addr, s.cfg.Workers)
		if err == nil {
			s.listeners = listeners
			s.sharded = len(listeners) == s.cfg.Workers
			return nil
		}
		// SO_REUSEPORT refused (restricted sandbox, exotic network):
		// fall through to the portable single-listener path.
	}
	l, err := net.Listen(s.cfg.Network, s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s %s: %w", s.cfg.Network, s.cfg.Addr, err)
	}
	s.listeners = []net.Listener{l}
	s.sharded = false
	return nil
}

// Addr returns the bound address (useful with ":0"), or nil on a
// server that has no listeners — a zero-value Server, or one whose
// construction failed partway.
func (s *Server) Addr() net.Addr {
	if len(s.listeners) == 0 {
		return nil
	}
	return s.listeners[0].Addr()
}

// Sharded reports whether the server runs one SO_REUSEPORT listener
// per worker (true) or the single-shared-listener fallback (false).
func (s *Server) Sharded() bool { return s.sharded }

// Workers reports the configured worker count.
func (s *Server) Workers() int { return s.cfg.Workers }

// FlowGroups reports the (rounded-up) flow-group count.
func (s *Server) FlowGroups() int { return s.flow.Groups() }

// OwnerOf reports which worker currently owns the flow group a remote
// port hashes into — the queue a connection from that port would be
// routed to right now.
func (s *Server) OwnerOf(remotePort uint16) int { return s.flow.CoreForPort(remotePort) }

// Parked reports how many requeued connections are currently waiting
// for their next request bytes on the workers' event loops. Long-lived-
// workload drivers use it to confirm a held-open population really is
// parked (costing no goroutine and no worker) rather than queued or
// in-flight.
func (s *Server) Parked() int64 {
	var n int64
	for _, l := range s.loops {
		n += int64(l.Len())
	}
	return n
}

// CoarseNow returns the given worker's coarse clock — wall time as of
// that worker's last event-loop iteration, at most ~50ms stale.
// Application layers arm per-request deadlines from it instead of
// calling time.Now on every request (à la fasthttp's coarse time).
// Out-of-range workers get the real clock.
func (s *Server) CoarseNow(worker int) time.Time {
	return time.Unix(0, s.CoarseNanos(worker))
}

// CoarseNanos is CoarseNow in unix nanoseconds, without a time.Time.
func (s *Server) CoarseNanos(worker int) int64 {
	if worker < 0 || worker >= len(s.loops) {
		return time.Now().UnixNano()
	}
	return s.loops[worker].Nanos()
}

// Start launches the acceptor, worker and migration goroutines. It
// returns immediately; use Shutdown to stop.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for _, l := range s.loops {
		l.Start()
	}
	for i, l := range s.listeners {
		s.acceptWG.Add(1)
		go s.acceptLoop(i, l)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.workerLoop(i)
	}
	s.workerWG.Add(1)
	go s.migrateLoop()
}

// signal leaves a token in worker's parking slot. A token already there
// stands for this push too: the worker has not looked since it was left.
func (s *Server) signal(worker int) {
	select {
	case s.workers[worker].slot <- struct{}{}:
	default:
	}
}

// acceptLoop accepts connections from one listener, applies admission
// control (per-IP rate, connection budget) and pushes each survivor
// onto the queue of the worker owning its flow group. idx names the
// listener: in sharded mode it is also the index of the acceptor's
// private per-IP limiter.
func (s *Server) acceptLoop(idx int, l net.Listener) {
	defer s.acceptWG.Done()
	var lim *admit.Limiter
	if s.limiters != nil {
		lim = s.limiters[idx]
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // Shutdown closed the listener
			}
			// Transient accept failure — EMFILE/ENFILE when a large
			// held-open population grazes the descriptor limit,
			// ECONNABORTED on a client that gave up in the queue. A
			// production listener must not die for these. Descriptor
			// exhaustion gets deliberate policy rather than hope:
			// shed the newest parked keep-alive connections — freeing
			// their descriptors right now, on this goroutine — and
			// retry immediately. Only when there is nothing to shed
			// (or the error is not fd pressure) back off a beat. A
			// closed listener surfaces as ErrClosed next iteration.
			s.acceptRetries.Add(1)
			if isFDPressure(err) && s.shedParkedConns(fdPressureSheds) > 0 {
				continue
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		addr := conn.RemoteAddr() // consulted here, once per connection
		port := addrPort(addr)
		if lim != nil && !lim.AllowNow(admit.KeyAddr(addr)) {
			// Over-rate IP: close before any routing or handler work.
			// The bucket is the acceptor's own, so a flood's cost is
			// one accept+close per attempt and no shared-state touch.
			s.ratelimited.Add(1)
			s.RecordGroupEvent(idx, obs.KindRatelimit, -1, port, 0, 0)
			conn.Close()
			continue
		}
		budgeted := s.cfg.MaxConns > 0
		if budgeted && !s.admitBudget() {
			conn.Close()
			continue
		}
		c := s.newConn(conn, port)
		c.charged = budgeted
		s.enqueue(c, idx)
	}
}

// migrateLoop runs the §3.3.2 balancing tick until shutdown: each
// non-busy worker claims the hottest flow group of the victim it stole
// from most, so that group's future connections — and requeued
// keep-alive passes — become local.
func (s *Server) migrateLoop() {
	defer s.workerWG.Done()
	ticker := time.NewTicker(s.cfg.MigrateInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.balanceOnce()
		case <-s.drainCh:
			return
		}
	}
}

// balanceOnce applies one migration tick and attributes each claimed
// group to its new owner. Tests drive it directly for determinism.
// Every applied move lands on the control event ring — migrations are
// the decisions a "why did this flow move" question needs, and the
// control ring guarantees park/wake churn can't evict them.
func (s *Server) balanceOnce() int {
	t0 := obs.Nanos()
	moves := core.Balance(s.flow, s.bal, nil)
	for _, m := range moves {
		s.workers[m.To].migratedIn.Add(1)
		s.recordControl(m.To, obs.KindMigrate, m.Group, int64(m.Group), int64(m.From), int64(m.To))
	}
	s.obs.migrate.Record(obs.Nanos() - t0)
	return len(moves)
}

// idleSamplePeriod is the virtual sampling interval an idle worker's
// EWMA observations are scaled by. The kernel samples a core's queue
// EWMA on every softirq arrival — microseconds apart under load — while
// a parked worker samples its own only when it comes back. Charging one
// observation per elapsed 10µs makes the busy bit decay at wall-clock
// speed rather than wake-count speed, so a worker that has been idle a
// few milliseconds becomes steal-eligible regardless of scheduler jitter.
const idleSamplePeriod = 10 * time.Microsecond

// decayTick is how often a worker parked with its own busy bit still
// set comes back to charge the idle time to its EWMA: no push is coming
// to clear the bit, and while it is set the worker may not steal.
const decayTick = 200 * time.Microsecond

// workerLoop pops connections with the stealing policy and runs the
// handler inline, so a worker's concurrency is exactly one connection —
// the paper's one-thread-per-core service model. With nothing to pop it
// parks on its slot, without a timer unless its own busy bit is set.
func (s *Server) workerLoop(worker int) {
	defer s.workerWG.Done()
	st := &s.workers[worker]
	// idleMark is the start of the idle stretch not yet charged to the
	// EWMA, zero while there is work. latched is the worker's own busy bit
	// as last read: only a Push onto its queue sets the bit, and that Push
	// leaves a token in the slot, so a stale false ends the park at once.
	var idleMark time.Time
	latched := false
	tick := time.NewTimer(time.Hour) // reused: time.After would allocate one per tick
	defer tick.Stop()
	for {
		if !idleMark.IsZero() {
			// Back from the park. Pop decides from the bit it finds on
			// entry whether this worker may steal, so the idle stretch is
			// charged first: a burst-time bit the stretch has outlived must
			// not veto the steal the worker was woken for.
			n := int(time.Since(idleMark) / idleSamplePeriod)
			idleMark = idleMark.Add(time.Duration(n) * idleSamplePeriod)
			latched = s.bal.ObserveIdle(worker, n)
		}
		t0 := obs.Nanos()
		conn, from, ok := s.bal.Pop(worker)
		if ok {
			idleMark = time.Time{}
			if from == worker {
				st.servedLocal.Add(1)
			} else {
				st.servedStolen.Add(1)
				// Steal cost: the pop itself — the cross-queue lock
				// walk the paper's policy pays for load balance.
				d := obs.Nanos() - t0
				s.obs.steal[worker].Record(d)
				s.RecordGroupEvent(worker, obs.KindSteal, conn.group, int64(from), d, conn.port)
			}
			st.active.Add(1)
			s.runHandler(worker, conn)
			st.active.Add(-1)
			continue
		}
		if s.draining.Load() && s.bal.TotalLen() == 0 {
			return
		}
		if latched && !s.bal.Busy(worker) {
			// Busy workers never steal, so that Pop looked at no queue but
			// this one, and the bit has cleared since: pop again, as a thief.
			latched = false
			continue
		}
		if idleMark.IsZero() {
			idleMark = time.Now()
		}
		var tickC <-chan time.Time
		if latched {
			tick.Reset(decayTick)
			tickC = tick.C
		}
		select {
		case <-st.slot:
			st.wakes.Add(1)
		case <-tickC:
			st.decayTicks.Add(1)
		case <-s.drainCh:
			// Draining: re-poll promptly, but yield so workers whose
			// queues cannot be stolen from don't spin.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// runHandler runs one handler pass. A handler that panics loses its
// connection, not its worker: the panic is counted and logged at most
// once a second, http.ErrAbortHandler not at all.
func (s *Server) runHandler(worker int, c *Conn) {
	defer func() {
		if r := recover(); r != nil {
			c.Close()
			s.workers[worker].panics.Add(1)
			now, last := time.Now().UnixNano(), s.panicLogged.Load()
			if r != http.ErrAbortHandler && now-last >= int64(time.Second) && s.panicLogged.CompareAndSwap(last, now) {
				log.Printf("serve: worker %d: handler panic: %v\n%s", worker, r, debug.Stack())
			}
		}
	}()
	c.rd = &s.workers[worker].rd
	s.cfg.WorkerHandler(worker, c)
}

// Shutdown gracefully stops the server: it closes every listener and
// every parked keep-alive connection, lets the workers drain all queued
// connections, and waits for in-flight handlers. If ctx expires first,
// still-queued connections are closed and ctx.Err is returned; handlers
// already running are not interrupted.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		for _, l := range s.listeners {
			l.Close()
		}
		s.acceptWG.Wait() // all accept-time pushes are done
		// Close the park loops: every idle keep-alive connection is
		// closed (its OnParkClose fires), and any wake already in
		// flight finishes its push before Close returns — so nothing is
		// pushed onto a queue after the workers have drained and exited.
		for _, l := range s.loops {
			l.Close()
		}
		s.draining.Store(true)
		close(s.drainCh)
	})
	if !s.started.Load() {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force: close whatever is still queued so clients see EOF
		// rather than a hang, then report the deadline.
		for i := 0; i < s.bal.Cores(); i++ {
			for {
				conn, ok := s.bal.DiscardAt(i)
				if !ok {
					break
				}
				s.closeHeld(conn)
			}
		}
		return ctx.Err()
	}
}

// Stats returns a consistent-enough snapshot of the server's counters.
// With keep-alive requeueing in play, Served counts handler passes, not
// connections: a long-lived connection contributes one pass per
// request, each classified local or stolen by the queue it was popped
// from — exactly the per-packet-batch locality the paper measures.
func (s *Server) Stats() Stats {
	_, locals, steals, drops := s.bal.Stats()
	groups := s.flow.GroupCount()
	st := Stats{
		Sharded:      s.sharded,
		FlowGroups:   s.flow.Groups(),
		Served:       locals + steals,
		ServedLocal:  locals,
		ServedStolen: steals,
		Dropped:      drops,
		Requeued:     s.requeued.Load(),
		Parked:       s.Parked(),
		Migrations:   s.flow.Migrations(),
		Workers:      make([]WorkerStats, s.cfg.Workers),

		Ratelimited:    s.ratelimited.Load(),
		ShedParked:     s.shedParked.Load(),
		BudgetRejected: s.budgetRejected.Load(),
		AcceptRetries:  s.acceptRetries.Load(),
		Live:           s.live.Load(),
		LivePeak:       s.livePeak.Load(),
		MaxConns:       s.cfg.MaxConns,
	}
	for i := range st.Workers {
		w := &s.workers[i]
		// AcceptRemote is loaded before Accepted, which its writer bumps
		// first, so Accepted-AcceptRemote never goes negative.
		acceptRemote := w.acceptRemote.Load()
		st.Workers[i] = WorkerStats{
			Worker:       i,
			Accepted:     w.accepted.Load(),
			AcceptRemote: acceptRemote,
			ServedLocal:  w.servedLocal.Load(),
			ServedStolen: w.servedStolen.Load(),
			Active:       w.active.Load(),
			QueueDepth:   s.bal.Len(i),
			Busy:         s.bal.Busy(i),
			GroupsOwned:  groups[i],
			MigratedIn:   w.migratedIn.Load(),
			Wakes:        w.wakes.Load(),
			DecayTicks:   w.decayTicks.Load(),
			Panics:       w.panics.Load(),
			Parked:       s.loops[i].Len(),
			ClockLagUs:   s.ClockLag(i).Microseconds(),
		}
		st.Accepted += st.Workers[i].Accepted
		st.Queued += st.Workers[i].QueueDepth
		st.Active += st.Workers[i].Active
	}
	return st
}
