// Package httpaff is a core-local HTTP/1.1 serving layer on top of
// serve: keep-alive and pipelining with zero allocations per request on
// the steady-state path, built so that *memory* stays as core-local as
// the connections the underlying server routes.
//
// The paper evaluates Affinity-Accept through a real web workload
// (§6.2), where the win is that every phase of a connection's
// processing touches one core's caches. A user-space HTTP layer throws
// that away if its request objects and I/O buffers bounce between
// workers — which is exactly what a process-wide sync.Pool does: any
// worker can drain objects another worker's cache is warm for. httpaff
// instead gives every worker a private arena of pooled RequestCtx
// objects (request state plus read/write buffers). A worker acquires a
// context from its own arena at the start of a handler pass and
// releases it to the same arena at the end; nothing is ever handed
// across workers. When a keep-alive connection parks between requests
// (Server.Requeue) and §3.3.2 migration re-points its flow group, the
// next pass runs on the new owning worker using that worker's warm
// arena — the connection moved, the memory never did.
//
// The per-worker pool counters (alloc / reuse / drop, surfaced through
// serve.Stats) prove the claim: after startup the reuse rate sits at
// ~100%, because the one-connection-at-a-time worker model needs
// exactly one warm context per worker.
package httpaff

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"affinityaccept/internal/obs"
	"affinityaccept/serve"
)

// HandlerFunc serves one parsed request. The ctx — including every
// byte slice obtained from it — is owned by the worker's arena and must
// not be retained after the handler returns.
type HandlerFunc func(ctx *RequestCtx)

// Config parameterizes a Server. Handler is required; everything else
// has working defaults.
type Config struct {
	// Network and Addr are passed through to the serve layer
	// (defaults "tcp", "127.0.0.1:0").
	Network string
	Addr    string

	// Workers is the worker / listener / arena count (0 = GOMAXPROCS).
	Workers int

	// Handler serves every request. Use (*Router).Serve for path
	// dispatch.
	Handler HandlerFunc

	// ServerName is the Server response header value (default
	// "httpaff").
	ServerName string

	// MaxHeaderBytes bounds the request line plus headers (default
	// 8192); larger requests are answered 431 and closed.
	MaxHeaderBytes int
	// MaxBodyBytes bounds a request body (default 1 MiB); larger
	// bodies are answered 413 and closed. The two limits together are
	// also what a worker's arena retains per buffer between requests:
	// buffers grow on demand to the workload's largest message and only
	// one grown beyond MaxHeaderBytes + MaxBodyBytes is shed on release.
	MaxBodyBytes int

	// MaxRequestsPerConn closes a connection (Connection: close) after
	// it has served this many requests (0 = unlimited).
	MaxRequestsPerConn int

	// IdleTimeout closes a keep-alive connection parked longer than
	// this between requests (0 = no limit). Enforced twice over: as the
	// transport read deadline, and as the park deadline the owning
	// worker's event-loop sweep reaps without waking anything
	// (serve.Conn records it in SetReadDeadline).
	IdleTimeout time.Duration
	// ReadTimeout bounds reading one request once the connection
	// blocks for more bytes (0 = fall back to IdleTimeout; a
	// connection stalled mid-request is idle capacity too, and workers
	// serve one connection at a time).
	ReadTimeout time.Duration
	// HeaderTimeout bounds reading one request's head — request line
	// plus headers — separately from the body reads (which stay under
	// ReadTimeout). This is the slowloris defense: a client dripping
	// header bytes holds its worker captive at most this long, however
	// slowly it feeds the socket, because the deadline is absolute from
	// the first blocking head read and is not extended per byte.
	// 0 = fall back to ReadTimeout, then IdleTimeout.
	HeaderTimeout time.Duration

	// MaxInflightHeaders, when positive, caps how many workers may
	// simultaneously be blocked reading a *fresh* connection's first
	// request head. Workers serve one connection at a time, so each
	// slow first read holds a whole worker; a cap below Workers
	// reserves the remainder for connections that have already proved
	// themselves (keep-alive passes are exempt). Fresh connections over
	// the cap get an immediate 503 with Retry-After and are closed
	// before any worker blocks for them. 0 = no cap.
	MaxInflightHeaders int

	// ShedOnOverload answers fresh connections 503-with-Retry-After
	// while every worker is over its §3.3.1 busy watermark, instead of
	// queueing them behind work the server is already failing to keep
	// up with. Established keep-alive connections are exempt: overload
	// backpressure sheds newcomers, never the flows whose locality the
	// server has been curating.
	ShedOnOverload bool

	// RetryAfter is the Retry-After delay advertised in shed 503
	// responses, rounded up to whole seconds (default 1s).
	RetryAfter time.Duration

	// WorkerUpstream, if set, reports each worker's upstream
	// connection-pool counters and is passed through to
	// serve.Config.WorkerUpstream, so Stats carries them. The proxyaff
	// layer wires its per-worker backend pools here.
	WorkerUpstream func(worker int) serve.PoolStats

	// The remaining fields pass straight through to serve.Config:
	// queueing, stealing, migration and transport-level admission
	// (per-IP accept rate limiting, the connection budget with LIFO
	// parked shedding) behave exactly as for a raw TCP server.
	Backlog          int
	StealRatio       int
	HighPct, LowPct  float64
	FlowGroups       int
	MigrateInterval  time.Duration
	DisableMigration bool
	MaxConns         int
	PerIPAcceptRate  float64
	PerIPAcceptBurst int
	Chips            int
	PinWorkers       bool
}

func (c *Config) fill() error {
	if c.Handler == nil {
		return errors.New("httpaff: Config.Handler is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ServerName == "" {
		c.ServerName = "httpaff"
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 8192
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxRequestsPerConn < 0 || c.IdleTimeout < 0 || c.ReadTimeout < 0 ||
		c.HeaderTimeout < 0 || c.MaxInflightHeaders < 0 || c.RetryAfter < 0 {
		return errors.New("httpaff: limits must be non-negative")
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return nil
}

// Server is an HTTP/1.1 server whose transport is serve.Server: per
// worker SO_REUSEPORT listeners, flow-group routing, §3.3.1 stealing,
// §3.3.2 migration, and Requeue-parked keep-alive connections — plus a
// per-worker arena keeping request memory core-local.
type Server struct {
	cfg     Config
	srv     *serve.Server
	handler HandlerFunc
	name    []byte
	arenas  []*arena

	draining atomic.Bool

	// shed503 is the complete, pre-serialized 503-with-Retry-After
	// response admission sheds write: built once at New so the shed
	// path — which exists to protect an overloaded server — costs one
	// raw write and no allocation, no arena, no serializer.
	shed503 []byte

	// inflightHeaders gauges workers currently blocked reading a fresh
	// connection's first request head (MaxInflightHeaders > 0 only);
	// admitw holds the per-worker admission counters.
	inflightHeaders atomic.Int64
	admitw          []admitCounters

	// obsw holds each worker's request-path histograms (service
	// latency, request/response sizes).
	obsw []workerObs
}

// admitCounters is one worker's admission-policy counters, updated only
// from that worker's goroutine (atomics so Admission can read them from
// anywhere, matching the arena counters' discipline).
type admitCounters struct {
	headerTimeouts atomic.Uint64 // request heads that hit their read deadline
	headerSheds    atomic.Uint64 // fresh conns 503'd over MaxInflightHeaders
	overloadSheds  atomic.Uint64 // fresh conns 503'd while all workers busy
}

// New creates a Server and binds its listeners; call Start to begin
// serving.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	retry := int((cfg.RetryAfter + time.Second - 1) / time.Second)
	s := &Server{
		cfg:     cfg,
		handler: cfg.Handler,
		name:    []byte(cfg.ServerName),
		arenas:  make([]*arena, cfg.Workers),
		admitw:  make([]admitCounters, cfg.Workers),
		obsw:    make([]workerObs, cfg.Workers),
		shed503: []byte(fmt.Sprintf(
			"HTTP/1.1 503 Service Unavailable\r\nServer: %s\r\nRetry-After: %d\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
			cfg.ServerName, retry)),
	}
	for i := range s.arenas {
		s.arenas[i] = &arena{s: s}
	}
	for i := range s.obsw {
		s.obsw[i].svc = obs.NewHist(obs.DefaultSubBits)
		s.obsw[i].reqBytes = obs.NewHist(obs.DefaultSubBits)
		s.obsw[i].respBytes = obs.NewHist(obs.DefaultSubBits)
	}
	srv, err := serve.New(serve.Config{
		Network:          cfg.Network,
		Addr:             cfg.Addr,
		Workers:          cfg.Workers,
		WorkerHandler:    s.serveConn,
		Backlog:          cfg.Backlog,
		StealRatio:       cfg.StealRatio,
		HighPct:          cfg.HighPct,
		LowPct:           cfg.LowPct,
		FlowGroups:       cfg.FlowGroups,
		MigrateInterval:  cfg.MigrateInterval,
		DisableMigration: cfg.DisableMigration,
		MaxConns:         cfg.MaxConns,
		PerIPAcceptRate:  cfg.PerIPAcceptRate,
		PerIPAcceptBurst: cfg.PerIPAcceptBurst,
		Chips:            cfg.Chips,
		PinWorkers:       cfg.PinWorkers,
		WorkerPool: func(worker int) serve.PoolStats {
			return s.arenas[worker].counters.Snapshot()
		},
		WorkerUpstream: cfg.WorkerUpstream,
	})
	if err != nil {
		return nil, fmt.Errorf("httpaff: %w", err)
	}
	s.srv = srv
	return s, nil
}

// Start launches the transport server.
func (s *Server) Start() { s.srv.Start() }

// Shutdown drains gracefully: in-flight responses switch to
// Connection: close, parked keep-alive connections are closed, queued
// connections are served, and in-flight handlers finish. A ctx deadline
// force-closes whatever is still queued (see serve.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.srv.Shutdown(ctx)
}

// Addr returns the bound address (useful with ":0"), or nil before a
// successful bind.
func (s *Server) Addr() net.Addr { return s.srv.Addr() }

// Workers reports the configured worker count.
func (s *Server) Workers() int { return s.srv.Workers() }

// Sharded reports whether the transport runs one SO_REUSEPORT listener
// per worker.
func (s *Server) Sharded() bool { return s.srv.Sharded() }

// FlowGroups reports the transport's (rounded-up) flow-group count.
func (s *Server) FlowGroups() int { return s.srv.FlowGroups() }

// OwnerOf reports which worker currently owns the flow group a remote
// port hashes into.
func (s *Server) OwnerOf(remotePort uint16) int { return s.srv.OwnerOf(remotePort) }

// Stats snapshots the transport counters; with the arena hook wired,
// Stats.Pool and each WorkerStats.Pool carry the per-worker
// alloc/reuse/drop pool counters, and with Config.WorkerUpstream set,
// Stats.Upstream carries the upstream connection-pool counters.
func (s *Server) Stats() serve.Stats { return s.srv.Stats() }

// Transport exposes the underlying serve.Server — for diagnostics that
// want the transport object itself rather than a snapshot.
func (s *Server) Transport() *serve.Server { return s.srv }

// TakeoverFunc serves one pass of a connection whose protocol has been
// upgraded away from HTTP (RequestCtx.Hijack). It runs inline on the
// worker goroutine, exactly like an HTTP handler pass: worker is the
// serving worker's index and nc is the connection — the same value on
// every pass, and the one RequestCtx.NetConn returned to the upgrading
// handler — whose reads replay any residual buffered input and the park
// wake-up byte. Returning park=true hands the connection back to the
// server to park until its next input byte — the takeover owns the read
// deadline; returning false means the takeover has closed the
// connection (or will: the server does nothing further with it).
type TakeoverFunc func(worker int, nc net.Conn) (park bool)

// conn is the HTTP state that must survive Requeue passes — the
// per-connection request count, and after a Hijack the takeover
// function and residual input — kept in the serve.Conn's State slot. It
// is allocated once per accepted connection and amortizes across every
// keep-alive request the connection serves. Embedding the serve.Conn
// makes it the connection as this layer sees it: the transport's
// methods with residual replay in front of Read.
type conn struct {
	*serve.Conn
	reqs int // requests served on this connection so far

	// takeover, once set by Hijack, replaces HTTP serving for every
	// later pass; residual holds input bytes that were read beyond the
	// upgrade request and must replay before the transport's.
	takeover TakeoverFunc
	residual []byte
}

// Read replays residual post-upgrade bytes before touching the
// transport. On the HTTP path residual is always nil: one predictable
// branch.
func (c *conn) Read(b []byte) (int, error) {
	if len(c.residual) > 0 {
		n := copy(b, c.residual)
		c.residual = c.residual[n:]
		return n, nil
	}
	return c.Conn.Read(b)
}

// InputPending adds queued post-upgrade residual bytes to the serve
// layer's answer; see serve.Conn.InputPending for the contract.
func (c *conn) InputPending() bool { return len(c.residual) > 0 || c.Conn.InputPending() }

// serveConn is the serve.WorkerHandler: one handler pass over a
// connection. It runs inline on the worker goroutine, which is what
// makes lock-free worker-local arenas sound — the arena for worker i is
// only ever touched from worker i's goroutine.
func (s *Server) serveConn(worker int, nc net.Conn) {
	sc := nc.(*serve.Conn)
	c, _ := sc.State.(*conn)
	headerSlot := false
	if c == nil {
		// First pass on a fresh transport connection: the admission
		// gates run here, before any arena state is touched, and only
		// here — a connection that has served a request is established
		// and exempt, so overload pressure sheds newcomers while the
		// flows the server has been curating keep their workers.
		if s.cfg.ShedOnOverload && s.srv.Overloaded() {
			s.admitw[worker].overloadSheds.Add(1)
			s.shed(worker, sc, 0)
			return
		}
		if s.cfg.MaxInflightHeaders > 0 {
			if !s.takeHeaderSlot() {
				s.admitw[worker].headerSheds.Add(1)
				s.shed(worker, sc, 1)
				return
			}
			headerSlot = true
		}
		c = &conn{Conn: sc}
		sc.State = c
	}
	if c.takeover != nil {
		// The connection's protocol was upgraded away from HTTP on an
		// earlier pass: the takeover serves it from here on, still one
		// pass per available input, still on the flow group's owner.
		s.runTakeover(worker, c)
		return
	}
	a := s.arenas[worker]
	ctx := a.acquire()
	ctx.begin(c, worker)
	ctx.headerSlot = headerSlot
	park := s.servePass(ctx)
	hijacked := c.takeover != nil
	ctx.end()
	a.release(ctx)
	if hijacked {
		// The upgrade response has flushed; run the takeover's first
		// pass immediately, on this same worker, with the client's
		// post-upgrade bytes (saved as residual) next in line to read.
		s.runTakeover(worker, c)
		return
	}
	if !park {
		return
	}
	// Input drained: arm the idle deadline (or clear the request read
	// deadline) and hand the connection back. The next request bytes
	// re-route it through the flow table, so a migrated group's
	// connection comes back on the new owning worker. The base is the
	// worker's coarse clock — no time.Now on the park path.
	var dl time.Time
	if s.cfg.IdleTimeout > 0 {
		dl = s.srv.CoarseNow(worker).Add(s.cfg.IdleTimeout)
	}
	sc.SetReadDeadline(dl)
	if !s.srv.Requeue(sc) {
		sc.Close()
	}
}

// shed answers a fresh connection 503-with-Retry-After and closes it,
// tagging the decision (why: 0 overload, 1 header slots) onto the flow
// group's journey.
func (s *Server) shed(worker int, sc *serve.Conn, why int64) {
	port, group := sc.Flow()
	s.srv.RecordGroupEvent(worker, obs.KindShed, group, why, port, 0)
	sc.Write(s.shed503)
	sc.Close()
}

// takeHeaderSlot claims one MaxInflightHeaders slot, CAS-bounded so
// concurrent workers can never overshoot the cap.
func (s *Server) takeHeaderSlot() bool {
	limit := int64(s.cfg.MaxInflightHeaders)
	for {
		n := s.inflightHeaders.Load()
		if n >= limit {
			return false
		}
		if s.inflightHeaders.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// runTakeover runs one takeover pass and parks the connection if asked.
// The takeover owns the read deadline (a parked WebSocket has no idle
// timeout — its keep-alive is protocol-level pings), so unlike the HTTP
// park path the server arms nothing here.
func (s *Server) runTakeover(worker int, c *conn) {
	if c.takeover(worker, c) && !s.srv.Requeue(c.Conn) {
		c.Close()
	}
}

// flushEvery bounds how many pipelined response bytes accumulate before
// a mid-pass write, so deep pipelines don't balloon the write buffer.
const flushEvery = 32 << 10

// servePass serves requests until the connection's buffered input is
// drained (park: true), the protocol says stop, or an error closes the
// connection (park: false). Responses to pipelined requests accumulate
// and flush in one write.
func (s *Server) servePass(ctx *RequestCtx) (park bool) {
	c := ctx.conn
	ow := &s.obsw[ctx.worker]
	for {
		// Every request is timed head-read start -> response flush (or,
		// for a mid-pipeline request, response serialization) and sized;
		// the cost is two clock reads and six atomic adds, all
		// worker-local.
		t0 := obs.Nanos()
		outBefore := int64(ctx.written())
		err := ctx.readRequest()
		if ctx.headerSlot {
			// The fresh connection's first head read is over (parsed or
			// failed): it no longer holds a worker captive on input it
			// has never justified, so its in-flight-headers slot frees.
			ctx.headerSlot = false
			ctx.srv.inflightHeaders.Add(-1)
		}
		if err != nil {
			var pe *protoError
			if errors.As(err, &pe) {
				ctx.writeError(pe)
			} else {
				ctx.flush() // whatever pipelined responses are pending
			}
			ctx.conn.Close()
			return false
		}
		c.reqs++
		ctx.resp.reset()
		s.handler(ctx)
		if ctx.hijack != nil {
			// Protocol upgrade: flush the handler's raw-mode response
			// (the 101), preserve any post-upgrade input the client
			// pipelined, and mark the connection taken over. The copy is
			// once per connection lifetime — the arena buffer the bytes
			// sit in is about to be released.
			if ctx.flush() != nil {
				ctx.conn.Close()
				return false
			}
			if ctx.buffered() > 0 {
				c.residual = append([]byte(nil), ctx.rbuf[ctx.rpos:ctx.rlen]...)
			}
			c.takeover = ctx.hijack
			return false
		}
		closing := ctx.WillClose()
		ctx.appendResponse(closing)
		if closing {
			ctx.flush()
			ow.record(obs.Nanos()-t0, int64(ctx.rpos), int64(ctx.written())-outBefore)
			ctx.conn.Close()
			return false
		}
		if ctx.buffered() == 0 {
			if ctx.flush() != nil {
				ctx.conn.Close()
				return false
			}
			ow.record(obs.Nanos()-t0, int64(ctx.rpos), int64(ctx.written())-outBefore)
			return true
		}
		// Mid-pipeline: the response is serialized but rides a later
		// flush; bill through serialization rather than hold the
		// sample hostage to unrelated pipelined requests.
		ow.record(obs.Nanos()-t0, int64(ctx.rpos), int64(ctx.written())-outBefore)
		// More pipelined input is already buffered: keep serving on
		// this worker, flushing periodically.
		if len(ctx.wbuf) >= flushEvery {
			if ctx.flush() != nil {
				ctx.conn.Close()
				return false
			}
		}
	}
}
