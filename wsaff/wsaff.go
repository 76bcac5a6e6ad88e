// Package wsaff is the long-lived half of the core-local story: an
// RFC 6455 WebSocket layer riding httpaff's upgrade path, built so a
// connection that lives for hours costs the same locality discipline —
// and almost none of the memory — of one that lives for a request.
//
// The paper keeps a connection's packet, protocol and application
// processing on one core for the connection's lifetime; nothing
// stresses "lifetime" like WebSockets, where most sockets are idle
// most of the time. wsaff maps the lifecycle onto the serve layer's
// affinity machinery:
//
//   - The HTTP upgrade runs as an httpaff handler; RequestCtx.Hijack
//     hands the raw connection (plus any frames the client pipelined
//     behind its upgrade request) to wsaff without leaving the worker.
//   - Frame decode/encode run in per-worker codec buffers — the same
//     arena discipline as httpaff's request contexts, so frame memory
//     is touched only by the worker serving the pass.
//   - Between messages the socket parks through serve.Requeue: it holds
//     no worker, no buffer, no timer and no goroutine — just one epoll
//     registration on its owning worker's event loop, which is how a
//     million held-open sockets stay O(workers) goroutines. The next
//     inbound bytes route it through the flow table again, so when
//     §3.3.2 migration re-points its group the socket follows — pings
//     and pongs ride the same path, which keeps even a silent socket's
//     keep-alive traffic core-local.
//   - Fan-out is sharded per worker: a broadcast delivers through each
//     worker's local subscriber set under that shard's own lock, never
//     a process-wide one, and a connection's registration moves shards
//     when its flow group migrates.
//
// The steady-state echo path — park wake, frame decode, handler, frame
// encode, flush, re-park — allocates nothing.
package wsaff

import (
	"errors"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/http11"
	"affinityaccept/serve"
)

// Config parameterizes a WS. OnMessage is required; everything else
// has working defaults.
type Config struct {
	// Workers must match the serving httpaff server's worker count
	// (0 = GOMAXPROCS, the default on both sides). Passes reporting a
	// worker index outside [0, Workers) fail the upgrade with a 500.
	Workers int

	// OnMessage is called once per complete (possibly reassembled)
	// message with OpText or OpBinary. The payload aliases the worker's
	// codec buffer: copy it before retaining. Required.
	OnMessage func(c *Conn, op Op, payload []byte)
	// OnOpen is called once per connection, on the owning worker, after
	// the 101 has flushed and before the first frame is read.
	OnOpen func(c *Conn)
	// OnClose is called exactly once per opened connection with the
	// close code (1005 for a codeless close frame, 1006 for a dead
	// transport). The connection can no longer send.
	OnClose func(c *Conn, code uint16)

	// MaxMessageBytes caps one message — a single frame's payload or a
	// fragmented reassembly (default 1 MiB). Larger closes 1009.
	MaxMessageBytes int

	// PingInterval is the per-worker timer wheel's keep-alive period:
	// a connection with no inbound traffic for this long is pinged
	// (default 30s; negative disables pings).
	PingInterval time.Duration
	// IdleTimeout closes a connection with no inbound traffic — data,
	// pong, anything — for this long (default 2×PingInterval; negative
	// disables). It is armed as the park deadline, so a dead peer is
	// reaped by its worker's event-loop sweep without waking anything.
	IdleTimeout time.Duration
}

func (c *Config) fill() error {
	if c.OnMessage == nil {
		return errors.New("wsaff: Config.OnMessage is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxMessageBytes <= 0 {
		c.MaxMessageBytes = 1 << 20
	}
	if c.PingInterval == 0 {
		c.PingInterval = 30 * time.Second
	}
	if c.IdleTimeout == 0 && c.PingInterval > 0 {
		c.IdleTimeout = 2 * c.PingInterval
	}
	return nil
}

// wsWorker is one worker's private codec state. Like httpaff's arenas
// it needs no lock: serve runs handler passes inline on the worker
// goroutine, so worker i's codec is only ever touched from worker i.
// The counters are atomic solely so Stats can observe them.
type wsWorker struct {
	rbuf     []byte // frame bytes; payloads are unmasked in place here
	abuf     []byte // fragmented-message reassembly
	wbuf     []byte // outbound frames awaiting one flush
	counters serve.PoolCounters
}

// upgradeToken is the Connection option a handshake must carry, in any
// of its Connection fields.
var upgradeToken = []byte("upgrade")

// codecBufSize is each worker codec's initial frame buffer size. The
// buffers grow to the workload's largest message and stay there.
const codecBufSize = 4096

// acquire hands out the worker's codec buffers, counting a reuse when
// they are already warm — the measurement that frame memory stays
// core-local, mirroring the httpaff arena counters.
func (w *wsWorker) acquire() {
	if w.rbuf == nil {
		w.rbuf = make([]byte, codecBufSize)
		w.wbuf = make([]byte, 0, codecBufSize)
		w.counters.Miss()
		return
	}
	w.counters.Reuse()
}

// release sheds a buffer only once it has outgrown the largest message
// readFrames accepts: a maxMsg payload, its frame header, and the
// header's worth of slack readFrames grows by.
func (w *wsWorker) release(maxMsg int) {
	keep := maxMsg + 2*maxHeaderBytes
	if cap(w.rbuf) > keep {
		w.rbuf = make([]byte, codecBufSize)
	}
	if cap(w.wbuf) > keep {
		w.wbuf = make([]byte, 0, codecBufSize)
	}
	if cap(w.abuf) > keep {
		w.abuf = nil
	}
}

// WS is a WebSocket subsystem serving upgrades for one httpaff server.
// Wire (*WS).Upgrade into a route handler; Start the shard loops before
// serving and Close after the HTTP server has shut down.
type WS struct {
	cfg     Config
	workers []wsWorker
	shards  []shard

	open        atomic.Int64 // sockets currently open
	subscribers atomic.Int64 // current broadcast subscriptions

	framesIn   atomic.Uint64
	framesOut  atomic.Uint64
	messagesIn atomic.Uint64
	pingsSent  atomic.Uint64
	pongsRecvd atomic.Uint64
	broadcasts atomic.Uint64
	bcastSent  atomic.Uint64 // per-connection broadcast deliveries
	bcastDrops atomic.Uint64 // shard queue overflows (whole-shard drops)
	closes     atomic.Uint64

	started  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
}

// New creates a WS. Call Start before serving traffic.
func New(cfg Config) (*WS, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ws := &WS{
		cfg:     cfg,
		workers: make([]wsWorker, cfg.Workers),
		shards:  make([]shard, cfg.Workers),
		stopCh:  make(chan struct{}),
	}
	for i := range ws.shards {
		ws.shards[i].init()
	}
	return ws, nil
}

// Start launches the per-worker shard loops (broadcast delivery and the
// ping timer wheel).
func (ws *WS) Start() {
	if !ws.started.CompareAndSwap(false, true) {
		return
	}
	for i := range ws.shards {
		go ws.shardLoop(&ws.shards[i])
	}
}

// Close stops the shard loops and finishes every connection still open
// with a 1001 (going away) close. Call it after the serving httpaff
// server has shut down — its Shutdown closes parked transports, and
// Close is what turns those dead transports into OnClose callbacks.
func (ws *WS) Close() {
	ws.stopOnce.Do(func() { close(ws.stopCh) })
	for i := range ws.shards {
		sh := &ws.shards[i]
		for _, c := range sh.snapshot() {
			c.finish(CloseGoingAway)
		}
	}
}

// Stats is a point-in-time view of the subsystem.
type Stats struct {
	// Open is the number of sockets currently open; Subscribers the
	// current broadcast registrations.
	Open        int64
	Subscribers int64
	// FramesIn/FramesOut count wire frames both ways; MessagesIn counts
	// delivered (reassembled) messages.
	FramesIn, FramesOut, MessagesIn uint64
	// PingsSent counts timer-wheel keep-alives; PongsReceived the
	// replies (each of which rode the full park→route→pass path).
	PingsSent, PongsReceived uint64
	// Broadcasts counts Broadcast calls; Delivered per-connection frame
	// deliveries; Dropped whole-shard queue overflows.
	Broadcasts, Delivered, Dropped uint64
	// Closes counts finished connections.
	Closes uint64
	// Pool aggregates the per-worker codec-buffer counters; Workers
	// holds them per worker. Reuse ≈ 100% is the proof frame memory
	// stayed worker-local.
	Pool    serve.PoolStats
	Workers []serve.PoolStats
}

// Stats snapshots the subsystem's counters.
func (ws *WS) Stats() Stats {
	st := Stats{
		Open:          ws.open.Load(),
		Subscribers:   ws.subscribers.Load(),
		FramesIn:      ws.framesIn.Load(),
		FramesOut:     ws.framesOut.Load(),
		MessagesIn:    ws.messagesIn.Load(),
		PingsSent:     ws.pingsSent.Load(),
		PongsReceived: ws.pongsRecvd.Load(),
		Broadcasts:    ws.broadcasts.Load(),
		Delivered:     ws.bcastSent.Load(),
		Dropped:       ws.bcastDrops.Load(),
		Closes:        ws.closes.Load(),
		Workers:       make([]serve.PoolStats, len(ws.workers)),
	}
	for i := range ws.workers {
		st.Workers[i] = ws.workers[i].counters.Snapshot()
		st.Pool = st.Pool.Add(st.Workers[i])
	}
	return st
}

// Upgrade performs the RFC 6455 server handshake on an httpaff request
// and, on success, hijacks the connection into the WebSocket subsystem:
// the 101 response is serialized in raw mode, OnOpen runs on this same
// worker, and the first frame pass follows immediately. It reports
// whether the upgrade was accepted; on false it has already set an
// error response (400/426/503) and the connection stays HTTP.
func (ws *WS) Upgrade(ctx *httpaff.RequestCtx) bool {
	wid := ctx.Worker()
	if wid < 0 || wid >= len(ws.workers) {
		ctx.SetStatus(http.StatusInternalServerError)
		ctx.WriteString("wsaff: worker index out of range; Config.Workers must match the serving server")
		return false
	}
	if ctx.WillClose() {
		// Draining server, Connection: close request, or the request
		// that exhausted MaxRequestsPerConn: the transport is about to
		// die, so refuse to promise it a long life.
		ctx.SetStatus(http.StatusServiceUnavailable)
		ctx.WriteString("connection is closing; cannot upgrade")
		return false
	}
	if !http11.EqualFold(ctx.Method(), "get") ||
		!http11.EqualFold(ctx.Header("upgrade"), "websocket") ||
		!ctx.ConnectionNominates(upgradeToken) {
		ctx.SetStatus(http.StatusBadRequest)
		ctx.WriteString("not a websocket upgrade")
		return false
	}
	if !http11.EqualFold(ctx.Header("sec-websocket-version"), "13") {
		ctx.SetStatus(http.StatusUpgradeRequired)
		ctx.SetHeader("Sec-WebSocket-Version", "13")
		return false
	}
	key := ctx.Header("sec-websocket-key")
	if len(key) == 0 {
		ctx.SetStatus(http.StatusBadRequest)
		ctx.WriteString("missing Sec-WebSocket-Key")
		return false
	}

	ctx.BeginRawResponse()
	ctx.RawWriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: ")
	ctx.RawWrite(appendAcceptKey(nil, key))
	ctx.RawWriteString("\r\n\r\n")

	c := &Conn{
		ws:     ws,
		tc:     ctx.NetConn().(transport),
		remote: ctx.RemoteAddr(),
		shard:  int32(wid),
	}
	c.lastActive.Store(time.Now().UnixNano())
	// Registration (shard membership, the open gauge, OnOpen) happens
	// on the first takeover pass, not here: the 101 has not flushed yet
	// — if the flush fails the takeover is never installed, and a conn
	// registered now would leak in the shard with OnOpen never called.
	// The takeover closure is the connection's one steady-state
	// allocation beyond the Conn itself, made once per lifetime.
	//
	// A parked socket the serve layer closes — shed LIFO under
	// descriptor or budget pressure, or the peer vanished mid-park —
	// would otherwise sit dead in its shard until the ping wheel's
	// probe failed; the park-close notification reaps it immediately,
	// so the shard gauge and OnClose track shedding in real time.
	ctx.NotifyParkClose(func() { c.finish(CloseAbnormal) })
	ctx.Hijack(func(worker int, _ net.Conn) bool { return ws.pass(worker, c) })
	return true
}
