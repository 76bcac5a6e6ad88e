// Package proxyaff is the outbound half of the core-local story: an
// HTTP/1.1 reverse proxy that runs as an httpaff handler, where every
// serve worker owns a private pool of upstream connections.
//
// The paper's thesis is that a connection's entire lifetime should stay
// on one core. The serve and httpaff layers achieve that for the
// inbound half — accept, steal/migrate, parse, respond — but a
// production edge also fronts backends, and a conventional proxy
// (net/http/httputil's ReverseProxy over a shared Transport) scatters
// the outbound half: any worker can dial, any worker can check a pooled
// upstream connection out of the process-wide idle list, and the
// response bytes funnel through goroutines the scheduler places
// wherever it likes. proxyaff instead gives worker i its own
// upstreamPool: the dial, the keep-alive reuse, the request forwarding
// and the response relay for a request served on worker i all happen
// inline on worker i's goroutine, touching only worker-i-owned memory.
// When §3.3.2 migration moves a client's flow group to a new worker,
// the next request is proxied through the new worker's pool — the
// connection moved, and both the request memory (httpaff's arena) and
// the upstream socket it is served through are warm on the new core.
//
// The relay path allocates nothing in the steady state: request heads
// are built in a per-worker scratch buffer, upstream heads are read
// into another, and body bytes are read from the backend directly into
// the downstream connection's response buffer (httpaff's raw-response
// hooks), streaming in bounded chunks for large bodies.
package proxyaff

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/http11"
	"affinityaccept/internal/obs"
	"affinityaccept/internal/stats"
)

// Policy selects how a worker picks the backend for a request.
type Policy int

const (
	// RoundRobin rotates each worker through the backend list
	// independently (no shared cursor — a process-wide atomic counter
	// would be exactly the kind of cross-core cache-line traffic this
	// package exists to avoid).
	RoundRobin Policy = iota
	// WorkerPinned makes worker w prefer backend w % len(Backends), so
	// a given backend is fed by a stable subset of workers and each
	// worker's pool concentrates on one backend — the placement that
	// maximizes upstream connection reuse. Unhealthy backends fall
	// through to the next in order.
	WorkerPinned
)

// Config parameterizes a Proxy. Backends is required; everything else
// has working defaults.
type Config struct {
	// Backends are the upstream addresses ("host:port"). Required.
	Backends []string

	// Policy selects the backend-picking policy (default RoundRobin).
	Policy Policy

	// Workers must match the serving httpaff server's worker count
	// (0 = GOMAXPROCS, the default on both sides). Requests reporting a
	// worker index outside [0, Workers) are answered 500 — serving them
	// from another worker's pool would race its single-owner state.
	Workers int

	// DialTimeout bounds a cold checkout's dial (default 1s).
	DialTimeout time.Duration
	// ExchangeTimeout bounds one full upstream round trip — write,
	// response head, body (0 = the 30s default; negative = no deadline,
	// for long-lived streaming responses). Expiry answers 504 before the
	// head is committed, truncation + close after.
	ExchangeTimeout time.Duration

	// MaxConnsPerBackend caps each worker's open connections per
	// backend (default 64); checkouts beyond it are answered 503.
	MaxConnsPerBackend int

	// EjectAfter is the consecutive-failure count that passively ejects
	// a backend (default 2); EjectFor is how long it stays ejected
	// before the next request to it becomes the re-probe (default 1s).
	EjectAfter int
	EjectFor   time.Duration

	// MaxResponseHeaderBytes bounds an upstream response head (default
	// 8192); larger heads are answered 502.
	MaxResponseHeaderBytes int
}

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return errors.New("proxyaff: Config.Backends is required")
	}
	for _, b := range c.Backends {
		if b == "" {
			return errors.New("proxyaff: empty backend address")
		}
	}
	if c.Policy != RoundRobin && c.Policy != WorkerPinned {
		return fmt.Errorf("proxyaff: unknown policy %d", c.Policy)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.ExchangeTimeout == 0 {
		c.ExchangeTimeout = 30 * time.Second
	} else if c.ExchangeTimeout < 0 {
		c.ExchangeTimeout = 0 // explicit opt-out: no deadline
	}
	if c.MaxConnsPerBackend <= 0 {
		c.MaxConnsPerBackend = 64
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.EjectFor <= 0 {
		c.EjectFor = time.Second
	}
	if c.MaxResponseHeaderBytes <= 0 {
		c.MaxResponseHeaderBytes = 8192
	}
	return nil
}

// backendState is one backend's shared health record. The atomics are
// the only cross-worker state in the package, and they are read-mostly:
// a healthy backend costs two loads per request.
type backendState struct {
	addr         string
	fails        atomic.Uint32 // consecutive failures
	ejectedUntil atomic.Int64  // unix nanos; 0 = healthy
	ejections    atomic.Uint64 // times passively ejected
}

func (b *backendState) ejected(now int64) bool { return b.ejectedUntil.Load() > now }

// proxyWorker is one worker's private proxy state: its upstream pool
// and the scratch buffers the relay path reuses across requests. Both
// scratch buffers are kept at whatever size the workload grew them to;
// neither can outgrow what the layers already refuse on input — hbuf
// stops doubling at MaxResponseHeaderBytes, and rbuf holds one rewritten
// request head (httpaff's MaxHeaderBytes) plus at most appendBodyMax of
// body; bodies stream through the RequestCtx's write buffer.
type proxyWorker struct {
	pool upstreamPool
	rr   uint32 // RoundRobin cursor, worker-local
	hbuf []byte // upstream response head buffer
	rbuf []byte // upstream request head buffer

	// exch is the worker's upstream exchange-latency histogram: backend
	// pick to response relayed, dial included.
	exch *obs.Hist
}

// Proxy is an httpaff handler (use (*Proxy).Serve as Config.Handler or
// mount it on a Router path) that forwards requests to the configured
// backends through per-worker upstream connection pools.
type Proxy struct {
	cfg      Config
	backends []backendState
	workers  []proxyWorker
	tunnels  atomic.Int64  // 101 upgrades currently being relayed
	tunneled atomic.Uint64 // 101 upgrades relayed, lifetime
}

// New creates a Proxy. Wire p.Serve as the httpaff handler and
// p.PoolSnapshot as httpaff.Config.WorkerUpstream so serve.Stats
// carries the upstream pool counters.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:      cfg,
		backends: make([]backendState, len(cfg.Backends)),
		workers:  make([]proxyWorker, cfg.Workers),
	}
	for i := range p.backends {
		p.backends[i].addr = cfg.Backends[i]
	}
	for i := range p.workers {
		w := &p.workers[i]
		w.pool.init(cfg.DialTimeout, maxIdlePerBackend, cfg.MaxConnsPerBackend)
		w.hbuf = make([]byte, 4096)
		w.rbuf = make([]byte, 0, 1024)
		w.exch = obs.NewHist(obs.DefaultSubBits)
	}
	return p, nil
}

// PoolSnapshot reports one worker's upstream pool counters; wire it as
// httpaff.Config.WorkerUpstream. Out-of-range workers (a serve/proxy
// worker-count mismatch) report a zero snapshot rather than panicking
// inside a Stats call — Serve answers the same mismatch with a 500.
func (p *Proxy) PoolSnapshot(worker int) stats.PoolSnapshot {
	if worker < 0 || worker >= len(p.workers) {
		return stats.PoolSnapshot{}
	}
	return p.workers[worker].pool.counters.Snapshot()
}

// BackendStats is one backend's health view.
type BackendStats struct {
	Addr string
	// Ejected reports the backend is currently passively ejected;
	// ConsecutiveFails and Ejections are its failure history.
	Ejected          bool
	ConsecutiveFails uint32
	Ejections        uint64
}

// Stats is a point-in-time view of the proxy: aggregate and per-worker
// upstream pool counters, per-backend health, and the upgrade-tunnel
// counters.
type Stats struct {
	Pool     stats.PoolSnapshot
	Workers  []stats.PoolSnapshot
	Backends []BackendStats
	// ActiveTunnels is the number of 101 upgrade tunnels relaying right
	// now (each occupies its worker); Tunneled counts them lifetime.
	ActiveTunnels int64
	Tunneled      uint64
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	st := Stats{
		Workers:       make([]stats.PoolSnapshot, len(p.workers)),
		Backends:      make([]BackendStats, len(p.backends)),
		ActiveTunnels: p.tunnels.Load(),
		Tunneled:      p.tunneled.Load(),
	}
	for i := range p.workers {
		st.Workers[i] = p.workers[i].pool.counters.Snapshot()
		st.Pool = st.Pool.Add(st.Workers[i])
	}
	now := time.Now().UnixNano()
	for i := range p.backends {
		b := &p.backends[i]
		st.Backends[i] = BackendStats{
			Addr:             b.addr,
			Ejected:          b.ejected(now),
			ConsecutiveFails: b.fails.Load(),
			Ejections:        b.ejections.Load(),
		}
	}
	return st
}

// Close closes every pooled upstream connection. The pools are
// worker-owned, so call this only once the serving httpaff server has
// shut down and no handler can run.
func (p *Proxy) Close() {
	for i := range p.workers {
		p.workers[i].pool.closeAll()
	}
}

// pick selects the backend for a request on worker wid: the policy's
// preferred backend, falling through ejected ones in order. When every
// backend is ejected the preferred one is picked anyway — with nothing
// healthy the request doubles as the earliest possible re-probe.
func (p *Proxy) pick(w *proxyWorker, wid int, now int64) *backendState {
	n := len(p.backends)
	var start int
	if p.cfg.Policy == WorkerPinned {
		start = wid % n
	} else {
		start = int(w.rr % uint32(n))
		w.rr++
	}
	for i := 0; i < n; i++ {
		if b := &p.backends[(start+i)%n]; !b.ejected(now) {
			return b
		}
	}
	return &p.backends[start]
}

// fail records a backend failure; crossing EjectAfter ejects it for
// EjectFor. The first request after the window expires is the re-probe:
// success clears the record, another failure re-ejects immediately.
func (p *Proxy) fail(b *backendState) {
	if int(b.fails.Add(1)) >= p.cfg.EjectAfter {
		b.ejectedUntil.Store(time.Now().Add(p.cfg.EjectFor).UnixNano())
		b.ejections.Add(1)
	}
}

// ok clears a backend's failure record. Loads before stores keep the
// healthy steady state read-only on the shared cache line.
func (p *Proxy) ok(b *backendState) {
	if b.fails.Load() != 0 {
		b.fails.Store(0)
	}
	if b.ejectedUntil.Load() != 0 {
		b.ejectedUntil.Store(0)
	}
}

func respondError(ctx *httpaff.RequestCtx, code int, msg string) {
	ctx.SetStatus(code)
	ctx.WriteString(msg)
}

// badGateway discards the upstream connection, charges the backend a
// failure, and answers 502 — the shared exit for every "the backend
// spoke something we cannot relay" path in exchange. A method rather
// than a closure so the happy path does not allocate one per request.
func (p *Proxy) badGateway(ctx *httpaff.RequestCtx, w *proxyWorker, uc *upstreamConn, b *backendState, msg string) (done, retry bool, ferr error) {
	w.pool.put(uc, false)
	p.fail(b)
	respondError(ctx, http.StatusBadGateway, msg)
	return true, false, nil
}

// respondUpstreamError maps an upstream transport failure to 504
// (deadline) or 502 (everything else).
func respondUpstreamError(ctx *httpaff.RequestCtx, err error) {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		respondError(ctx, http.StatusGatewayTimeout, "upstream timed out")
		return
	}
	respondError(ctx, http.StatusBadGateway, "upstream failed")
}

// Serve proxies one parsed request: pick a backend, check a connection
// out of the worker's pool, forward, relay. It runs inline on the serve
// worker goroutine — that inlining is what lets all of its state be
// lock-free and worker-local.
func (p *Proxy) Serve(ctx *httpaff.RequestCtx) {
	wid := ctx.Worker()
	if wid < 0 || wid >= len(p.workers) {
		respondError(ctx, http.StatusInternalServerError,
			"proxyaff: worker index out of range; Config.Workers must match the serving server")
		return
	}
	w := &p.workers[wid]

	// Two attempts: a reused connection the liveness peek passed can
	// still lose the race with a backend close; if it dies before
	// yielding a single response byte the request is provably unserved
	// and safe to repeat on a fresh connection. A failed fresh dial
	// also consumes an attempt, re-picking around the ejection.
	// The worker's coarse clock (stamped once per event-loop iteration)
	// serves both the ejection-window checks and the exchange deadline:
	// no per-request time.Now in the proxy hot path.
	now := ctx.CoarseNow()
	t0 := obs.Nanos()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		b := p.pick(w, wid, now.UnixNano())
		uc, reused, err := w.pool.get(b.addr)
		if err == errPoolExhausted {
			respondError(ctx, http.StatusServiceUnavailable, "upstream pool exhausted")
			return
		}
		if err != nil { // dial failure
			p.fail(b)
			lastErr = err
			continue
		}
		done, retry, err := p.exchange(ctx, w, uc, b, reused)
		if done {
			w.exch.Record(obs.Nanos() - t0)
			return
		}
		lastErr = err
		if !retry {
			break
		}
		// The reused conn was stale; its idle siblings date from the
		// same era (a backend restart kills them together), so flush
		// them and let the retry dial fresh.
		w.pool.flushIdle(b.addr)
	}
	if lastErr != nil {
		respondUpstreamError(ctx, lastErr)
		return
	}
	respondError(ctx, http.StatusBadGateway, "no backend available")
}

// relayChunk bounds one body-read from the upstream; relayFlushEvery
// bounds how many relayed bytes accumulate before a mid-stream flush to
// the client, so large responses stream instead of ballooning the
// buffer. appendBodyMax bounds the request bodies copied into the head
// write — one syscall instead of two — before a separate write becomes
// cheaper than the copy.
const (
	relayChunk      = 32 << 10
	relayFlushEvery = 32 << 10
	appendBodyMax   = 16 << 10
)

// exchange forwards ctx's request over uc and relays the response.
// done reports that a response (success or proxy error) was written;
// retry — only ever with done false — that nothing was sent downstream
// and the failure was a stale reused connection, safe to repeat.
func (p *Proxy) exchange(ctx *httpaff.RequestCtx, w *proxyWorker, uc *upstreamConn, b *backendState, reused bool) (done, retry bool, ferr error) {
	if p.cfg.ExchangeTimeout > 0 {
		uc.c.SetDeadline(ctx.CoarseNow().Add(p.cfg.ExchangeTimeout))
	}

	// ---- forward: request line + non-hop-by-hop headers, verbatim ----
	head := w.rbuf[:0]
	head = append(head, ctx.Method()...)
	head = append(head, ' ')
	head = append(head, ctx.URI()...)
	head = append(head, " HTTP/1.1\r\n"...)
	reqConn := ctx.Header("connection") // tokens here nominate more hop-by-hop headers
	// An Upgrade request (Connection: Upgrade + an Upgrade header) asks
	// this hop to become a dumb pipe: the Upgrade header survives the
	// hop-by-hop strip and a fresh Connection: Upgrade is emitted, so
	// the backend sees the same handshake the client sent (RFC 9110
	// §7.8). A 101 answer then switches the exchange to tunnel relay.
	isUpgrade := len(ctx.Header("upgrade")) > 0 && http11.TokenListContains(reqConn, "upgrade")
	for i, n := 0, ctx.HeaderCount(); i < n; i++ {
		k, v := ctx.HeaderAt(i)
		// Expect is stripped alongside the hop-by-hop set: httpaff has
		// already buffered the full body before the handler ran, so the
		// 100-continue handshake is settled — and forwarding it would
		// make the backend emit an interim response the relay refuses.
		// Headers the client's Connection header nominates are likewise
		// consumed by this hop (RFC 9110 §7.6.1).
		if isUpgrade && http11.EqualFold(k, "upgrade") {
			// Re-emitted below alongside Connection: Upgrade.
		} else if hopByHop(k) || http11.EqualFold(k, "expect") ||
			(len(reqConn) > 0 && http11.TokenListContains(reqConn, k)) {
			continue
		}
		head = append(head, k...)
		head = append(head, ": "...)
		head = append(head, v...)
		head = append(head, '\r', '\n')
	}
	if isUpgrade {
		head = append(head, "Connection: Upgrade\r\n"...)
	}
	head = append(head, '\r', '\n')
	// Small bodies ride in the head's write so the request goes out in
	// one syscall; large ones keep their own write to skip the copy.
	body := ctx.Body()
	if len(body) > 0 && len(head)+len(body) <= appendBodyMax {
		head = append(head, body...)
		body = nil
	}
	w.rbuf = head
	// A failure on a *reused* connection is a stale-conn symptom, not
	// backend ill-health (no fail charge) — but only idempotent methods
	// may be replayed on a fresh connection: the write reaching the
	// backend does not prove the request was not processed.
	replayable := reused && idempotentMethod(ctx.Method())
	if _, err := uc.c.Write(head); err != nil {
		w.pool.put(uc, false)
		if reused {
			return false, replayable, err
		}
		p.fail(b)
		return false, false, err
	}
	if len(body) > 0 {
		if _, err := uc.c.Write(body); err != nil {
			w.pool.put(uc, false)
			if reused {
				return false, replayable, err
			}
			p.fail(b)
			return false, false, err
		}
	}

	// ---- response head ----
	hbuf := w.hbuf
	n, scan, headerEnd := 0, 0, -1
	for headerEnd < 0 {
		if n > scan {
			if i := bytes.Index(hbuf[scan:n], crlfCRLF); i >= 0 {
				headerEnd = scan + i + 4
				break
			}
			if scan = n - 3; scan < 0 {
				scan = 0
			}
		}
		if n >= p.cfg.MaxResponseHeaderBytes {
			w.pool.put(uc, false)
			p.fail(b)
			respondError(ctx, http.StatusBadGateway, "upstream response head too large")
			return true, false, nil
		}
		if n == len(hbuf) {
			nb := make([]byte, 2*len(hbuf))
			copy(nb, hbuf[:n])
			hbuf = nb
			w.hbuf = hbuf
		}
		m, err := uc.c.Read(hbuf[n:])
		n += m
		if err != nil && m == 0 {
			w.pool.put(uc, false)
			if n == 0 && reused {
				// Stale pooled connection, nothing received: repeat the
				// request — if its method makes a repeat safe.
				return false, replayable, err
			}
			p.fail(b)
			return false, false, err
		}
	}

	// ---- parse framing ----
	statusLine, rest := nextLine(hbuf[:headerEnd-2])
	code, upKeepAlive, okLine := parseStatusLine(statusLine)
	if okLine && code == 101 && isUpgrade {
		return p.tunnel(ctx, w, uc, b, hbuf[:headerEnd], hbuf[headerEnd:n])
	}
	if !okLine || code < 200 {
		// 1xx interim responses (and a 101 nobody asked for) are a
		// feature the proxy neither requests (no Expect forwarding of
		// its own) nor relays.
		return p.badGateway(ctx, w, uc, b, "unparseable upstream response")
	}
	var contentLength int64 = -1
	var upConn []byte // the upstream Connection value: nominates more hop-by-hop headers
	for hdr := rest; len(hdr) > 0; {
		var line []byte
		line, hdr = nextLine(hdr)
		if len(line) == 0 {
			continue
		}
		col := -1
		for i, c := range line {
			if c == ':' {
				col = i
				break
			}
		}
		if col <= 0 {
			return p.badGateway(ctx, w, uc, b, "malformed upstream header")
		}
		key := http11.TrimOWS(line[:col])
		val := http11.TrimOWS(line[col+1:])
		switch {
		case http11.EqualFold(key, "content-length"):
			if contentLength >= 0 {
				return p.badGateway(ctx, w, uc, b, "duplicate upstream Content-Length")
			}
			v, okCL := parseContentLength(val)
			if !okCL {
				return p.badGateway(ctx, w, uc, b, "bad upstream Content-Length")
			}
			contentLength = v
		case http11.EqualFold(key, "connection"):
			if upConn == nil {
				upConn = val
			}
			// The value is a token list ("close, TE"), not one token.
			if http11.TokenListContains(val, "close") {
				upKeepAlive = false
			} else if http11.TokenListContains(val, "keep-alive") {
				upKeepAlive = true
			}
		case http11.EqualFold(key, "transfer-encoding"):
			// Chunked framing is self-delimiting only to a parser; the
			// relay would have to decode it to know when the upstream
			// connection is clean again. httpaff backends never chunk.
			return p.badGateway(ctx, w, uc, b, "upstream Transfer-Encoding not supported")
		}
	}

	leftover := hbuf[headerEnd:n]
	noBody := code == 204 || code == 304 || http11.EqualFold(ctx.Method(), "head")
	closeDelimited := contentLength < 0 && !noBody
	willClose := closeDelimited || ctx.WillClose()

	// ---- relay: from here the response is committed downstream ----
	ctx.BeginRawResponse()
	if willClose {
		ctx.SetConnectionClose()
	}
	ctx.RawWrite(hbuf[:len(statusLine)+2])
	for hdr := rest; len(hdr) > 0; {
		var line []byte
		line, hdr = nextLine(hdr)
		if len(line) == 0 {
			continue
		}
		col := 0
		for line[col] != ':' {
			col++
		}
		key := http11.TrimOWS(line[:col])
		if hopByHop(key) || (len(upConn) > 0 && http11.TokenListContains(upConn, key)) {
			continue
		}
		ctx.RawWrite(line)
		ctx.RawWrite(crlf)
	}
	if willClose {
		ctx.RawWriteString("Connection: close\r\n")
	}
	ctx.RawWrite(crlf)

	if noBody {
		w.pool.put(uc, upKeepAlive && len(leftover) == 0)
		p.ok(b)
		return true, false, nil
	}

	if contentLength >= 0 {
		remain := contentLength
		take := int(min(int64(len(leftover)), remain))
		ctx.RawWrite(leftover[:take])
		remain -= int64(take)
		overread := len(leftover) - take // upstream sent beyond its framing
		for remain > 0 {
			buf := ctx.RawBuffer(int(min(remain, relayChunk)))
			if int64(len(buf)) > remain {
				buf = buf[:remain]
			}
			m, err := uc.c.Read(buf)
			if m > 0 {
				ctx.RawAdvance(m)
				remain -= int64(m)
			}
			if err != nil && m == 0 {
				// Mid-body failure: the head is already committed, so
				// the only honest signal left is truncation + close.
				w.pool.put(uc, false)
				p.fail(b)
				ctx.SetConnectionClose()
				return true, false, nil
			}
			if ctx.RawBuffered() >= relayFlushEvery {
				if ctx.RawFlush() != nil {
					w.pool.put(uc, false)
					ctx.SetConnectionClose()
					return true, false, nil
				}
			}
		}
		w.pool.put(uc, upKeepAlive && overread == 0)
		p.ok(b)
		return true, false, nil
	}

	// Close-delimited body: stream until upstream EOF; the downstream
	// response is close-delimited too (Connection: close sent above).
	// (The 101 tunnel takes its own path, in tunnel, before this.)
	ctx.RawWrite(leftover)
	for {
		buf := ctx.RawBuffer(relayChunk)
		m, err := uc.c.Read(buf)
		if m > 0 {
			ctx.RawAdvance(m)
		}
		if err != nil {
			break // EOF ends the body; other errors truncate it, same signal
		}
		if ctx.RawBuffered() >= relayFlushEvery {
			if ctx.RawFlush() != nil {
				break
			}
		}
	}
	w.pool.put(uc, false)
	p.ok(b)
	return true, false, nil
}

// tunnel relays a 101 Switching Protocols exchange: the upgrade head is
// forwarded verbatim (its Connection/Upgrade headers ARE the payload of
// the handshake) and from then on the proxy is a dumb pipe between the
// two sockets. The upstream→downstream direction pumps inline on the
// worker goroutine — the same worker that owns the client's flow group,
// so the byte relay inherits the inbound half's core locality — while
// one auxiliary goroutine pumps downstream→upstream. The tunnel
// occupies its worker for the connection's lifetime: a proxy expecting
// many concurrent upgrades should run with correspondingly more
// workers, or terminate WebSockets at the edge (the wsaff layer)
// instead of tunneling them.
func (p *Proxy) tunnel(ctx *httpaff.RequestCtx, w *proxyWorker, uc *upstreamConn, b *backendState, head, leftover []byte) (done, retry bool, ferr error) {
	ctx.BeginRawResponse()
	ctx.SetConnectionClose() // this transport never returns to HTTP
	ctx.RawWrite(head)
	ctx.RawWrite(leftover) // frames the backend pipelined behind its 101
	if ctx.RawFlush() != nil {
		w.pool.put(uc, false)
		return true, false, nil
	}
	p.ok(b)
	p.tunnels.Add(1)
	p.tunneled.Add(1)
	defer p.tunnels.Add(-1)

	// The tunnel pins the upstream leg's descriptor for the client
	// connection's whole lifetime — a load the accept-side connection
	// budget cannot see, since it only counts accepted sockets. Charge
	// the leg explicitly: oversubscription sheds parked connections
	// LIFO, exactly as if the leg had arrived through accept.
	if t := ctx.Server().Transport(); t != nil {
		t.ChargeConn(1)
		defer t.ChargeConn(-1)
	}

	down := ctx.NetConn()
	// The exchange deadline bounded the handshake; the tunnel lives as
	// long as the application protocol keeps it, and liveness is that
	// protocol's business (WebSocket ping/pong), not this hop's.
	uc.c.SetDeadline(time.Time{})
	down.SetReadDeadline(time.Time{})
	// Frames the client pipelined behind its upgrade request were
	// buffered by the HTTP layer; relay them before fresh reads.
	if res := ctx.Residual(); len(res) > 0 {
		if _, err := uc.c.Write(res); err != nil {
			w.pool.put(uc, false)
			return true, false, nil
		}
	}

	pumpDone := make(chan struct{})
	go func() {
		// Downstream→upstream. The buffer is per-tunnel (one allocation
		// per upgrade, amortized over the connection's lifetime) because
		// this goroutine outlives any worker scratch ownership.
		defer close(pumpDone)
		buf := make([]byte, relayChunk)
		for {
			n, err := down.Read(buf)
			if n > 0 {
				if _, werr := uc.c.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		uc.c.Close() // unblock the inline direction
	}()
	// Upstream→downstream, inline on the worker, through its scratch
	// buffer — the tunnel occupies the worker, so the scratch is free.
	buf := w.hbuf
	for {
		n, err := uc.c.Read(buf)
		if n > 0 {
			if _, werr := down.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	down.Close() // unblock the pump
	uc.c.Close()
	<-pumpDone
	w.pool.put(uc, false)
	return true, false, nil
}
