package httpaff

import (
	"net"
	"net/http"
	"strconv"
	"time"

	"affinityaccept/internal/http11"
)

// headerField is one parsed request header; key and value alias the
// context's read buffer (zero-copy) and are valid only for the handler
// call.
type headerField struct {
	key, val []byte
}

// request is the parsed view of one HTTP/1.1 request. Every byte slice
// aliases the context's read buffer.
type request struct {
	method, uri, proto []byte
	path, query        []byte
	headers            []headerField
	body               []byte
	contentLength      int
	keepAlive          bool
}

func (r *request) reset() {
	r.method, r.uri, r.proto = nil, nil, nil
	r.path, r.query, r.body = nil, nil, nil
	r.headers = r.headers[:0]
	r.contentLength = 0
	r.keepAlive = false
}

// response accumulates what the handler sets; serialization happens
// once, after the handler returns — unless the handler switched to raw
// mode (BeginRawResponse), in which case it has already appended a
// complete serialized response and the server adds nothing.
type response struct {
	status      int
	contentType string
	extra       []byte // raw "Key: Value\r\n" lines from SetHeader
	body        []byte
	connClose   bool
	raw         bool // handler wrote pre-serialized bytes via RawWrite
}

func (r *response) reset() {
	r.status = http.StatusOK
	r.contentType = "text/plain; charset=utf-8"
	r.extra = r.extra[:0]
	r.body = r.body[:0]
	r.connClose = false
	r.raw = false
}

// RequestCtx carries one request/response exchange. Contexts are pooled
// in per-worker arenas: a handler must not retain the ctx or any byte
// slice obtained from it past its return — copy what must outlive the
// request.
type RequestCtx struct {
	srv    *Server
	conn   *conn // the connection and its HTTP state, the same value every pass
	worker int

	rbuf []byte // request bytes; req slices alias this
	rlen int    // valid bytes in rbuf
	rpos int    // consumed bytes (start of the next pipelined request)

	wbuf    []byte // serialized responses awaiting one flush
	flushed int    // response bytes already written this pass

	req  request
	resp response

	// hijack, set by Hijack, is the takeover that replaces HTTP serving
	// on this connection once the current response has flushed.
	hijack TakeoverFunc

	// headerSlot is true while this pass holds one of the server's
	// MaxInflightHeaders slots (a fresh connection's first head read);
	// servePass releases it as soon as that read returns.
	headerSlot bool
}

func (ctx *RequestCtx) begin(c *conn, worker int) {
	ctx.conn, ctx.worker = c, worker
}

func (ctx *RequestCtx) end() {
	ctx.conn = nil
	ctx.rlen, ctx.rpos = 0, 0
	ctx.wbuf = ctx.wbuf[:0]
	ctx.flushed = 0
	ctx.req.reset()
	ctx.resp.reset()
	ctx.hijack = nil
	ctx.headerSlot = false
}

// buffered reports how many unconsumed request bytes are sitting in the
// read buffer — nonzero means the client pipelined further requests.
func (ctx *RequestCtx) buffered() int { return ctx.rlen - ctx.rpos }

// flush writes the accumulated responses in one syscall.
func (ctx *RequestCtx) flush() error {
	if len(ctx.wbuf) == 0 {
		return nil
	}
	ctx.flushed += len(ctx.wbuf)
	_, err := ctx.conn.Write(ctx.wbuf)
	ctx.wbuf = ctx.wbuf[:0]
	return err
}

// written reports the response bytes produced so far this pass — flushed
// plus still-buffered — so a delta across one request isolates that
// request's response size even under pipelining.
func (ctx *RequestCtx) written() int { return ctx.flushed + len(ctx.wbuf) }

// ---- request accessors (zero-copy; valid during the handler call) ----

// Method returns the request method verbatim (e.g. "GET").
func (ctx *RequestCtx) Method() []byte { return ctx.req.method }

// Path returns the request target up to any '?'.
func (ctx *RequestCtx) Path() []byte { return ctx.req.path }

// Query returns the raw query string after '?', or nil.
func (ctx *RequestCtx) Query() []byte { return ctx.req.query }

// URI returns the full request target.
func (ctx *RequestCtx) URI() []byte { return ctx.req.uri }

// Protocol returns the request's HTTP version token.
func (ctx *RequestCtx) Protocol() []byte { return ctx.req.proto }

// Body returns the request body, or nil.
func (ctx *RequestCtx) Body() []byte { return ctx.req.body }

// Header returns the value of the named request header (ASCII
// case-insensitive; name must be lowercase), or nil.
func (ctx *RequestCtx) Header(name string) []byte {
	for i := range ctx.req.headers {
		if http11.EqualFold(ctx.req.headers[i].key, name) {
			return ctx.req.headers[i].val
		}
	}
	return nil
}

// Worker reports which worker is serving this pass — with migration
// enabled, successive requests on one connection may report different
// workers exactly once per flow-group migration. Layers that keep
// per-worker state of their own (the proxyaff upstream pools) index it
// by this value, which is what makes their lock-free single-owner
// structures sound: the handler runs inline on the worker goroutine.
func (ctx *RequestCtx) Worker() int { return ctx.worker }

// HeaderCount reports how many request headers were parsed; with
// HeaderAt it lets a handler walk every header without allocating a
// visitor closure.
func (ctx *RequestCtx) HeaderCount() int { return len(ctx.req.headers) }

// HeaderAt returns the i'th request header's key and value in arrival
// order. Both slices alias the read buffer: valid only during the
// handler call. i must be in [0, HeaderCount()).
func (ctx *RequestCtx) HeaderAt(i int) (key, value []byte) {
	h := &ctx.req.headers[i]
	return h.key, h.val
}

// RequestNum reports how many requests this connection has served,
// including the current one.
func (ctx *RequestCtx) RequestNum() int { return ctx.conn.reqs }

// RemoteAddr reports the client address.
func (ctx *RequestCtx) RemoteAddr() net.Addr { return ctx.conn.RemoteAddr() }

// ---- response construction ----

// SetStatus sets the response status code (default 200).
func (ctx *RequestCtx) SetStatus(code int) { ctx.resp.status = code }

// SetContentType sets the Content-Type header (default "text/plain;
// charset=utf-8").
func (ctx *RequestCtx) SetContentType(ct string) { ctx.resp.contentType = ct }

// SetHeader adds a response header. Content-Type, Content-Length,
// Server, Date and Connection are managed by the server; use
// SetContentType / SetConnectionClose for the ones that are settable.
func (ctx *RequestCtx) SetHeader(key, value string) {
	b := ctx.resp.extra
	b = append(b, key...)
	b = append(b, ": "...)
	b = append(b, value...)
	ctx.resp.extra = append(b, '\r', '\n')
}

// Write appends to the response body; RequestCtx is an io.Writer.
func (ctx *RequestCtx) Write(p []byte) (int, error) {
	ctx.resp.body = append(ctx.resp.body, p...)
	return len(p), nil
}

// WriteString appends to the response body.
func (ctx *RequestCtx) WriteString(s string) (int, error) {
	ctx.resp.body = append(ctx.resp.body, s...)
	return len(s), nil
}

// SetConnectionClose makes this response the connection's last.
func (ctx *RequestCtx) SetConnectionClose() { ctx.resp.connClose = true }

// WillClose reports whether the server will close the connection after
// the current response regardless of anything else the handler does:
// the client asked for close, the server is draining, the connection
// hit MaxRequestsPerConn, or the handler already called
// SetConnectionClose. Raw-mode handlers (reverse proxies) consult this
// to emit a matching Connection header in the bytes they serialize
// themselves.
func (ctx *RequestCtx) WillClose() bool {
	s := ctx.srv
	return ctx.resp.connClose || !ctx.req.keepAlive || s.draining.Load() ||
		(s.cfg.MaxRequestsPerConn > 0 && ctx.conn.reqs >= s.cfg.MaxRequestsPerConn)
}

// ---- raw responses ----
//
// A raw-mode handler bypasses the server's serializer: it appends a
// complete, correctly framed HTTP/1.1 response (status line, headers,
// CRLF, body) straight onto the connection's write buffer. This is the
// hook the proxyaff layer relays upstream responses through — the bytes
// read from a backend go into the downstream buffer with one copy and
// no intermediate objects. The handler owns the framing: the response
// must carry Content-Length (or a Connection: close header matching
// WillClose/SetConnectionClose for a close-delimited body), because the
// server appends nothing after the handler returns.

// BeginRawResponse switches the current exchange to raw mode. After the
// call the server will not serialize the ctx's status/header/body state;
// everything sent for this request must go through RawWrite, RawBuffer
// or RawFlush.
func (ctx *RequestCtx) BeginRawResponse() { ctx.resp.raw = true }

// RawWrite appends pre-serialized response bytes to the write buffer.
func (ctx *RequestCtx) RawWrite(p []byte) { ctx.wbuf = append(ctx.wbuf, p...) }

// RawWriteString appends pre-serialized response bytes to the write
// buffer.
func (ctx *RequestCtx) RawWriteString(s string) { ctx.wbuf = append(ctx.wbuf, s...) }

// RawBuffer returns the write buffer's free capacity, grown to at least
// n bytes, so body bytes can be read from another connection directly
// into the response buffer. After filling m <= len bytes, commit them
// with RawAdvance(m).
func (ctx *RequestCtx) RawBuffer(n int) []byte {
	if free := cap(ctx.wbuf) - len(ctx.wbuf); free < n {
		nb := make([]byte, len(ctx.wbuf), 2*cap(ctx.wbuf)+n)
		copy(nb, ctx.wbuf)
		ctx.wbuf = nb
	}
	return ctx.wbuf[len(ctx.wbuf):cap(ctx.wbuf)]
}

// RawAdvance commits n bytes previously filled into RawBuffer's slice.
func (ctx *RequestCtx) RawAdvance(n int) { ctx.wbuf = ctx.wbuf[:len(ctx.wbuf)+n] }

// RawBuffered reports how many response bytes are accumulated and not
// yet flushed (including responses to earlier pipelined requests).
func (ctx *RequestCtx) RawBuffered() int { return len(ctx.wbuf) }

// RawFlush writes the accumulated response bytes now — a raw-mode
// handler streaming a large body calls this periodically so the buffer
// stays bounded. Outside raw mode the server flushes on its own
// schedule and handlers should not call this.
func (ctx *RequestCtx) RawFlush() error { return ctx.flush() }

// ---- protocol upgrades ----
//
// An HTTP/1.1 Upgrade (RFC 9110 §7.8) permanently hands the connection
// to another protocol. The hooks below keep that handoff on the worker:
// the upgrading handler serializes its 101 in raw mode, then either
// hijacks (the takeover serves all future passes, parking through the
// same flow-table Requeue path as keep-alive HTTP — the wsaff layer) or
// pumps the connection inline to completion (the proxyaff tunnel).

// Server returns the Server serving this request — for handlers and
// sibling layers (the proxyaff tunnel) that need server-wide facilities
// such as the transport's connection budget.
func (ctx *RequestCtx) Server() *Server { return ctx.srv }

// CoarseNow returns the serving worker's coarse clock — wall time as of
// that worker's last event-loop iteration, at most ~50ms stale.
// Handlers and sibling layers (proxyaff's health ejection and exchange
// deadlines) use it instead of time.Now when per-request clock reads
// would otherwise pile up; deadlines and health windows are hundreds of
// milliseconds and up, so the slack is noise.
func (ctx *RequestCtx) CoarseNow() time.Time { return ctx.srv.srv.CoarseNow(ctx.worker) }

// NotifyParkClose registers fn to run when the serve layer closes this
// connection while it is parked between passes — shed LIFO under
// descriptor or budget pressure, peer vanished mid-park, or shutdown
// swept the parked population. fn runs once, on the closing goroutine
// (a worker's event loop or an acceptor), and must not block. Layers that register
// parked connections in their own indexes (wsaff's shards) use it to
// unregister immediately instead of waiting for a keep-alive probe to
// find the corpse. It is not called when the handler side closes the
// connection itself.
func (ctx *RequestCtx) NotifyParkClose(fn func()) { ctx.conn.OnParkClose = fn }

// Hijack switches the connection to takeover mode: after the current
// handler returns and its response (serialized by the handler in raw
// mode — typically a 101) has flushed, the server stops speaking HTTP
// on this connection and instead calls t for the rest of its life, one
// pass per available input, starting with an immediate first pass on
// this same worker. Any input already buffered beyond the current
// request (frames the client pipelined behind its upgrade request) is
// replayed to the takeover before fresh transport reads.
func (ctx *RequestCtx) Hijack(t TakeoverFunc) { ctx.hijack = t }

// NetConn returns the connection — for handlers that relay raw bytes in
// both directions (the proxyaff 101 tunnel), and the value a takeover
// is handed on every later pass. Reads through it replay parked and
// residual input correctly; a handler that touches it owns the
// connection's framing from that point on and must SetConnectionClose
// (or Hijack) so the server does not try to keep serving HTTP on it.
func (ctx *RequestCtx) NetConn() net.Conn { return ctx.conn }

// Residual returns the unconsumed input bytes buffered beyond the
// current request — what a client pipelined behind an upgrade request —
// and consumes them from the HTTP layer. The slice aliases the worker
// arena: copy it or relay it before the handler returns.
func (ctx *RequestCtx) Residual() []byte {
	b := ctx.rbuf[ctx.rpos:ctx.rlen]
	ctx.rpos = ctx.rlen
	return b
}

// ---- serialization ----

var (
	crlf        = []byte("\r\n")
	status200   = "HTTP/1.1 200 OK\r\n"
	serverColon = "Server: "
	dateColon   = "\r\nDate: "
	ctypeColon  = "\r\nContent-Type: "
	clenColon   = "\r\nContent-Length: "
	connClose   = "Connection: close\r\n"
)

func appendStatusLine(b []byte, code int) []byte {
	if code == http.StatusOK {
		return append(b, status200...)
	}
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	if text := http.StatusText(code); text != "" {
		b = append(b, text...)
	} else {
		b = append(b, "Status"...)
	}
	return append(b, '\r', '\n')
}

// appendResponse serializes the handler's response onto the write
// buffer. HEAD responses carry the Content-Length of the body they
// suppress, per RFC 9110. Raw-mode responses are already serialized in
// the write buffer and get nothing appended.
func (ctx *RequestCtx) appendResponse(closing bool) {
	if ctx.resp.raw {
		return
	}
	b := ctx.wbuf
	b = appendStatusLine(b, ctx.resp.status)
	b = append(b, serverColon...)
	b = append(b, ctx.srv.name...)
	b = append(b, dateColon...)
	b = ctx.srv.arenas[ctx.worker].appendDate(b, ctx.CoarseNow())
	b = append(b, ctypeColon...)
	b = append(b, ctx.resp.contentType...)
	b = append(b, clenColon...)
	b = strconv.AppendInt(b, int64(len(ctx.resp.body)), 10)
	b = append(b, crlf...)
	b = append(b, ctx.resp.extra...)
	if closing {
		b = append(b, connClose...)
	}
	b = append(b, crlf...)
	if !http11.EqualFold(ctx.req.method, "head") {
		b = append(b, ctx.resp.body...)
	}
	ctx.wbuf = b
}

// writeError flushes any pending pipelined responses followed by a
// minimal close-delimited error response.
func (ctx *RequestCtx) writeError(e *protoError) {
	b := ctx.wbuf
	b = appendStatusLine(b, e.code)
	b = append(b, "Content-Length: 0\r\nConnection: close\r\n\r\n"...)
	ctx.wbuf = b
	ctx.flush() // best effort; the connection closes either way
}
