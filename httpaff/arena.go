package httpaff

import (
	"net/http"
	"time"

	"affinityaccept/serve"
)

// arena is one worker's private RequestCtx slot. It is deliberately
// NOT a sync.Pool: a process-wide pool lets any worker drain an object
// whose buffers live in another core's cache, which is the
// application-layer version of the cross-core connection handoff the
// paper is built to avoid. An arena has no lock because it needs none —
// serve runs WorkerHandler inline on the worker goroutine, so arena i
// is only ever touched from worker i. The counters are atomic solely so
// Stats can observe them from outside.
//
// The worker model also bounds the arena to one context: a worker
// serves one connection at a time, and serveConn — acquire's only
// caller — releases the context before a hijacked connection's
// takeover runs. So the first pass allocates the worker's context (a
// Miss) and every later acquire is a Reuse. The reuse rate in
// Server.Stats().Pool is therefore a direct measurement of how
// core-local request memory stays.
type arena struct {
	s        *Server
	ctx      *RequestCtx // the warm context; nil while checked out
	counters serve.PoolCounters

	// mid is the response head from "Server: " through "Content-Type: ",
	// its Date the second sec of the worker's coarse clock. It is rebuilt
	// in place when the second changes: every response reads the worker's
	// own copy and no goroutine refreshes it. The status line and the
	// content type, which vary per response, are appended around it.
	sec int64
	mid []byte
}

// appendMid appends the arena's head middle for now (unix ns),
// rebuilding it first when now is in a different second.
func (a *arena) appendMid(b []byte, now int64) []byte {
	if sec := now / 1e9; sec != a.sec {
		a.sec = sec
		m := append(a.mid[:0], serverColon...)
		m = append(m, a.s.name...)
		m = append(m, dateColon...)
		m = time.Unix(sec, 0).UTC().AppendFormat(m, http.TimeFormat)
		a.mid = append(m, ctypeColon...)
	}
	return append(b, a.mid...)
}

// bufSize is the size a context's request and response buffers start
// at. They grow on demand to the workload's largest message and stay
// there: release sheds a buffer only once it has outgrown
// MaxHeaderBytes + MaxBodyBytes, the largest request readRequest
// accepts. A buffer is an outlier only above what the layer accepts;
// below it, shedding would free and regrow the buffer on every request
// of a workload that steadily needs it.
const bufSize = 4096

// acquire takes the warm context out of the slot, or allocates the
// worker's context on its first pass.
func (a *arena) acquire() *RequestCtx {
	if ctx := a.ctx; ctx != nil {
		a.ctx = nil
		a.counters.Reuse()
		return ctx
	}
	a.counters.Miss()
	return &RequestCtx{
		srv:  a.s,
		rbuf: make([]byte, bufSize),
		wbuf: make([]byte, 0, bufSize),
	}
}

// release puts a finished context back in the slot, shedding buffers
// grown past the request bound.
func (a *arena) release(ctx *RequestCtx) {
	keep := a.s.cfg.MaxHeaderBytes + a.s.cfg.MaxBodyBytes
	if cap(ctx.rbuf) > keep+1 { // plus the byte of room readRequest keeps past a body
		ctx.rbuf = make([]byte, bufSize)
	}
	if cap(ctx.wbuf) > keep {
		ctx.wbuf = make([]byte, 0, bufSize)
	}
	if cap(ctx.resp.body) > keep {
		ctx.resp.body = nil
	}
	a.ctx = ctx
}
