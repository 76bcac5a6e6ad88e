package httpaff

import (
	"net/http"
	"time"

	"affinityaccept/internal/stats"
)

// arena is one worker's private pool of RequestCtx objects. It is
// deliberately NOT a sync.Pool: a process-wide pool lets any worker
// drain an object whose buffers live in another core's cache, which is
// the application-layer version of the cross-core connection handoff
// the paper is built to avoid. An arena has no lock because it needs
// none — serve runs WorkerHandler inline on the worker goroutine, so
// arena i is only ever touched from worker i. The counters are atomic
// solely so Stats can observe them from outside.
//
// The worker model also bounds the arena's working set: a worker
// serves one connection at a time, so after the first pass its arena
// holds exactly one warm context and every later acquire is a reuse.
// The reuse rate in serve.Stats.Pool is therefore a direct measurement
// of how core-local request memory stays.
type arena struct {
	s        *Server
	free     []*RequestCtx
	counters stats.PoolCounters

	// date is the Date header value for second sec of the worker's
	// coarse clock, formatted in place when the second changes: every
	// response reads the worker's own copy and no goroutine refreshes it.
	sec  int64
	date [len(http.TimeFormat)]byte
}

// appendDate appends the Date header value for now, reformatting the
// arena's copy only when now is in a different second.
func (a *arena) appendDate(b []byte, now time.Time) []byte {
	if sec := now.Unix(); sec != a.sec {
		a.sec = sec
		now.UTC().AppendFormat(a.date[:0], http.TimeFormat)
	}
	return append(b, a.date[:]...)
}

// bufSize is the size a context's request and response buffers start
// at. They grow on demand to the workload's largest message and stay
// there: release sheds a buffer only once it has outgrown
// MaxHeaderBytes + MaxBodyBytes, the largest request readRequest
// accepts. A buffer is an outlier only above what the layer accepts;
// below it, shedding would free and regrow the buffer on every request
// of a workload that steadily needs it.
const bufSize = 4096

// maxPooled caps each worker arena's free list; contexts released
// beyond it are dropped to the GC. One warm context per worker already
// reaches 100.0% reuse on pipelined keep-alive (docs/TUNING.md); the
// headroom is for handlers holding contexts across concurrent hijacks.
const maxPooled = 32

// acquire pops a warm context or allocates a cold one.
func (a *arena) acquire() *RequestCtx {
	if n := len(a.free); n > 0 {
		ctx := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
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

// release returns a finished context to the free list, shedding
// buffers grown past the request bound, or drops it when the list is
// full.
func (a *arena) release(ctx *RequestCtx) {
	if len(a.free) >= maxPooled {
		a.counters.Drop()
		return
	}
	keep := a.s.cfg.MaxHeaderBytes + a.s.cfg.MaxBodyBytes
	if cap(ctx.rbuf) > keep {
		ctx.rbuf = make([]byte, bufSize)
	}
	if cap(ctx.wbuf) > keep {
		ctx.wbuf = make([]byte, 0, bufSize)
	}
	if cap(ctx.resp.body) > keep {
		ctx.resp.body = nil
	}
	a.free = append(a.free, ctx)
}
