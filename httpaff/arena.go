package httpaff

import "affinityaccept/internal/stats"

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
}

// retainCap is the largest buffer the arena keeps on release; a context
// that ballooned serving an outlier request is shed back to the
// steady-state size instead of pinning the memory forever.
const retainCap = 64 << 10

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
		rbuf: make([]byte, a.s.cfg.ReadBufferSize),
		wbuf: make([]byte, 0, a.s.cfg.WriteBufferSize),
	}
}

// release returns a finished context to the free list, shedding
// oversized buffers, or drops it when the list is full.
func (a *arena) release(ctx *RequestCtx) {
	if len(a.free) >= maxPooled {
		a.counters.Drop()
		return
	}
	if cap(ctx.rbuf) > retainCap {
		ctx.rbuf = make([]byte, a.s.cfg.ReadBufferSize)
	}
	if cap(ctx.wbuf) > retainCap {
		ctx.wbuf = make([]byte, 0, a.s.cfg.WriteBufferSize)
	}
	if cap(ctx.resp.body) > retainCap {
		ctx.resp.body = nil
	}
	a.free = append(a.free, ctx)
}
