package proxyaff

import (
	"net"
	"time"

	"affinityaccept/serve"
)

// upstreamConn is one pooled connection to a backend. The peek state is
// initialized once at dial time so the per-checkout liveness probe
// (alive, in peek_linux.go) allocates nothing.
type upstreamConn struct {
	c       net.Conn
	backend int // index into the pool's backends, for put
	peek    peekState
}

func (uc *upstreamConn) close() { uc.c.Close() }

// upstreamPool is ONE WORKER's private pool of backend connections —
// the client-side dual of the paper's per-core accept queues, and of
// httpaff's per-worker request arenas. A process-wide pool
// (net/http.Transport's, say) lets any worker check out a connection
// whose TCP state, TLS buffers and kernel socket structures are warm in
// another core's cache; here a connection is dialed, used, parked idle
// and reused by exactly one worker, so the outbound half of a proxied
// request stays as core-local as the inbound half.
//
// The pool is one idle slot per backend, because the serve layer runs
// handlers inline on the worker goroutine: a worker serves one request
// at a time, every exchange puts its connection back before the next
// attempt checks one out, and a tunnel holds its worker for its whole
// life. For the same reason the pool needs no lock — pool i is only
// ever touched from worker i. The counters are atomic solely so Stats
// can observe them from outside: Miss = dialed, Reuse = served from
// the slot.
type upstreamPool struct {
	dialTimeout time.Duration
	backends    []string        // backend addresses, by index
	idle        []*upstreamConn // one slot per backend; nil = empty
	counters    serve.PoolCounters

	// dialFn is the dial used for cold checkouts; tests stub it.
	dialFn func(addr string, timeout time.Duration) (net.Conn, error)
}

func netDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func (p *upstreamPool) init(dialTimeout time.Duration, backends []string) {
	p.dialTimeout = dialTimeout
	p.backends = backends
	p.idle = make([]*upstreamConn, len(backends))
	p.dialFn = netDial
}

// get checks out a connection to backend b: the slot's idle connection
// if it passes the liveness peek, else a fresh dial. An idle connection
// that fails the peek — closed by the backend while parked, or carrying
// unsolicited bytes — is closed. reused reports whether the connection
// came from the slot (and so might still race a backend close the peek
// missed; the caller's retry path covers that).
func (p *upstreamPool) get(b int) (uc *upstreamConn, reused bool, err error) {
	if uc = p.idle[b]; uc != nil {
		p.idle[b] = nil
		if uc.alive() {
			p.counters.Reuse()
			return uc, true, nil
		}
		uc.close()
	}
	c, err := p.dialFn(p.backends[b], p.dialTimeout)
	if err != nil {
		return nil, false, err
	}
	p.counters.Miss()
	uc = &upstreamConn{c: c, backend: b}
	uc.initPeek()
	return uc, false, nil
}

// put returns a checked-out connection. A reusable one fills its
// backend's slot if the slot is empty; anything else — errored,
// close-delimited, carrying unread response bytes, or a second
// connection the slot has no room for — is closed.
func (p *upstreamPool) put(uc *upstreamConn, reusable bool) {
	if reusable && p.idle[uc.backend] == nil {
		p.idle[uc.backend] = uc
		return
	}
	uc.close()
}

// closeAll closes every idle connection. Only call it when the owning
// worker can no longer run handlers (after server shutdown).
func (p *upstreamPool) closeAll() {
	for b, uc := range p.idle {
		if uc != nil {
			uc.close()
			p.idle[b] = nil
		}
	}
}
