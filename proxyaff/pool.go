package proxyaff

import (
	"errors"
	"net"
	"time"

	"affinityaccept/internal/stats"
)

// errPoolExhausted reports a checkout that found MaxConnsPerBackend
// connections already open to the backend. With the serve layer's
// one-connection-per-worker model a worker needs exactly one upstream
// connection at a time, so hitting the cap means either a misconfigured
// cap or a pool being shared across workers — both worth failing loudly
// (the proxy answers 503).
var errPoolExhausted = errors.New("proxyaff: upstream connection pool exhausted")

// upstreamConn is one pooled connection to a backend. The peek state is
// initialized once at dial time so the per-checkout liveness probe
// (alive, in peek_linux.go) allocates nothing.
type upstreamConn struct {
	c    net.Conn
	addr string // backend address, for the put-side host lookup
	peek peekState
}

func (uc *upstreamConn) close() { uc.c.Close() }

// hostPool is the per-backend slot of an upstreamPool.
type hostPool struct {
	idle []*upstreamConn // LIFO: the most recently used — warmest — conn pops first
	open int             // idle + checked out
}

// upstreamPool is ONE WORKER's private pool of backend connections,
// keyed by backend address — the client-side dual of the paper's
// per-core accept queues, and of httpaff's per-worker request arenas.
// A process-wide pool (net/http.Transport's, say) lets any worker check
// out a connection whose TCP state, TLS buffers and kernel socket
// structures are warm in another core's cache; here a connection is
// dialed, used, parked idle and reused by exactly one worker, so the
// outbound half of a proxied request stays as core-local as the inbound
// half. The pool needs no lock: the serve layer runs handlers inline on
// the worker goroutine, so pool i is only ever touched from worker i.
// The counters are atomic solely so Stats can observe them from
// outside: Miss = dialed, Reuse = served from the idle list, Drop =
// released over the idle cap.
type upstreamPool struct {
	dialTimeout time.Duration
	maxIdle     int // idle conns kept per backend
	maxConns    int // open conns (idle + checked out) per backend; 0 = unlimited
	counters    stats.PoolCounters
	hosts       map[string]*hostPool

	// dialFn is the dial used for cold checkouts; tests stub it.
	dialFn func(addr string, timeout time.Duration) (net.Conn, error)
}

// maxIdlePerBackend caps each worker's idle connections per backend.
// The one-connection-per-worker serve model needs exactly one in the
// steady state.
const maxIdlePerBackend = 2

func netDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func (p *upstreamPool) init(dialTimeout time.Duration, maxIdle, maxConns int) {
	p.dialTimeout = dialTimeout
	p.maxIdle = maxIdle
	p.maxConns = maxConns
	p.hosts = make(map[string]*hostPool)
	p.dialFn = netDial
}

func (p *upstreamPool) host(addr string) *hostPool {
	h, ok := p.hosts[addr]
	if !ok {
		h = &hostPool{}
		p.hosts[addr] = h
	}
	return h
}

// get checks out a connection to addr: the newest idle connection that
// passes the liveness peek, else a fresh dial. Idle connections that
// fail the peek — closed by the backend while parked, or carrying
// unsolicited bytes — are closed and skipped. reused reports whether
// the connection came off the idle list (and so might still race a
// backend close the peek missed; the caller's retry path covers that).
func (p *upstreamPool) get(addr string) (uc *upstreamConn, reused bool, err error) {
	h := p.host(addr)
	for n := len(h.idle); n > 0; n = len(h.idle) {
		uc = h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		if uc.alive() {
			p.counters.Reuse()
			return uc, true, nil
		}
		uc.close()
		h.open--
	}
	if p.maxConns > 0 && h.open >= p.maxConns {
		return nil, false, errPoolExhausted
	}
	c, err := p.dialFn(addr, p.dialTimeout)
	if err != nil {
		return nil, false, err
	}
	p.counters.Miss()
	h.open++
	uc = &upstreamConn{c: c, addr: addr}
	uc.initPeek()
	return uc, false, nil
}

// put returns a checked-out connection. Reusable connections go back on
// the idle list (newest last) unless it is full, in which case they are
// dropped; non-reusable ones — errored, close-delimited, or carrying
// unread response bytes — are closed.
func (p *upstreamPool) put(uc *upstreamConn, reusable bool) {
	h := p.host(uc.addr)
	if !reusable {
		uc.close()
		h.open--
		return
	}
	if len(h.idle) >= p.maxIdle {
		p.counters.Drop()
		uc.close()
		h.open--
		return
	}
	h.idle = append(h.idle, uc)
}

// flushIdle closes every idle connection pooled for addr. The proxy
// calls it when a reused connection turns out stale mid-exchange: the
// rest of the idle list is from the same era (a backend restart kills
// them all together), so discarding it makes the retry — and the
// requests behind it — dial fresh instead of burning attempts on one
// dead conn after another.
func (p *upstreamPool) flushIdle(addr string) {
	h, ok := p.hosts[addr]
	if !ok {
		return
	}
	for _, uc := range h.idle {
		uc.close()
		h.open--
	}
	h.idle = h.idle[:0]
}

// idleCount reports the idle connections pooled for addr (tests).
func (p *upstreamPool) idleCount(addr string) int {
	if h, ok := p.hosts[addr]; ok {
		return len(h.idle)
	}
	return 0
}

// closeAll closes every idle connection. Only call it when the owning
// worker can no longer run handlers (after server shutdown).
func (p *upstreamPool) closeAll() {
	for _, h := range p.hosts {
		for _, uc := range h.idle {
			uc.close()
			h.open--
		}
		h.idle = h.idle[:0]
	}
}
