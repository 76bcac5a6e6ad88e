package serve

import (
	"net"
	"time"

	"affinityaccept/internal/evloop"
	"affinityaccept/internal/obs"
)

// forcePortableParking makes New build its park loops without the
// platform poller, so every parked connection runs the portable
// parker-goroutine path. Tests flip it to prove the two evloop
// implementations are behaviorally identical.
var forcePortableParking = false

// ParkDeadliner is implemented by connection values that carry an idle
// deadline for their parked phase. Requeue consults the outermost
// implementation in the wrapper chain at park time; a parked connection
// whose deadline passes is closed by its worker's event-loop sweep (and
// its ParkCloseNotifier fires). The httpaff layer implements it from
// Config.IdleTimeout. A zero deadline means the connection may park
// forever — the million-held-sockets configuration.
type ParkDeadliner interface {
	ParkDeadline() time.Time
}

// parkedConn wraps a requeued keep-alive connection while it waits for
// its next request on a worker's event loop. The wrapper is reused
// across requeue passes so a long-lived connection never accretes
// nesting, and its evloop.Handle is embedded by value, so parking
// allocates nothing after the first pass. On Linux the handle is an
// epoll registration — a million parked sockets cost O(workers)
// goroutines; descriptorless transports (net.Pipe in tests) and
// non-Linux builds fall back to the handle's parker goroutine.
type parkedConn struct {
	net.Conn
	h evloop.Handle

	// loop is the index of the last loop the connection parked on.
	// While the handle holds a persistent poller registration the
	// connection must keep parking there — its readability events
	// arrive on that loop — even if its flow group has since migrated;
	// the wake path re-routes through the flow table regardless, so
	// migration semantics don't depend on the park loop. -1 until the
	// first park.
	loop int32

	// armedAt is the obs.Nanos timestamp of the last park (0 with the
	// obs plane off). Written strictly before Arm and read after the
	// loop's delivery, so the loop's mutex orders the accesses; the wake
	// path turns it into the park-duration histogram sample.
	armedAt int64
}

// Close is the handler's half of the ownership contract: a handler
// finishes a connection either by a successful Requeue (the server owns
// it) or by Close — never both. Closing retires the handle's fallback
// parker goroutine, if it ever grew one, along with the transport
// connection.
func (p *parkedConn) Close() error {
	p.h.Retire()
	return p.Conn.Close()
}

// NetConn returns the connection the park wrapper wraps, mirroring
// (*tls.Conn).NetConn. Application layers stacked above Requeue (the
// httpaff server) wrap connections in their own state-carrying type and
// use NetConn to recover it on the passes after the first, when the
// handler receives the park wrapper instead of the original value.
func (p *parkedConn) NetConn() net.Conn { return p.Conn }

// CoarseNow exposes the owning worker's coarse clock — stamped once per
// event-loop iteration instead of a time.Now call per request. Layers
// above use it to arm idle and read deadlines cheaply; it lags the wall
// clock by at most one loop iteration (~50ms).
func (p *parkedConn) CoarseNow() time.Time { return p.h.Clock() }

// InputPending reports whether replayable input — a fallback wake-up
// byte, poller-reported readability, or bytes a lower wrapper buffered
// — is queued ahead of the transport. Handlers that serve discrete
// protocol units per pass (the wsaff frame loop) use it to decide
// between reading and re-parking without risking a blocking read on a
// connection that sent nothing.
func (p *parkedConn) InputPending() bool {
	if p.h.Pending() {
		return true
	}
	if ip, ok := p.Conn.(interface{ InputPending() bool }); ok {
		return ip.InputPending()
	}
	return false
}

func (p *parkedConn) Read(b []byte) (int, error) {
	if n, ok := p.h.Replay(b); ok {
		return n, nil
	}
	p.h.ClearReadable()
	return p.Conn.Read(b)
}

// Requeue returns a still-open connection to the server for another
// handler pass — the keep-alive path that makes flow-group migration
// matter (§3.3.2): each pass re-consults the flow table, so after a
// group migrates, the connection's next request is served by the new
// owning worker instead of being stolen remotely forever.
//
// The connection parks on the event loop of the worker currently owning
// its flow group; when its next request bytes arrive the loop re-routes
// it through the flow table onto the (possibly different, post-
// migration) owner's queue. Every successful Requeue is a real park:
// input already buffered at requeue time is found by Arm's own probe
// and delivered on the spot through the same Ready callback. (A
// separate look-before-parking probe hit on 0.7–1.5 % of requeues in
// the benchmark and cost a recvfrom on the rest; CHANGES.md, PR 16.)
// Requeue reports false when the server is shutting down — Arm is the
// authority — and the caller then still owns the connection and must
// close it. After a successful Requeue the server owns the connection;
// if its queue overflows, its park deadline passes, or the peer
// disconnects while parked, the server closes it.
func (s *Server) Requeue(conn net.Conn) bool {
	p, ok := conn.(*parkedConn)
	if !ok {
		p = &parkedConn{Conn: conn, loop: -1}
		p.h.Init(p)
	}
	w := s.parkWorker(p)
	if s.obs != nil {
		p.armedAt = obs.Nanos()
	}
	// p.loop (like armedAt) must be written before Arm publishes the
	// handle: the loop-side callbacks read both, and Arm's mutex is the
	// happens-before edge that makes the plain fields safe.
	p.loop = int32(w)
	if !s.loops[w].Arm(&p.h, parkDeadline(p.Conn)) {
		return false // shutting down: nothing registered, p is plain garbage when fresh
	}
	s.requeued.Add(1)
	port := remotePort(p.Conn)
	s.RecordGroupEvent(w, obs.KindPark, s.GroupOfPort(port), port, 0, 0)
	return true
}

// parkWorker picks the loop a connection parks on: the worker that owns
// its flow group right now — unless the handle already holds a poller
// registration, which pins it to the registration's loop (arming a
// registered handle elsewhere would split its list and event state
// across two loops). No load is charged here — the charge happens at
// wake time, in route, so a group that migrates while the connection is
// parked bills the wake to the new owner either way.
func (s *Server) parkWorker(p *parkedConn) int {
	if p.loop >= 0 && p.h.Registered() {
		return int(p.loop)
	}
	if addr, ok := p.RemoteAddr().(*net.TCPAddr); ok {
		return s.flow.CoreForPort(uint16(addr.Port))
	}
	return int(s.rr.Add(1)-1) % s.cfg.Workers
}

// parkDeadline finds the wrapper chain's ParkDeadliner, if any.
func parkDeadline(c net.Conn) time.Time {
	for c != nil {
		if d, ok := c.(ParkDeadliner); ok {
			return d.ParkDeadline()
		}
		u, ok := c.(interface{ NetConn() net.Conn })
		if !ok {
			break
		}
		c = u.NetConn()
	}
	return time.Time{}
}

// parkWake is the loops' Ready callback: a parked connection's next
// request bytes arrived. Route it through the flow table — the same
// authority accept-time routing uses, so a group that migrated while
// the connection was parked steers it to its new owner — and push it
// onto that worker's queue.
func (s *Server) parkWake(c net.Conn) {
	p := c.(*parkedConn)
	group, worker := s.route(p)
	if s.obs != nil {
		d := obs.Nanos() - p.armedAt
		s.obs.park[worker].Record(d)
		port := remotePort(p.Conn)
		s.RecordGroupEvent(worker, obs.KindWake, group, port, d, 0)
		if int(p.loop) != worker {
			// The flow group migrated while the connection was
			// parked: it woke on its park loop but routes to the
			// group's new owner — the moment §3.3.2 pays off for a
			// requeued connection. C carries the distance verdict:
			// 1 when the park loop and the new owner live on
			// different chips of the configured topology, i.e. the
			// reroute crossed the Table 1 RemoteL3 line.
			var cross int64
			if s.crossChip(int(p.loop), worker) {
				cross = 1
			}
			s.RecordGroupEvent(worker, obs.KindReroute, group, port, int64(p.loop), cross)
		}
	}
	if !s.bal.Push(worker, p) {
		s.closeParked(p) // queue overflow: shed load, as at accept time
		return
	}
	s.wakeWorkers()
}

// parkDead is the loops' Dead callback: the loop gave up on a parked
// connection — peer gone, park deadline expired, or shutdown swept it.
func (s *Server) parkDead(c net.Conn) {
	p := c.(*parkedConn)
	if w := int(p.loop); w >= 0 {
		port := remotePort(p.Conn)
		s.RecordGroupEvent(w, obs.KindParkDead, s.GroupOfPort(port), port, 0, 0)
	}
	s.closeParked(p)
}

// closeParked closes a parked connection server-side and fires its
// ParkCloseNotifier. Every parked connection that dies does so through
// here (or through a handler that received it back), so the notifier
// fires exactly once whichever policy — peer EOF, deadline, shed,
// shutdown, queue overflow — pulled the trigger.
func (s *Server) closeParked(p *parkedConn) {
	p.Close()
	notifyParkClosed(p.Conn)
}

// notifyParkClosed fires the connection's ParkCloseNotifier, if it has
// one, after a server-side close of a parked connection.
func notifyParkClosed(c net.Conn) {
	if n, ok := c.(ParkCloseNotifier); ok {
		n.ParkClosed()
	}
}
