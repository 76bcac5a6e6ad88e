package serve

import (
	"net"

	"affinityaccept/internal/obs"
)

// forcePortableParking makes New build its park loops without the
// platform poller, so every parked connection runs the portable
// parker-goroutine path. Tests flip it to prove the two evloop
// implementations are behaviorally identical.
var forcePortableParking = false

// Requeue returns a still-open connection to the server for another
// handler pass — the keep-alive path that makes flow-group migration
// matter (§3.3.2): each pass re-consults the flow table, so after a
// group migrates, the connection's next request is served by the new
// owning worker instead of being stolen remotely forever.
//
// The connection parks on the event loop of the worker that owned its
// flow group at its first park; when its next request bytes arrive the
// loop re-routes it through the flow table onto the (possibly
// different, post-migration) owner's queue. Every successful Requeue is
// a real park: input already buffered at requeue time is found by Arm's
// own probe and delivered on the spot through the same Ready callback.
// (A separate look-before-parking probe hit on 0.7–1.5 % of requeues in
// the benchmark and cost a recvfrom on the rest; CHANGES.md, PR 16.)
// Requeue reports false when the server is shutting down — Arm is the
// authority — or the connection has been closed, and the caller then
// still owns the connection and must close it. After a successful
// Requeue the server owns the connection; if its queue overflows, its
// park deadline passes, or the peer disconnects while parked, the
// server closes it.
//
// conn is the *Conn the handler was given. Anything else is taken for
// a transport the server never accepted and gets a Conn of its own,
// which the handler receives from then on.
func (s *Server) Requeue(conn net.Conn) bool {
	c, ok := conn.(*Conn)
	if !ok {
		c = s.newConn(conn, addrPort(conn.RemoteAddr()))
	}
	if c.loop < 0 {
		// First park: resolve the descriptor and pick the loop, once.
		c.h.Init(c)
		c.loop = int32(s.parkLoop(c))
	}
	w := int(c.loop)
	// armedAt (like loop) must be written before Arm publishes the
	// handle: the loop-side callbacks read both.
	c.armedAt = obs.Nanos()
	if !c.state.CompareAndSwap(connRunning, connParked) {
		return false // closed under the pass
	}
	if !s.loops[w].Arm(&c.h, c.parkDL) {
		// Shutting down: nothing registered. A Close that came in since
		// found nothing to cancel and left the teardown here.
		if !c.state.CompareAndSwap(connParked, connRunning) {
			c.teardown()
		}
		return false
	}
	// From here another worker may already be serving c. A Close that
	// ran before Arm could not cancel a park that did not exist yet:
	// its mark is visible now, and whichever of this goroutine and the
	// loop still finds the handle armed tears the connection down.
	if c.state.Load() == connClosed {
		if s.loops[w].Cancel(&c.h) {
			c.teardown()
		}
		return false
	}
	s.requeued.Add(1)
	s.RecordGroupEvent(w, obs.KindPark, c.group, c.port, 0, 0)
	return true
}

// parkLoop picks the loop a connection parks on, for life: the worker
// that owns its flow group at its first park. The handle's poller
// registration lives on that loop and persists across parks, so its
// readability events keep arriving there even if the group has since
// migrated; every wake re-routes through the flow table regardless, so
// migration semantics don't depend on the park loop. No load is charged
// here — the charge happens at wake time, in enqueue, so a group that
// migrates while the connection is parked bills the wake to the new
// owner either way.
func (s *Server) parkLoop(c *Conn) int {
	if c.port >= 0 {
		return s.flow.CoreForPort(uint16(c.port))
	}
	return int(s.rr.Add(1)-1) % s.cfg.Workers
}

// enqueue is the one way a connection reaches a worker, at accept time
// and at every wake: route it to the worker owning its flow group,
// charging one unit of load to the group; record the hop on the group's
// journey; push it onto the owner's queue; shed it if that queue is
// full (§3.3 drop); and signal the owner — and, once the queue is busy
// and so may be stolen from, everyone else. The flow table — not the
// accepting listener or the park loop — is the routing authority,
// exactly as the paper's NIC FDir table decides which core receives a
// flow's packets: under SO_REUSEPORT the kernel's four-tuple hash merely
// picks which acceptor goroutine performs the push, and a group that
// migrated while the connection was parked steers it to its new owner.
// Portless transports (unix sockets, pipes) have nothing to hash and go
// round-robin with group -1. listener is the index of the listener that
// accepted c, -1 for a wake. The server holds c on entry and not after.
func (s *Server) enqueue(c *Conn, listener int) {
	group, worker := -1, 0
	if c.port >= 0 {
		group, worker = s.flow.Route(uint16(c.port), 1)
	} else {
		worker = int(s.rr.Add(1)-1) % s.cfg.Workers
	}
	if from := int(c.loop); from < 0 {
		s.workers[worker].accepted.Add(1)
		if s.sharded && listener != worker {
			// The kernel's reuseport hash, not the flow table, chose the
			// listener: this connection is handed to another worker.
			s.workers[worker].acceptRemote.Add(1)
		}
		s.RecordGroupEvent(worker, obs.KindAccept, group, c.port, 0, 0)
	} else {
		d := obs.Nanos() - c.armedAt
		s.obs.park[worker].Record(d)
		s.RecordGroupEvent(worker, obs.KindWake, group, c.port, d, 0)
		if from != worker {
			// The flow group migrated while the connection was
			// parked: it woke on its park loop but routes to the
			// group's new owner — the moment §3.3.2 pays off for a
			// requeued connection. C carries the distance verdict:
			// 1 when the park loop and the new owner live on
			// different chips of the configured topology.
			var cross int64
			if s.crossChip(from, worker) {
				cross = 1
			}
			s.RecordGroupEvent(worker, obs.KindReroute, group, c.port, int64(from), cross)
		}
	}
	if !s.bal.Push(worker, c) {
		s.closeHeld(c)
		return
	}
	s.signal(worker)
	if s.bal.Busy(worker) {
		// The one state in which Pop lets another worker take from this
		// queue, and only a Push sets it: let the others look.
		for i := range s.workers {
			if i != worker {
				s.signal(i)
			}
		}
	}
}

// parkWake is the loops' Ready callback: a parked connection's next
// request bytes arrived.
func (s *Server) parkWake(nc net.Conn) {
	c := nc.(*Conn)
	if !c.state.CompareAndSwap(connParked, connRunning) {
		c.teardown() // Close marked it after the loop had detached it
		return
	}
	s.enqueue(c, -1)
}

// parkDead is the loops' Dead callback: the loop gave up on a parked
// connection — peer gone, park deadline expired, or shutdown swept it.
func (s *Server) parkDead(nc net.Conn) {
	c := nc.(*Conn)
	s.RecordGroupEvent(int(c.loop), obs.KindParkDead, c.group, c.port, 0, 0)
	s.closeHeld(c)
}
