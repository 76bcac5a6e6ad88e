package serve

import (
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"affinityaccept/internal/evloop"
)

// Conn is one connection from accept to close — the paper keeps
// everything a connection owns on one core, and this keeps it in one
// object. The server allocates it once (the accept loop after
// admission, or Requeue for a connection it never accepted) and hands
// that same value to the handler, as its net.Conn, on every pass. Its
// park handle is held by value, so parking allocates nothing: on Linux
// an epoll registration — a million parked sockets cost O(workers)
// goroutines — and for descriptorless transports (net.Pipe in tests)
// and non-Linux builds the handle's parker goroutine.
type Conn struct {
	net.Conn // the accepted transport

	// State belongs to the layer above: whatever must survive from one
	// pass to the next (httpaff keeps its request count and takeover
	// here). Only the goroutine running the connection's pass touches it.
	State any

	// OnParkClose, if set, runs when the *server* closes the connection
	// while parked — peer gone, park deadline, shed, queue overflow at
	// the wake, Shutdown. Layers that index parked connections (the wsaff
	// shards) unregister from it instead of waiting for a keep-alive
	// probe to find the corpse. It runs once, on the closing goroutine
	// (an event loop or an acceptor), must not block, and is never called
	// for a Close the application makes. Set it from a pass.
	OnParkClose func()

	srv *Server
	h   evloop.Handle

	port  int64 // remote TCP port; -1 for portless transports (unix sockets, pipes)
	group int   // the flow group port hashes into; -1 when portless

	// loop is the index of the loop the connection parks on, chosen at
	// its first park (-1 until then) and kept for life. armedAt is the
	// obs.Nanos timestamp of the last park, which the wake turns into
	// the park-duration sample. Both are written before Arm publishes the
	// handle and read after the loop's delivery, so the loop's mutex
	// orders the accesses.
	loop    int32
	armedAt int64

	// parkDL mirrors the most recently armed read deadline — the last one
	// armed before a Requeue is the park (idle) deadline — so the
	// event-loop sweep enforces the same instant the transport would.
	// Zero: park forever, the million-held-sockets configuration.
	parkDL time.Time

	charged bool // holds one slot of the MaxConns budget

	// state says who may touch the handle. A running connection is held
	// by exactly one of a pass, a queue or a loop callback, and no Arm is
	// in progress; a parked one is armed on loops[loop] or about to be;
	// closed is final. Close moves either to closed, and whoever then
	// holds the connection tears it down.
	state atomic.Int32
	torn  atomic.Bool // teardown has run (it runs exactly once)
}

const (
	connRunning int32 = iota
	connParked
	connClosed
)

// newConn wraps a transport whose remote port (addrPort) is already
// known.
func (s *Server) newConn(nc net.Conn, port int64) *Conn {
	c := &Conn{Conn: nc, srv: s, port: port, group: -1, loop: -1}
	if port >= 0 {
		c.group = s.flow.GroupOf(uint16(port))
	}
	return c
}

// addrPort extracts a remote TCP port, -1 for portless transports.
func addrPort(a net.Addr) int64 {
	if t, ok := a.(*net.TCPAddr); ok {
		return int64(t.Port)
	}
	return -1
}

// Flow reports the connection's remote TCP port and the flow group it
// hashes into — the journey tag layers above put on their own events.
// (-1, -1) for portless transports.
func (c *Conn) Flow() (port int64, group int) { return c.port, c.group }

// Close closes the connection, from any goroutine, in any state, and
// releases what the server holds for it — park state, poller
// registration, budget slot — exactly once. A handler finishes a
// connection by a successful Requeue or by Close; anything else holding
// the *Conn (an application registry, a broadcast loop) may Close it at
// any moment. A parked connection is unlinked from its loop first. If a
// pass is running on another goroutine the transport closes under it:
// its next I/O fails and its Requeue reports false.
func (c *Conn) Close() error {
	switch {
	case c.state.CompareAndSwap(connRunning, connClosed):
		// No Arm is in flight and none can start now, so the handle can
		// be retired whoever the caller is.
		return c.teardown()
	case c.state.CompareAndSwap(connParked, connClosed):
		if c.srv.loops[c.loop].Cancel(&c.h) {
			return c.teardown()
		}
		// A wake, a reap, a shed or Requeue's own Arm holds the
		// connection this instant; it tears it down on seeing the mark.
		return nil
	}
	return net.ErrClosed
}

// teardown retires the handle before closing the transport, so
// EPOLL_CTL_DEL never runs on a recycled descriptor number.
func (c *Conn) teardown() error {
	if !c.torn.CompareAndSwap(false, true) {
		return net.ErrClosed
	}
	c.h.Retire()
	if c.charged {
		c.srv.live.Add(-1)
	}
	return c.Conn.Close()
}

// closeHeld is the server closing a connection it holds — detached from
// its loop, or not yet pushed — and the one place OnParkClose fires,
// unless the application's Close got there first and merely could not
// unlink the connection.
func (s *Server) closeHeld(c *Conn) {
	byServer := c.state.Swap(connClosed) != connClosed
	c.teardown()
	if byServer && c.OnParkClose != nil {
		c.OnParkClose()
	}
}

// SetReadDeadline records the deadline for the park sweep and forwards
// it to the transport.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.parkDL = t
	return c.Conn.SetReadDeadline(t)
}

// CoarseNow is the coarse clock of the connection's park loop — stamped
// once per event-loop iteration, at most ~50ms behind the wall clock
// (and the wall clock itself before the first park). Layers above arm
// deadlines from it instead of calling time.Now per request.
func (c *Conn) CoarseNow() time.Time { return c.h.Clock() }

// InputPending reports whether the wake left input to replay — a
// fallback wake-up byte, or poller-reported readability. Handlers that
// serve discrete protocol units per pass (the wsaff frame loop) use it
// to decide between reading and re-parking without risking a blocking
// read on a connection that sent nothing.
func (c *Conn) InputPending() bool { return c.h.Pending() }

func (c *Conn) Read(b []byte) (int, error) {
	if n, ok := c.h.Replay(b); ok {
		return n, nil
	}
	c.h.ClearReadable()
	return c.Conn.Read(b)
}

// SyscallConn forwards to the transport, which is how the event loop
// reaches the descriptor. A transport without one (net.Pipe) reports an
// error and parks on the portable path.
func (c *Conn) SyscallConn() (syscall.RawConn, error) {
	if sc, ok := c.Conn.(syscall.Conn); ok {
		return sc.SyscallConn()
	}
	return nil, errors.ErrUnsupported
}
