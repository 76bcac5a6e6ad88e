package main

import (
	"net"
)

// clients is the closed loop's width: two client goroutines with one
// connection each, one per server worker and no more than nproc.
const clients = 2

// pipelineDepth is how many requests the pipelined workload writes at
// once; its latency is timed per batch.
const pipelineDepth = 32

// workload is one traffic mix. warm is the fixed number of requests
// sent before the timed window, about a third of a second's worth.
type workload struct {
	name   string
	why    string
	warm   int
	pinned bool // persistent connections on source ports pinned to a worker each
	depth  int  // requests per operation
	// requests returns the cycle of requests a client repeats.
	requests func(p *payloads, traced bool) []*request
}

var workloads = []workload{
	{
		name: "churn",
		why:  "one GET /small per connection: all the work is accept, admit, route, push, wake, pop and close; nothing parks",
		warm: 5000, depth: 1,
		requests: func(p *payloads, traced bool) []*request {
			return []*request{buildRequest("GET", "/small", nil, p.small, true, traced)}
		},
	},
	{
		name: "keepalive",
		why:  "two pinned connections, one GET /small in flight each: every request pays requeue, park, epoll wake, route, push, wake, pop",
		warm: 16000, pinned: true, depth: 1,
		requests: func(p *payloads, traced bool) []*request {
			return []*request{buildRequest("GET", "/small", nil, p.small, false, traced)}
		},
	},
	{
		name: "pipelined",
		why:  "same connections, 32 GET /small per write: parse, serialise and flush dominate and the wake path is paid once per 32, so a wake-path change must not move it",
		warm: 192000, pinned: true, depth: pipelineDepth,
		requests: func(p *payloads, traced bool) []*request {
			return []*request{buildRequest("GET", "/small", nil, p.small, false, traced)}
		},
	},
	{
		name: "bulk",
		why:  "same connections, GET /large (64 KiB down) then POST /echo (16 KiB up and back): bytes, buffer growth, body reads and multi-flush writes dominate",
		warm: 5000, pinned: true, depth: 1,
		requests: func(p *payloads, traced bool) []*request {
			return []*request{
				buildRequest("GET", "/large", nil, p.large, false, traced),
				buildRequest("POST", "/echo", p.echo, p.echo, false, traced),
			}
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clientOp is one client's closed-loop operation: do sends the next
// requests, waits for and verifies every response, and fills ot.
type clientOp struct {
	reqs  int // requests per call of do
	do    func(ot *opTimes) error
	close func()
}

// link is one client's connection and response reader, shared by its
// plain and its traced operation. dial is what redial reconnects with;
// a churn client has none, it connects per operation.
type link struct {
	conn net.Conn
	rd   *respReader
	dial func() (net.Conn, error)
}

func newLink(dial func() (net.Conn, error)) (*link, error) {
	l := &link{rd: newRespReader(nil), dial: dial}
	if dial == nil {
		return l, nil
	}
	return l, l.redial()
}

// redial replaces the connection, after an operation failed on it and
// left it in an unknown state.
func (l *link) redial() error {
	if l.dial == nil {
		return nil
	}
	l.close()
	conn, err := l.dial()
	if err != nil {
		return err
	}
	l.conn, l.rd.rd = conn, conn
	l.rd.r, l.rd.w = 0, 0
	return nil
}

func (l *link) close() {
	if l.conn != nil {
		closeRST(l.conn)
		l.conn = nil
	}
}

// idSource numbers one client's traced operations.
type idSource struct {
	client int
	seq    uint64
	last   uint64
}

func (s *idSource) next() uint64 {
	s.seq++
	s.last = uint64(s.client)<<56 | s.seq
	return s.last
}

// stamp writes the next id into every copy of the request in wire.
func (s *idSource) stamp(wire []byte, r *request, copies int) {
	if r.idOff < 0 {
		return
	}
	id := s.next()
	for k := 0; k < copies; k++ {
		off := k*len(r.wire) + r.idOff
		putID(wire[off:off+16], id)
	}
}

// exchange writes wire on conn and reads and verifies n responses
// carrying want, after which the connection must be silent.
func exchange(conn net.Conn, rd *respReader, wire, want []byte, n int, ot *opTimes) error {
	rd.firstByte = 0
	if _, err := conn.Write(wire); err != nil {
		return err
	}
	if ot.traced {
		ot.written = nanos()
	}
	for k := 0; k < n; k++ {
		if err := rd.readResponse(want); err != nil {
			return err
		}
	}
	if err := rd.drained(); err != nil {
		return err
	}
	ot.done = nanos()
	ot.firstByte = rd.firstByte
	return nil
}

// persistentOp drives one keep-alive connection: each call writes the
// cycle's next request depth times over in one write and reads depth
// responses.
func persistentOp(l *link, cycle []*request, depth int, ids *idSource) *clientOp {
	wires := make([][]byte, len(cycle))
	for i, r := range cycle {
		wires[i] = r.repeat(depth)
	}
	turn := 0
	return &clientOp{
		reqs: depth,
		do: func(ot *opTimes) error {
			r, wire := cycle[turn], wires[turn]
			if turn++; turn == len(cycle) {
				turn = 0
			}
			ids.stamp(wire, r, depth)
			ot.start = nanos()
			ot.connected = ot.start
			return exchange(l.conn, l.rd, wire, r.want, depth, ot)
		},
		close: l.close,
	}
}

// closeRST closes a client connection with a reset instead of a FIN
// handshake, so neither end lingers in TIME_WAIT. A churn client
// otherwise leaves half a million TIME_WAIT sockets behind per run;
// they live for 60 s, slow the kernel's connect and accept paths for
// this run and the next, and were the largest single source of
// run-to-run spread on churn (see README, "why clients reset"). On a
// pinned connection the reset frees the source port for the next run.
func closeRST(conn net.Conn) {
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
}

// churnOp dials a fresh connection from a kernel-chosen port for every
// request; the request asks the server to close.
func churnOp(addr string, rd *respReader, r *request, ids *idSource) *clientOp {
	return &clientOp{
		reqs: 1,
		do: func(ot *opTimes) error {
			ids.stamp(r.wire, r, 1)
			rd.r, rd.w = 0, 0
			ot.start = nanos()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			defer closeRST(conn)
			rd.rd = conn
			ot.connected = ot.start
			if ot.traced {
				ot.connected = nanos()
			}
			return exchange(conn, rd, r.wire, r.want, 1, ot)
		},
		close: func() {},
	}
}
