package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Tracing is outside-in: every span is recorded by the benchmark's own
// code — the client around its socket calls, the bench's route handlers
// around themselves — and none by the server. A traced request carries
// its identifier in the X-Bench-Id header, so the handler span can name
// the client span that caused it. Spans stay in memory and are written
// when the run ends.
//
// An identifier is client<<56 | sequence. A closed-loop client has one
// operation in flight, so the handler side needs one slot per client:
// the handler stores its entry and exit times there and the client
// collects them once the response is in.

// traceCap bounds the operations whose spans are kept, per client;
// later operations still feed the sums the path metrics come from.
const traceCap = 1 << 13

type handlerSlot struct {
	id      atomic.Uint64
	in, out atomic.Int64
	worker  atomic.Int32
	_       [36]byte // keep the two clients' slots on separate cache lines
}

// opTimes are one operation's client-side timestamps on the benchmark
// clock. connected and firstByte are only filled on a traced operation.
type opTimes struct {
	traced    bool
	start     int64 // before dial (churn) or before write
	connected int64 // dial returned; equals start on a persistent connection
	written   int64 // write returned
	firstByte int64 // first read of the response returned
	done      int64 // last response verified
}

type opRecord struct {
	id        uint64
	t         opTimes
	hIn, hOut int64
	worker    int32
}

// pathSums are the running totals (ns) the path metrics come from.
type pathSums struct {
	ops        int64
	unmatched  int64 // operations whose handler span never arrived
	misordered int64 // operations whose handler span is not inside the request
	connect    int64
	in         int64 // write start -> (first) handler entry
	handler    int64 // (first) handler entry -> (last) handler exit
	out        int64 // (last) handler exit -> response verified
	rtt        int64
}

// clientTrace is one client's span store and sums.
type clientTrace struct {
	recs []opRecord
	pathSums
	_ [64]byte
}

type tracer struct {
	slots   []handlerSlot
	clients []clientTrace
}

func newTracer(clients int) *tracer {
	t := &tracer{slots: make([]handlerSlot, clients), clients: make([]clientTrace, clients)}
	for i := range t.clients {
		t.clients[i].recs = make([]opRecord, 0, traceCap)
	}
	return t
}

// enter opens the handler span of request id. The requests of one
// pipelined batch share an id: the first opens the span, every one
// moves its end.
func (t *tracer) enter(id uint64) *handlerSlot {
	s := &t.slots[int(id>>56)%len(t.slots)]
	if s.id.Load() != id {
		s.in.Store(nanos())
		s.id.Store(id)
	}
	return s
}

func (s *handlerSlot) exit(worker int) {
	s.worker.Store(int32(worker))
	s.out.Store(nanos())
}

// collect closes operation id on the client side, joining the handler
// span its requests left in the client's slot.
func (t *tracer) collect(client int, id uint64, ot *opTimes) {
	ct, s := &t.clients[client], &t.slots[client]
	ct.ops++
	if s.id.Load() != id {
		ct.unmatched++
		return
	}
	hIn, hOut := s.in.Load(), s.out.Load()
	if !(ot.start <= ot.connected && ot.connected <= hIn && hIn <= hOut && hOut <= ot.done) {
		ct.misordered++
		return
	}
	ct.connect += ot.connected - ot.start
	ct.in += hIn - ot.connected
	ct.handler += hOut - hIn
	ct.out += ot.done - hOut
	ct.rtt += ot.done - ot.start
	if len(ct.recs) < cap(ct.recs) {
		ct.recs = append(ct.recs, opRecord{id: id, t: *ot, hIn: hIn, hOut: hOut, worker: s.worker.Load()})
	}
}

// sums are a traced window's totals over both clients.
func (t *tracer) sums() pathSums {
	var p pathSums
	for i := range t.clients {
		c := &t.clients[i]
		p.ops += c.ops
		p.unmatched += c.unmatched
		p.misordered += c.misordered
		p.connect += c.connect
		p.in += c.in
		p.handler += c.handler
		p.out += c.out
		p.rtt += c.rtt
	}
	return p
}

// writeSpans writes the kept spans as one JSON document: each span has
// the request id it belongs to, its name, its parent span's name (the
// request span has none) and its start and end in ns since the
// benchmark clock's zero.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since benchmark start\",\"spans\":[", workload)
	first := true
	span := func(id uint64, name, parent string, start, end int64, worker int32) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"req\":\"%016x\",\"name\":%q,\"parent\":%q,\"start\":%d,\"end\":%d", id, name, parent, start, end)
		if worker >= 0 {
			fmt.Fprintf(w, ",\"worker\":%d", worker)
		}
		w.WriteByte('}')
	}
	for i := range t.clients {
		for _, r := range t.clients[i].recs {
			span(r.id, "request", "", r.t.start, r.t.done, -1)
			if r.t.connected != r.t.start {
				span(r.id, "connect", "request", r.t.start, r.t.connected, -1)
			}
			span(r.id, "write", "request", r.t.connected, r.t.written, -1)
			span(r.id, "wait", "request", r.t.written, r.t.firstByte, -1)
			span(r.id, "read", "request", r.t.firstByte, r.t.done, -1)
			span(r.id, "handler", "request", r.hIn, r.hOut, r.worker)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
