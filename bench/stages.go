package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/admit"
	"affinityaccept/internal/core"
	"affinityaccept/internal/evloop"
	"affinityaccept/internal/obs"
	"affinityaccept/proxyaff"
	"affinityaccept/serve"
	"affinityaccept/wsaff"
)

// Stages price one layer at a time, outside the workload: each calls a
// layer's public functions (or runs a baseline this repository did not
// write) with the same two-client closed loop, repeats the measurement
// and reports the median repetition.

// stager carries the stages' time budget.
type stager struct {
	reps  int
	net   time.Duration // one repetition of a stage that crosses loopback
	micro time.Duration // one repetition of a stage that only calls functions
	pay   *payloads
	ports *portPicker
	out   []metric
}

// netStages and microStages count the repetitions' worth of time the
// two kinds of stage take, to split the budget.
const (
	netStages   = 12.6 // eleven round-trip stages with their warm-ups, one idle stage
	microStages = 12
)

func runStages(o *options, pay *payloads, ports *portPicker) ([]metric, error) {
	s := &stager{reps: 5, pay: pay, ports: ports}
	// A micro stage gets a quarter of a network stage's time.
	s.net = time.Duration(o.seconds * stageShare * float64(time.Second) / (5 * (netStages + microStages/4)))
	if o.quick {
		s.reps, s.net = 1, 20*time.Millisecond
	}
	s.micro = s.net / 4
	for _, stage := range []func() error{
		s.baselineNet, s.baselineHTTP, s.serveEcho, s.httpaffSelf,
		s.coreStages, s.evloopStages, s.obsStages, s.admitStages,
		s.proxyStage, s.wsStage,
	} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return s.out, nil
}

func (s *stager) add(name string, value float64, unit string) {
	s.out = append(s.out, metric{name, value, unit})
}

// value looks up a metric an earlier stage added.
func (s *stager) value(name string) float64 {
	for _, m := range s.out {
		if m.name == name {
			return m.value
		}
	}
	panic("stage metric " + name + " not measured yet")
}

// closedLoop calls each op back to back on its own goroutine for d and
// returns the latency histogram of all calls.
func closedLoop(d time.Duration, ops []func() error) (*hist, error) {
	hs := make([]hist, len(ops))
	errs := make([]error, len(ops))
	end := nanos() + int64(d)
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := nanos(); t0 < end; t0 = nanos() {
				if err := op(); err != nil {
					errs[i] = err
					return
				}
				hs[i].record(nanos() - t0)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < len(hs); i++ {
		hs[0].merge(&hs[i])
	}
	return &hs[0], errors.Join(errs...)
}

// rtt runs the closed loop reps times after a short warm-up and returns
// the median repetition's p50 in µs, plus all repetitions' histogram.
func (s *stager) rtt(ops []func() error) (float64, *hist, error) {
	if _, err := closedLoop(s.net/4, ops); err != nil {
		return 0, nil, err
	}
	all := new(hist)
	var p50s []float64
	for r := 0; r < s.reps; r++ {
		h, err := closedLoop(s.net, ops)
		if err != nil {
			return 0, nil, err
		}
		p50s = append(p50s, h.quantile(0.5)/1e3)
		all.merge(h)
	}
	return median(p50s), all, nil
}

// nsPerOp calls op in a loop for d and returns the mean ns per call.
func nsPerOp(d time.Duration, op func()) float64 {
	t0 := nanos()
	n := 0
	for nanos()-t0 < int64(d) {
		for i := 0; i < 256; i++ {
			op()
		}
		n += 256
	}
	return float64(nanos()-t0) / float64(n)
}

// micro reports the median over reps of nsPerOp, with one op per
// goroutine running at once (their mean).
func (s *stager) microNs(ops ...func()) float64 {
	var vals []float64
	for r := 0; r < s.reps; r++ {
		res := make([]float64, len(ops))
		var wg sync.WaitGroup
		for i, op := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i] = nsPerOp(s.micro, op)
			}()
		}
		wg.Wait()
		var sum float64
		for _, v := range res {
			sum += v
		}
		vals = append(vals, sum/float64(len(res)))
	}
	return median(vals)
}

// echoOp is one 64-byte ping-pong on conn.
func echoOp(conn net.Conn, msg []byte) func() error {
	buf := make([]byte, len(msg))
	return func() error {
		if _, err := conn.Write(msg); err != nil {
			return err
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, msg) {
			return errBody
		}
		return nil
	}
}

// echoChurnOp is dial, one ping-pong, close.
func echoChurnOp(addr string, msg []byte) func() error {
	return func() error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer closeRST(conn)
		return echoOp(conn, msg)()
	}
}

// httpOps adapts clientOps to closedLoop.
func httpOps(ops []*clientOp) []func() error {
	out := make([]func() error, len(ops))
	for i, op := range ops {
		ot := new(opTimes)
		out[i] = func() error { return op.do(ot) }
	}
	return out
}

// getSmall returns keep-alive (pinned by owner, when given) and churn
// clients sending GET /small to addr.
func (s *stager) getSmall(addr string, owner func(uint16) int) (keep, churn []*clientOp, err error) {
	for i := 0; i < clients; i++ {
		var conn net.Conn
		if owner != nil {
			conn, err = s.ports.dialPinned(addr, owner, i)
		} else {
			conn, err = net.Dial("tcp", addr)
		}
		if err != nil {
			return nil, nil, err
		}
		ids := &idSource{client: i}
		keep = append(keep, persistentOp(&link{conn: conn, rd: newRespReader(conn)},
			[]*request{buildRequest("GET", "/small", nil, s.pay.small, false, false)}, 1, ids))
		churn = append(churn, churnOp(addr, newRespReader(nil),
			buildRequest("GET", "/small", nil, s.pay.small, true, false), ids))
	}
	return keep, churn, nil
}

func closeOps(ops []*clientOp) {
	for _, op := range ops {
		op.close()
	}
}

// baselineNet is the code we did not write, bare: a goroutine per
// connection over plain net, echoing 64 bytes.
func (s *stager) baselineNet() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, smallSize)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	addr := ln.Addr().String()
	var keep, churn []func() error
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		keep = append(keep, echoOp(conn, s.pay.small))
		churn = append(churn, echoChurnOp(addr, s.pay.small))
	}
	rtt, _, err := s.rtt(keep)
	if err != nil {
		return err
	}
	s.add("baseline.net_rtt_us", rtt, "us")
	if rtt, _, err = s.rtt(churn); err != nil {
		return err
	}
	s.add("baseline.net_churn_us", rtt, "us")
	return nil
}

// baselineHTTP is stock net/http serving the same GET /small.
func (s *stager) baselineHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/small", func(w http.ResponseWriter, _ *http.Request) { w.Write(s.pay.small) })
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	keep, churn, err := s.getSmall(ln.Addr().String(), nil)
	if err != nil {
		return err
	}
	defer closeOps(keep)
	rtt, _, err := s.rtt(httpOps(keep))
	if err != nil {
		return err
	}
	s.add("baseline.nethttp_rtt_us", rtt, "us")
	if rtt, _, err = s.rtt(httpOps(churn)); err != nil {
		return err
	}
	s.add("baseline.nethttp_churn_us", rtt, "us")
	return nil
}

// serveEcho prices the serve layer alone: the same 64-byte echo as the
// plain-net baseline, through accept queues, Requeue, park and wake.
func (s *stager) serveEcho() error {
	var srv *serve.Server
	bufs := make([][]byte, sutWorkers)
	for i := range bufs {
		bufs[i] = make([]byte, smallSize)
	}
	srv, err := serve.New(serve.Config{Workers: sutWorkers, WorkerHandler: func(worker int, c net.Conn) {
		buf := bufs[worker]
		if _, err := io.ReadFull(c, buf); err != nil {
			c.Close()
			return
		}
		if _, err := c.Write(buf); err != nil || !srv.Requeue(c) {
			c.Close()
		}
	}})
	if err != nil {
		return err
	}
	srv.Start()
	defer shutDown(srv.Shutdown)
	addr := srv.Addr().String()
	var keep, churn []func() error
	for i := 0; i < clients; i++ {
		conn, err := s.ports.dialPinned(addr, srv.OwnerOf, i)
		if err != nil {
			return err
		}
		defer closeRST(conn)
		keep = append(keep, echoOp(conn, s.pay.small))
		churn = append(churn, echoChurnOp(addr, s.pay.small))
	}
	rtt, _, err := s.rtt(keep)
	if err != nil {
		return err
	}
	s.add("serve.echo_rtt_us", rtt, "us")
	s.add("serve.self_rtt_us", rtt-s.value("baseline.net_rtt_us"), "us")
	if rtt, _, err = s.rtt(churn); err != nil {
		return err
	}
	s.add("serve.accept_us", rtt, "us")

	// One sequential connection: a wake that reaches the wrong worker
	// leaves the request to the owner's 200µs poll timer.
	rtt, h, err := s.rtt(keep[:1])
	if err != nil {
		return err
	}
	s.add("serve.seq_rtt_us", rtt, "us")
	s.add("serve.seq_stall_share", h.shareAbove(500_000), "ratio")

	// Both connections are parked and nothing is sent: what the server
	// burns doing nothing.
	cpu0, t0 := cpuNanos(), nanos()
	time.Sleep(time.Duration(s.reps) * s.net)
	s.add("serve.idle_cpu_pct", 100*float64(cpuNanos()-cpu0)/float64(nanos()-t0), "%")
	return nil
}

// httpaffSelf prices the HTTP layer over serve: GET /small on two
// pinned keep-alive connections, minus the serve-only echo.
func (s *stager) httpaffSelf() error {
	sv, err := startSUT(s.pay, nil)
	if err != nil {
		return err
	}
	defer sv.stop()
	keep, _, err := s.getSmall(sv.addr(), sv.srv.OwnerOf)
	if err != nil {
		return err
	}
	defer closeOps(keep)
	rtt, _, err := s.rtt(httpOps(keep))
	if err != nil {
		return err
	}
	s.add("httpaff.self_rtt_us", rtt-s.value("serve.echo_rtt_us"), "us")
	return nil
}

func (s *stager) coreStages() error {
	newQueues := func() *core.Guarded[int] { return core.NewGuarded[int](core.Config{Cores: sutWorkers}) }
	pushPop := func(g *core.Guarded[int], c int) func() {
		return func() {
			g.Push(c, 1)
			g.Pop(c)
		}
	}
	g := newQueues()
	s.add("core.push_pop_ns", s.microNs(pushPop(g, 0)), "ns")
	s.add("core.push_pop_2g_ns", s.microNs(pushPop(g, 0), pushPop(g, 1)), "ns")

	ft := core.NewGuardedFlowTable(core.DefaultFlowGroups, sutWorkers)
	route := func(port uint16) func() {
		return func() {
			ft.Route(port, 1)
			port += 2
		}
	}
	s.add("core.route_ns", s.microNs(route(0)), "ns")
	s.add("core.route_2g_ns", s.microNs(route(0), route(1)), "ns")

	// A steal: worker 0's queue is held over its high watermark, so
	// every Pop on the idle worker 1 takes from it; the Push refills.
	g = newQueues()
	for i := 0; i < 120; i++ {
		g.Push(0, i)
	}
	stolen := true
	s.add("core.steal_ns", s.microNs(func() {
		g.Push(0, 1)
		if _, from, ok := g.Pop(1); !ok || from != 0 {
			stolen = false
		}
	}), "ns")
	if !stolen {
		return errors.New("core.steal_ns: a Pop on the idle worker did not steal")
	}

	g = newQueues()
	s.add("core.balance_us", s.microNs(func() { g.BalanceTable(ft, nil) })/1e3, "us")
	return nil
}

func (s *stager) evloopStages() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer peer.Close()
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()

	var readyAt int64
	ready := make(chan struct{}, 1)
	loop := evloop.New(evloop.Config{Callbacks: evloop.Callbacks{
		Ready: func(net.Conn) {
			readyAt = nanos()
			ready <- struct{}{}
		},
		Dead: func(net.Conn) {},
	}})
	loop.Start()
	defer loop.Close()
	var h evloop.Handle
	h.Init(conn)
	defer h.Retire()

	one := []byte{1}
	wake := new(hist)
	var p50s []float64
	for r := 0; r < s.reps; r++ {
		*wake = hist{}
		for end := nanos() + int64(s.net); nanos() < end; {
			if !loop.Arm(&h, time.Time{}) {
				return errors.New("evloop.arm_wake_us: loop refused to arm")
			}
			t0 := nanos()
			if _, err := peer.Write(one); err != nil {
				return err
			}
			<-ready
			wake.record(readyAt - t0)
			if _, err := conn.Read(one); err != nil {
				return err
			}
		}
		p50s = append(p50s, wake.quantile(0.5)/1e3)
	}
	s.add("evloop.arm_wake_us", median(p50s), "us")
	s.add("evloop.poll_empty_ns", s.microNs(func() { loop.Poll() }), "ns")
	return nil
}

func (s *stager) obsStages() error {
	h := obs.NewHist(0)
	v := int64(1)
	s.add("obs.hist_record_ns", s.microNs(func() {
		h.Record(v)
		v += 997
	}), "ns")
	rings := obs.NewRings(1, 1024)
	s.add("obs.ring_record_ns", s.microNs(func() { rings.Record(0, obs.KindAccept, 0, v, 1, 2, 3) }), "ns")
	s.add("obs.nanos_ns", s.microNs(func() { v += obs.Nanos() & 1 }), "ns")
	return nil
}

func (s *stager) admitStages() error {
	lim := admit.NewLimiter(1e9, 1<<20, admit.DefaultBuckets)
	allow := func(key uint64) func() {
		return func() {
			lim.AllowNow(key)
			key += 2
		}
	}
	s.add("admit.allow_ns", s.microNs(allow(0)), "ns")
	s.add("admit.allow_2g_ns", s.microNs(allow(0), allow(1)), "ns")
	if lim.Limited() != 0 {
		return fmt.Errorf("admit: %d arrivals were limited", lim.Limited())
	}
	return nil
}

// fixedBackend is a plain-net HTTP backend for the proxy stage: it
// answers every request head with one canned keep-alive response.
func fixedBackend(body []byte) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	resp := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					for {
						line, err := br.ReadSlice('\n')
						if err != nil {
							return
						}
						if len(line) <= 2 {
							break
						}
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln, nil
}

func (s *stager) proxyStage() error {
	backend, err := fixedBackend(s.pay.small)
	if err != nil {
		return err
	}
	defer backend.Close()
	p, err := proxyaff.New(proxyaff.Config{Backends: []string{backend.Addr().String()}, Workers: sutWorkers, Policy: proxyaff.WorkerPinned})
	if err != nil {
		return err
	}
	front, err := httpaff.New(httpaff.Config{Workers: sutWorkers, Handler: p.Serve, WorkerUpstream: p.PoolSnapshot})
	if err != nil {
		return err
	}
	front.Start()
	defer func() {
		shutDown(front.Shutdown)
		p.Close()
	}()
	keep, _, err := s.getSmall(front.Addr().String(), front.OwnerOf)
	if err != nil {
		return err
	}
	defer closeOps(keep)
	rtt, _, err := s.rtt(httpOps(keep))
	if err != nil {
		return err
	}
	s.add("proxyaff.rtt_us", rtt, "us")
	s.add("proxyaff.upstream_p50_us", float64(p.UpstreamLatencySnapshot().Quantile(0.5))/1e3, "us")
	s.add("proxyaff.upstream_reuse_pct", p.Stats().Pool.ReusePct(), "%")
	return nil
}

func (s *stager) wsStage() error {
	ws, err := wsaff.New(wsaff.Config{
		Workers:   sutWorkers,
		OnMessage: func(c *wsaff.Conn, op wsaff.Op, payload []byte) { c.Send(op, payload) },
	})
	if err != nil {
		return err
	}
	ws.Start()
	r := httpaff.NewRouter()
	r.Handle("/ws", func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	srv, err := httpaff.New(httpaff.Config{Workers: sutWorkers, Handler: r.Serve})
	if err != nil {
		return err
	}
	srv.Start()
	defer func() {
		shutDown(srv.Shutdown)
		ws.Close()
	}()
	var ops []func() error
	var echoes [clients]struct {
		n int64
		_ [56]byte // one cache line per client
	}
	for i := 0; i < clients; i++ {
		conn, err := s.ports.dialPinned(srv.Addr().String(), srv.OwnerOf, i)
		if err != nil {
			return err
		}
		defer closeRST(conn)
		c, err := wsaff.NewClient(conn, "/ws")
		if err != nil {
			return err
		}
		ops = append(ops, func() error {
			echoes[i].n++
			_, err := c.Echo(wsaff.OpText, s.pay.small)
			return err
		})
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	rtt, _, err := s.rtt(ops)
	if err != nil {
		return err
	}
	metrics.Read(allocs)
	s.add("wsaff.echo_rtt_us", rtt, "us")
	s.add("wsaff.allocs_per_frame", float64(allocs[0].Value.Uint64()-before)/float64(echoes[0].n+echoes[1].n), "count")
	return nil
}
