package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"affinityaccept/serve"
)

// clockBase is the zero of the benchmark clock, which every timestamp
// in the loader, the handlers and the stages reads.
var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

// slices is how many equal parts a timed window is cut into. Every
// timed metric is computed per slice and the run reports the median
// slice, so one disturbed stretch of the window — a neighbour's burst,
// a GC cycle landing badly — moves nothing (see README, "why slices").
const slices = 10

// options are what the command line chooses.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// quick shrinks set-up and stages for the smoke test: two timed
	// set-ups, a twentieth of the warm-up, one short repetition per stage.
	quick  bool
	outDir string
}

// env is one set-up: a started server and both clients' operations.
type env struct {
	w      *workload
	sut    *sut
	links  []*link
	plain  []*clientOp
	traced []*clientOp // nil in the untraced run
	ids    []*idSource
	dialNs int64    // total time of the pinned dials (0 for churn)
	count  *opCount // the run's tally
}

// opCount is the contract's tally: every request the loader sent in
// this process, warm-up included, and how many failed or could not be
// verified.
type opCount struct{ attempted, failed int64 }

func (n *opCount) add(o opCount) {
	n.attempted += o.attempted
	n.failed += o.failed
}

// failBudget is how many failed operations one client rides out in one
// phase (the warm-up, a window). A failed operation is counted, its
// connection replaced and the loop goes on, so a transient error costs
// the run one operation and shows in the report's counts; past the
// budget the server is broken, and the client stops sending.
const failBudget = 50

// setUp starts the server, connects both clients (pinned workloads:
// client i from a source port owned by worker i) and completes one
// verified operation on each, which is every lazy initialisation on the
// path: arena context, connection state, park wrapper, epoll
// registration, buffer growth. With process start before it, this is
// what setup_s times.
func setUp(w *workload, pay *payloads, ports *portPicker, tr *tracer, count *opCount) (*env, error) {
	s, err := startSUT(pay, tr)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, sut: s, count: count}
	for i := 0; i < clients; i++ {
		ids := &idSource{client: i}
		e.ids = append(e.ids, ids)
		var dial func() (net.Conn, error)
		if w.pinned {
			dial = func() (net.Conn, error) { return ports.dialPinned(s.addr(), s.srv.OwnerOf, i) }
		}
		t0 := nanos()
		l, err := newLink(dial)
		if err != nil {
			e.tearDown()
			return nil, err
		}
		if w.pinned {
			e.dialNs += nanos() - t0
		}
		e.links = append(e.links, l)
		build := func(traced bool) *clientOp {
			cycle := w.requests(pay, traced)
			if !w.pinned {
				return churnOp(s.addr(), l.rd, cycle[0], ids)
			}
			return persistentOp(l, cycle, w.depth, ids)
		}
		e.plain = append(e.plain, build(false))
		if tr != nil {
			e.traced = append(e.traced, build(true))
		}
	}
	e.repeat(1)
	return e, nil
}

// try has client i do one operation and counts it in n. A failed
// operation is reported on standard error (a client's first only) and
// the client reconnects; goOn is false once the client has used up its
// failure budget or cannot reconnect.
func (e *env) try(i int, op *clientOp, ot *opTimes, n *opCount) (ok, goOn bool) {
	n.attempted += int64(op.reqs)
	err := op.do(ot)
	if err == nil {
		return true, true
	}
	n.failed += int64(op.reqs)
	fails := n.failed / int64(op.reqs)
	if fails == 1 {
		fmt.Fprintf(os.Stderr, "bench: %s: client %d: operation failed: %v\n", e.w.name, i, err)
	}
	if fails > failBudget {
		fmt.Fprintf(os.Stderr, "bench: %s: client %d: gave up after %d failed operations\n", e.w.name, i, fails)
		return false, false
	}
	if err := e.links[i].redial(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: client %d: cannot reconnect: %v\n", e.w.name, i, err)
		return false, false
	}
	return false, true
}

// repeat has each client complete n operations, at once.
func (e *env) repeat(n int) {
	counts := make([]opCount, clients)
	var wg sync.WaitGroup
	for i, op := range e.plain {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ot opTimes
			var c opCount
			for k, goOn := 0, true; k < n && goOn; k++ {
				_, goOn = e.try(i, op, &ot, &c)
			}
			counts[i] = c
		}()
	}
	wg.Wait()
	for _, c := range counts {
		e.count.add(c)
	}
}

// warmUp sends the workload's fixed warm-up count, split between the
// clients, so the timed window starts on a settled server. It is not
// part of setup_s: its duration is the request rate over again, and on
// keepalive it is bimodal (see README, "what setup_s times").
func (e *env) warmUp(o *options) {
	n := e.w.warm / e.w.depth / clients
	if o.quick {
		n /= 20
	}
	e.repeat(n)
}

// tearDown closes the clients and stops the server.
func (e *env) tearDown() error {
	for _, l := range e.links {
		l.close()
	}
	return e.sut.stop()
}

// window is one timed closed-loop window's raw result.
type window struct {
	sliceNs int64
	lat     [clients][slices]hist
	reqs    [clients][slices]int64
	cpuNs   [slices + 1]int64 // process CPU at each slice boundary
	rssMB   []float64         // resident set size, sampled every rssTick through the window
	opCount
	err error // the window could not be measured (failed operations are in opCount)
}

// rssTick is how often the window samples the resident set size (it is
// rounded so that a whole number of samples fits a slice).
const rssTick = 50 * time.Millisecond

// runWindow drives both clients for seconds and records, per slice, the
// latency of every operation that completed in it and the process CPU
// at its boundaries, and samples the resident set size throughout. With
// a tracer the operations carry ids and their spans are collected.
func runWindow(e *env, seconds float64, tr *tracer) *window {
	win := &window{sliceNs: int64(seconds * 1e9 / slices)}
	ticks := max(1, int(win.sliceNs/int64(rssTick))) // samples per slice
	win.rssMB = make([]float64, 0, slices*ticks)
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		win.err = err
		return win
	}
	defer statm.Close()
	ops := e.plain
	if tr != nil {
		ops = e.traced
	}
	counts := make([]opCount, clients)
	start := make(chan struct{})
	var t0 int64
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ot := opTimes{traced: tr != nil}
			lat, reqs := &win.lat[i], &win.reqs[i]
			// The tally stays on this goroutine's stack until the end:
			// the two clients' slots share a cache line.
			var n opCount
			defer func() { counts[i] = n }()
			<-start
			end := t0 + win.sliceNs*slices
			for nanos() < end {
				ok, goOn := e.try(i, op, &ot, &n)
				if !goOn {
					return
				}
				if !ok {
					continue
				}
				if tr != nil {
					tr.collect(i, e.ids[i].last, &ot)
				}
				if s := (ot.done - t0) / win.sliceNs; s < slices {
					lat[s].record(ot.done - ot.start)
					reqs[s] += int64(op.reqs)
				}
			}
		}()
	}
	t0 = nanos()
	win.cpuNs[0] = cpuNanos()
	close(start)
	var rssErr error
	for s := 1; s <= slices; s++ {
		for k := 1; k <= ticks; k++ {
			time.Sleep(time.Duration(t0 + int64(s-1)*win.sliceNs + int64(k)*win.sliceNs/int64(ticks) - nanos()))
			mb, err := residentMB(statm)
			if err != nil {
				rssErr = err
			}
			win.rssMB = append(win.rssMB, mb)
		}
		win.cpuNs[s] = cpuNanos()
	}
	wg.Wait()
	for _, c := range counts {
		win.add(c)
	}
	win.err = rssErr
	return win
}

// timed are a window's timed metrics: each the median over the slices
// of the per-slice value.
type timed struct {
	rps, p50us, p90us, cpuUsPerReq float64
}

func (win *window) timed() timed {
	var rps, p50, p90, cpu []float64
	for s := 0; s < slices; s++ {
		h := win.lat[0][s]
		n := win.reqs[0][s]
		for c := 1; c < clients; c++ {
			h.merge(&win.lat[c][s])
			n += win.reqs[c][s]
		}
		rps = append(rps, float64(n)/(float64(win.sliceNs)/1e9))
		p50 = append(p50, h.quantile(0.50)/1e3)
		p90 = append(p90, h.quantile(0.90)/1e3)
		if n > 0 {
			cpu = append(cpu, float64(win.cpuNs[s+1]-win.cpuNs[s])/1e3/float64(n))
		}
	}
	return timed{rps: median(rps), p50us: median(p50), p90us: median(p90), cpuUsPerReq: median(cpu)}
}

// whole returns the window's latency histogram over all slices.
func (win *window) whole() *hist {
	h := new(hist)
	for c := range win.lat {
		for s := range win.lat[c] {
			h.merge(&win.lat[c][s])
		}
	}
	return h
}

func (win *window) requests() int64 {
	var n int64
	for c := range win.reqs {
		for _, r := range win.reqs[c] {
			n += r
		}
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// checkPlacement is the run validity guard: the run only counts if the
// server did what the workload says it did. No connection was dropped
// at a full queue, and on a pinned workload no flow group migrated and
// each worker served its own client — 45–55% of the handler passes —
// so every pass was local to the worker the source port was picked for.
// The shares are only checked on full-size runs: over a smoke run's
// fraction of a second the two clients do not get equal turns.
func checkPlacement(w *workload, st serve.Stats, shares bool) error {
	if st.Dropped != 0 {
		return fmt.Errorf("server dropped %d connections", st.Dropped)
	}
	if !w.pinned {
		return nil
	}
	if st.Migrations != 0 {
		return fmt.Errorf("%d flow-group migrations on a pinned workload", st.Migrations)
	}
	if !shares {
		return nil
	}
	for _, ws := range st.Workers {
		share := float64(ws.ServedLocal+ws.ServedStolen) / float64(st.Served)
		if share < 0.45 || share > 0.55 {
			return fmt.Errorf("worker %d served %.1f%% of passes, want 45-55%%", ws.Worker, 100*share)
		}
	}
	return nil
}

// result is what one run reports.
type result struct {
	opCount
	metrics []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

// errInvalid marks a run whose validity guards failed: it is retried,
// never reported.
var errInvalid = errors.New("invalid run")

// setupOnce is one cold set-up in this process, for the parent process
// to time from outside (see measureSetup): it announces on standard
// output that both clients hold a verified response, then tears down.
func setupOnce(w *workload, o *options) error {
	var n opCount
	e, err := setUp(w, makePayloads(o.seed), newPortPicker(o.seed), nil, &n)
	if err != nil {
		return err
	}
	if n.failed != 0 {
		e.tearDown()
		return errors.New("the set-up's first operation failed")
	}
	fmt.Println("ready")
	return e.tearDown()
}

// runUntraced is the end-to-end run: set up, warm up, one timed window,
// the guards, shutdown.
func runUntraced(w *workload, o *options) (*result, error) {
	var res result
	e, err := setUp(w, makePayloads(o.seed), newPortPicker(o.seed), nil, &res.opCount)
	if err != nil {
		return &res, err
	}
	e.warmUp(o)
	win := runWindow(e, o.seconds, nil)
	res.add(win.opCount)
	guard := checkPlacement(w, e.sut.srv.Stats(), !o.quick)
	if err := errors.Join(win.err, e.tearDown()); err != nil {
		return &res, err
	}
	if guard != nil {
		return &res, fmt.Errorf("%w: %v", errInvalid, guard)
	}
	t := win.timed()
	res.metrics = []metric{
		{"rps", t.rps, "1/s"},
		{"lat_p50_us", t.p50us, "us"},
		{"lat_p90_us", t.p90us, "us"},
		{"cpu_us_per_req", t.cpuUsPerReq, "us"},
		{"rss_mb", median(win.rssMB), "MB"},
	}
	return &res, nil
}
