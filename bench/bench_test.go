package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"affinityaccept/internal/core"
	"affinityaccept/serve"
)

// TestHistQuantileOracle checks the fixed-size histogram against a
// sorted slice: every quantile within the bucket resolution.
func TestHistQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct {
		name string
		gen  func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(2_000_000) }},
		{"lognormal", func() int64 { return int64(math.Exp(10 + 2*rng.NormFloat64())) }},
		{"small", func() int64 { return rng.Int63n(200) }},
		{"bimodal", func() int64 { return []int64{26_000, 1_200_000}[rng.Intn(2)] + rng.Int63n(1000) }},
	} {
		var h hist
		vals := make([]int64, 50_000)
		for i := range vals {
			vals[i] = shape.gen()
			h.record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
			got := h.quantile(q)
			if math.Abs(got-want) > want/histSub+1 {
				t.Errorf("%s: quantile(%g) = %g, sorted slice has %g", shape.name, q, got, want)
			}
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram: quantile = %g, want 0", got)
	}
	var clamp hist
	clamp.record(-5)
	clamp.record(math.MaxInt64)
	if clamp.n != 2 || clamp.counts[0] != 1 || clamp.counts[histBuckets-1] != 1 {
		t.Errorf("out-of-range values must land in the first and last bucket")
	}
}

func TestHistBucketsTile(t *testing.T) {
	next := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, width := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, next)
		}
		if histIndex(lo) != i || histIndex(lo+width-1) != i {
			t.Fatalf("bucket %d [%d,%d) does not index to itself", i, lo, lo+width)
		}
		next = lo + width
	}
	if next != 1<<histMaxExp {
		t.Fatalf("buckets end at %d, want %d", next, int64(1)<<histMaxExp)
	}
}

// TestSliceMedian checks the aggregator: per-slice values, then the
// median slice, so a disturbed slice moves nothing.
func TestSliceMedian(t *testing.T) {
	win := &window{sliceNs: 1e9}
	for s := 0; s < slices; s++ {
		lat, n := int64(20_000), int64(1000)
		if s == 3 { // one slice stalls: ten times slower, a tenth of the work
			lat, n = 200_000, 100
		}
		for c := 0; c < clients; c++ {
			for i := int64(0); i < n; i++ {
				win.lat[c][s].record(lat)
			}
			win.reqs[c][s] = n
		}
		win.cpuNs[s+1] = win.cpuNs[s] + 2*n*10_000
	}
	got := win.timed()
	if got.rps != 2000 {
		t.Errorf("rps = %g, want the median slice's 2000", got.rps)
	}
	if math.Abs(got.p50us-20) > 20.0/histSub || math.Abs(got.p90us-20) > 20.0/histSub {
		t.Errorf("p50 = %g, p90 = %g, want the median slice's 20", got.p50us, got.p90us)
	}
	if got.cpuUsPerReq != 10 {
		t.Errorf("cpu_us_per_req = %g, want 10", got.cpuUsPerReq)
	}
	if win.requests() != 2*(9*1000+100) {
		t.Errorf("requests = %d", win.requests())
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}

// TestPortPickerAgreesWithOwnerOf checks that every port the picker
// hands out for a worker is one the flow table routes to that worker,
// for both workers and any seed, and that it walks without repeating.
func TestPortPickerAgreesWithOwnerOf(t *testing.T) {
	ft := core.NewGuardedFlowTable(core.DefaultFlowGroups, sutWorkers)
	for _, seed := range []int64{0, 1, 19999, 20000, -7, 1 << 40} {
		p := newPortPicker(seed)
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			want := i % sutWorkers
			port, err := p.pick(ft.CoreForPort, want)
			if err != nil {
				t.Fatal(err)
			}
			if port < pinPortLo || port >= pinPortHi {
				t.Fatalf("seed %d: port %d outside [%d,%d)", seed, port, pinPortLo, pinPortHi)
			}
			if got := ft.CoreForPort(uint16(port)); got != want {
				t.Fatalf("seed %d: port %d is owned by worker %d, picked for %d", seed, port, got, want)
			}
			if seen[port] {
				t.Fatalf("seed %d: port %d handed out twice", seed, port)
			}
			seen[port] = true
		}
	}
	if _, err := newPortPicker(1).pick(func(uint16) int { return 0 }, 1); err == nil {
		t.Error("pick must fail when no port is owned by the wanted worker")
	}
}

func response(status string, contentLength int, body string) string {
	return fmt.Sprintf("HTTP/1.1 %s\r\nServer: t\r\nContent-Length: %d\r\n\r\n%s", status, contentLength, body)
}

// oneByte delivers a stream one byte per read, the worst fragmentation.
type oneByte struct{ r *strings.Reader }

func (o oneByte) Read(p []byte) (int, error) { return o.r.Read(p[:1]) }

func TestResponseVerifier(t *testing.T) {
	want := []byte("hello, bench")
	good := response("200 OK", len(want), string(want))
	for _, tc := range []struct {
		name, wire string
		err        error
	}{
		{"good", good, nil},
		{"pipelined", good + good, nil},
		{"wrong status", response("503 Service Unavailable", len(want), string(want)), errStatus},
		{"wrong length", response("200 OK", len(want)-1, string(want[:len(want)-1])), errLength},
		{"wrong body", response("200 OK", len(want), "hello, bunch"), errBody},
		{"truncated body", good[:len(good)-3], errTruncated},
		{"truncated head", good[:20], errTruncated},
		{"no length", "HTTP/1.1 200 OK\r\nServer: t\r\n\r\n", errNoLength},
	} {
		for _, frag := range []bool{false, true} {
			var rd = newRespReader(strings.NewReader(tc.wire))
			if frag {
				rd = newRespReader(oneByte{strings.NewReader(tc.wire)})
			}
			err := rd.readResponse(want)
			if !errors.Is(err, tc.err) {
				t.Errorf("%s (fragmented %v): got %v, want %v", tc.name, frag, err, tc.err)
			}
			if tc.name == "pipelined" {
				if err := rd.drained(); !frag && !errors.Is(err, errSurplus) {
					t.Errorf("a second buffered response must count as surplus, got %v", err)
				}
				if err := rd.readResponse(want); err != nil {
					t.Errorf("second pipelined response: %v", err)
				}
			}
			if tc.err == nil && rd.drained() != nil {
				t.Errorf("%s: bytes left after the last response", tc.name)
			}
		}
	}

	// A response that straddles the end of the buffer is moved down.
	rd := newRespReader(strings.NewReader(good + good))
	rd.buf = make([]byte, len(good)+10)
	for i := 0; i < 2; i++ {
		if err := rd.readResponse(want); err != nil {
			t.Fatalf("response %d through a small buffer: %v", i, err)
		}
	}
	rd = newRespReader(strings.NewReader(good))
	rd.buf = make([]byte, len(good)-1)
	if err := rd.readResponse(want); err == nil {
		t.Error("a response larger than the buffer must fail")
	}
}

func TestRequestIDs(t *testing.T) {
	r := buildRequest("GET", "/small", nil, nil, false, true)
	wire := r.repeat(3)
	ids := &idSource{client: 1}
	ids.stamp(wire, r, 3)
	if n := bytes.Count(wire, []byte("X-Bench-Id: 0100000000000001\r\n")); n != 3 {
		t.Fatalf("stamped id found %d times in %q", n, wire)
	}
	if id, ok := parseID([]byte("0100000000000001")); !ok || id != ids.last || id>>56 != 1 {
		t.Errorf("parseID = %x, %v; last = %x", id, ok, ids.last)
	}
	for _, bad := range []string{"", "123", "010000000000000g", "01000000000000011"} {
		if _, ok := parseID([]byte(bad)); ok {
			t.Errorf("parseID(%q) must fail", bad)
		}
	}
	if plain := buildRequest("GET", "/small", nil, nil, true, false); plain.idOff != -1 ||
		!bytes.Contains(plain.wire, []byte("Connection: close\r\n")) || bytes.Contains(plain.wire, []byte(benchIDHeader)) {
		t.Errorf("untraced closing request: %q", plain.wire)
	}
}

// TestMain lets the test binary stand in for the benchmark program:
// runFresh starts os.Executable() again with --child, and that process
// must run main, not the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmokeMatchesBenchmarkJSON runs every workload the way the driver
// does — set-up processes, then the run in a child process — with short
// windows, and one traced run, and checks that what is reported and what
// BENCHMARK.json declares are the same names with the same units.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	decl, err := readBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, rep *report, want []declared) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d requests failed", kind, rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%s: run reported %d metrics, BENCHMARK.json declares %d", kind, len(rep.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := rep.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is declared in BENCHMARK.json but not reported", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s reported in %q, declared in %q", kind, d.Name, m.Unit, d.Unit)
			case d.Bound != nil && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %g", kind, d.Name, m.Value)
			}
			delete(rep.Metrics, d.Name)
		}
		for name := range rep.Metrics {
			t.Errorf("%s: %s is reported but not declared in BENCHMARK.json", kind, name)
		}
	}
	o := &options{seed: 3, seconds: 0.3, quick: true, outDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		rep, err := runFresh(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(w.name, rep, decl.EndToEnd)
	}
	o.trace = true
	rep, err := runFresh(findWorkload("keepalive"), o)
	if err != nil {
		t.Fatal(err)
	}
	check("traced keepalive", rep, decl.PerLayer)
	spans, err := os.ReadFile(filepath.Join(o.outDir, "trace-keepalive.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []struct {
			Req, Name, Parent string
			Start, End        int64
		}
	}
	if err := json.Unmarshal(spans, &doc); err != nil {
		t.Fatalf("span file: %v", err)
	}
	names := map[string]int{}
	for _, s := range doc.Spans {
		names[s.Name]++
		if s.End < s.Start || (s.Name == "request") != (s.Parent == "") {
			t.Fatalf("bad span %+v", s)
		}
	}
	for _, name := range []string{"request", "write", "wait", "read", "handler"} {
		if names[name] == 0 || names[name] != names["request"] {
			t.Errorf("span file has %d %q spans for %d requests", names[name], name, names["request"])
		}
	}
}

// TestCheckPlacement feeds the validity guard the server states it
// exists to reject.
func TestCheckPlacement(t *testing.T) {
	split := func(a, b uint64) serve.Stats {
		return serve.Stats{Served: a + b, ServedLocal: a + b, Workers: []serve.WorkerStats{
			{Worker: 0, ServedLocal: a}, {Worker: 1, ServedLocal: b}}}
	}
	dropped, migrated := split(500, 500), split(500, 500)
	dropped.Dropped = 1
	migrated.Migrations = 1
	stolen := split(500, 400)
	stolen.Workers[1].ServedStolen, stolen.Served = 100, 1000
	pinned, churn := findWorkload("keepalive"), findWorkload("churn")
	for _, tc := range []struct {
		name   string
		w      *workload
		st     serve.Stats
		shares bool
		ok     bool
	}{
		{"even", pinned, split(500, 500), true, true},
		{"edge of the band", pinned, split(549, 451), true, true},
		{"stolen passes count for the thief", pinned, stolen, true, true},
		{"one worker ahead", pinned, split(581, 419), true, false},
		{"both clients on one worker", pinned, split(1000, 0), true, false},
		{"shares unchecked on a smoke run", pinned, split(581, 419), false, true},
		{"dropped", pinned, dropped, true, false},
		{"dropped on churn", churn, dropped, true, false},
		{"migrated", pinned, migrated, false, false},
		{"churn is not pinned", churn, split(700, 300), true, true},
	} {
		if err := checkPlacement(tc.w, tc.st, tc.shares); (err == nil) != tc.ok {
			t.Errorf("%s: checkPlacement = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// TestFailedOperationsAreCounted: a failed operation costs one count
// and a reconnect, not the run, until the budget is spent.
func TestFailedOperationsAreCounted(t *testing.T) {
	boom := errors.New("boom")
	calls, dials := 0, 0
	l := &link{rd: newRespReader(nil), dial: func() (net.Conn, error) {
		dials++
		return nil, nil
	}}
	e := &env{w: findWorkload("pipelined"), links: []*link{l}}
	op := &clientOp{reqs: pipelineDepth, do: func(*opTimes) error {
		if calls++; calls%2 == 0 {
			return boom
		}
		return nil
	}}
	var n opCount
	var ot opTimes
	for k := 0; k < 10; k++ {
		ok, goOn := e.try(0, op, &ot, &n)
		if ok != (k%2 == 0) || !goOn {
			t.Fatalf("operation %d: ok %v, goOn %v", k, ok, goOn)
		}
	}
	if n.attempted != 10*pipelineDepth || n.failed != 5*pipelineDepth || dials != 5 {
		t.Errorf("attempted %d, failed %d, %d redials; want %d, %d, 5", n.attempted, n.failed, dials, 10*pipelineDepth, 5*pipelineDepth)
	}
	op.do = func(*opTimes) error { return boom }
	goOn := true
	for k := 0; goOn; k++ {
		if _, goOn = e.try(0, op, &ot, &n); k > 2*failBudget {
			t.Fatal("the failure budget never ran out")
		}
	}
	l.dial = func() (net.Conn, error) { return nil, boom }
	if _, goOn := e.try(0, op, &ot, new(opCount)); goOn {
		t.Error("a client that cannot reconnect must stop")
	}
}

// TestRunReportsFailures drives the real server with a client that
// expects the wrong body every second time: the run must go on over
// fresh connections and come back with the counts, not with an error.
func TestRunReportsFailures(t *testing.T) {
	w := *findWorkload("keepalive")
	w.requests = func(p *payloads, traced bool) []*request {
		return []*request{
			buildRequest("GET", "/small", nil, p.small, false, traced),
			buildRequest("GET", "/small", nil, p.large[:smallSize], false, traced),
		}
	}
	res, err := runUntraced(&w, &options{seed: 4, seconds: 0.2, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The set-up's operation succeeds; then each client fails every
	// second operation until its budget is spent, in the warm-up and
	// again in the window.
	if res.failed < 2*failBudget || res.failed > 4*(failBudget+1) || res.attempted < 2*res.failed {
		t.Errorf("%d of %d requests failed", res.failed, res.attempted)
	}
	if len(res.metrics) == 0 {
		t.Error("a run with failed operations must still report its metrics")
	}
}

// TestTraceJoin: a handler span must belong to the request and lie
// inside it, or the operation does not count as traced.
func TestTraceJoin(t *testing.T) {
	tr := newTracer(clients)
	ids := &idSource{client: 1}
	id := ids.next()
	slot := tr.enter(id)
	slot.in.Store(120)
	tr.enter(id) // a second request of the same batch must not move the entry
	slot.exit(1)
	slot.out.Store(150)
	tr.collect(1, id, &opTimes{start: 100, connected: 110, done: 200})
	tr.collect(1, ids.next(), &opTimes{start: 210, connected: 210, done: 300}) // the handler never saw this id
	slot = tr.enter(ids.last)
	slot.in.Store(205) // a stale entry, from before the request was written
	slot.out.Store(250)
	tr.collect(1, ids.last, &opTimes{start: 210, connected: 210, done: 300})
	got := tr.sums()
	want := pathSums{ops: 3, unmatched: 1, misordered: 1, connect: 10, in: 10, handler: 30, out: 50, rtt: 100}
	if got != want {
		t.Errorf("sums = %+v, want %+v", got, want)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives, since that is what the benchmark
// driver computes a spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}
