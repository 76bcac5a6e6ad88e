package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"

	"affinityaccept/serve"
)

// A traced run splits --seconds three ways, so that it takes as long as
// an untraced run: a reference window without tracing (the base of
// trace.overhead_pct), the traced window, and the stages.
const (
	refShare    = 1.0 / 6
	tracedShare = 1.0 / 3
	stageShare  = 1.0 / 2
)

// layerSnap is every layer's counters at one boundary of the traced
// window, read through public accessors only.
type layerSnap struct {
	stats     serve.Stats
	evReady   uint64  // evloop deliveries, from the metrics scrape
	allocs    uint64  // heap objects allocated
	mutexWait float64 // seconds goroutines waited on sync.Mutex
	sched     *metrics.Float64Histogram
	gcPauseNs uint64
	vcsw      int64 // voluntary context switches: one per thread sleep
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func snapshotLayers(s *sut) (layerSnap, error) {
	snap := layerSnap{stats: s.srv.Stats(), vcsw: rusage().Nvcsw}

	var scrape bytes.Buffer
	s.srv.Transport().WriteObsMetrics(&scrape)
	sc := bufio.NewScanner(&scrape)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "affinity_evloop_ready_total{"); ok {
			n, err := strconv.ParseUint(v[strings.IndexByte(v, ' ')+1:], 10, 64)
			if err != nil {
				return snap, fmt.Errorf("metrics scrape: %q: %w", sc.Text(), err)
			}
			snap.evReady += n
		}
	}

	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, sm := range samples {
		if sm.Value.Kind() == metrics.KindBad {
			return snap, fmt.Errorf("runtime/metrics has no %s", sm.Name)
		}
	}
	snap.allocs = samples[0].Value.Uint64()
	snap.mutexWait = samples[1].Value.Float64()
	h := samples[2].Value.Float64Histogram()
	snap.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.gcPauseNs = ms.PauseTotalNs
	return snap, nil
}

// histDeltaQuantile is the q-quantile, as a bucket's upper edge, of the
// samples a runtime histogram gained between two reads.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if seen >= rank {
			if up := after.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// runTraced is the per-layer run. It never reports an end-to-end
// metric: those come from the untraced run only.
func runTraced(w *workload, o *options) (*result, error) {
	pay, ports := makePayloads(o.seed), newPortPicker(o.seed)
	tr := newTracer(clients)
	var res result
	e, err := setUp(w, pay, ports, tr, &res.opCount)
	if err != nil {
		return &res, err
	}
	e.warmUp(o)
	ref := runWindow(e, o.seconds*refShare, nil)
	before, err1 := snapshotLayers(e.sut)
	win := runWindow(e, o.seconds*tracedShare, tr)
	after, err2 := snapshotLayers(e.sut)
	res.add(ref.opCount)
	res.add(win.opCount)
	svc := e.sut.srv.ServiceLatencyQuantiles(0.5, 0.99)
	park := e.sut.srv.Transport().ParkDurationSnapshot().Quantile(0.5)
	goroutines := runtime.NumGoroutine()
	guard := checkPlacement(w, e.sut.srv.Stats(), !o.quick)
	if err := errors.Join(ref.err, win.err, err1, err2, e.tearDown()); err != nil {
		return &res, err
	}
	if guard != nil {
		return &res, fmt.Errorf("%w: %v", errInvalid, guard)
	}

	// Every traced operation must have its handler span, and the span
	// must lie inside the operation: start <= connected <= handler entry
	// <= handler exit <= done on the one clock. Then connect, in, handler
	// and out are the round trip split four ways, and a slot joined to
	// the wrong request cannot go unnoticed.
	p := tr.sums()
	if p.ops == 0 || p.unmatched != 0 || p.misordered != 0 {
		return &res, fmt.Errorf("trace does not join: %d operations, %d without a handler span, %d with a handler span outside the request",
			p.ops, p.unmatched, p.misordered)
	}
	file, err := tr.writeSpans(o.outDir, w.name)
	if err != nil {
		return &res, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: spans of the first %d operations per client written to %s\n", w.name, traceCap, file)

	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(p.ops) }
	connectUs := perOp(p.connect)
	if w.pinned {
		// A persistent connection dials during set-up, not per request.
		connectUs = float64(e.dialNs) / 1e3 / clients
	}
	reqs := float64(win.requests())
	secs := o.seconds * tracedShare
	ds, da := before.stats, after.stats
	served := float64(da.Served - ds.Served)
	res.metrics = []metric{
		{"path.connect_us", connectUs, "us"},
		{"path.in_us", perOp(p.in), "us"},
		{"path.handler_us", perOp(p.handler), "us"},
		{"path.out_us", perOp(p.out), "us"},
		{"path.lat_p99_us", win.whole().quantile(0.99) / 1e3, "us"},
		{"trace.overhead_pct", 100 * (1 - win.timed().rps/ref.timed().rps), "%"},

		{"serve.accepted_per_req", float64(da.Accepted-ds.Accepted) / reqs, "count"},
		{"serve.requeued_per_req", float64(da.Requeued-ds.Requeued) / reqs, "count"},
		{"serve.locality_pct", 100 * float64(da.ServedLocal-ds.ServedLocal) / served, "%"},
		{"serve.steal_pct", 100 * float64(da.ServedStolen-ds.ServedStolen) / served, "%"},
		{"serve.dropped", float64(da.Dropped - ds.Dropped), "count"},
		{"serve.migrations", float64(da.Migrations - ds.Migrations), "count"},
		{"serve.park_p50_us", float64(park) / 1e3, "us"},

		{"evloop.ready_per_req", float64(after.evReady-before.evReady) / reqs, "count"},

		{"httpaff.service_p50_us", float64(svc[0].Nanoseconds()) / 1e3, "us"},
		{"httpaff.service_p99_us", float64(svc[1].Nanoseconds()) / 1e3, "us"},
		{"httpaff.pool_reuse_pct", da.Pool.ReusePct(), "%"},

		{"runtime.allocs_per_req", float64(after.allocs-before.allocs) / reqs, "count"},
		{"runtime.mutex_wait_ns_per_req", (after.mutexWait - before.mutexWait) * 1e9 / reqs, "ns"},
		{"runtime.sched_lat_p50_us", histDeltaQuantile(before.sched, after.sched, 0.5) * 1e6, "us"},
		{"runtime.sched_lat_p99_us", histDeltaQuantile(before.sched, after.sched, 0.99) * 1e6, "us"},
		{"runtime.gc_pause_us_per_s", float64(after.gcPauseNs-before.gcPauseNs) / 1e3 / secs, "us/s"},
		{"runtime.vcsw_per_req", float64(after.vcsw-before.vcsw) / reqs, "count"},
		{"runtime.goroutines", float64(goroutines), "count"},
	}
	stages, err := runStages(o, pay, ports)
	if err != nil {
		return &res, fmt.Errorf("stages: %w", err)
	}
	res.metrics = append(res.metrics, stages...)
	return &res, nil
}
