package httpaff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/obs"
	"affinityaccept/internal/testutil"
)

// TestServiceLatencyHistogram drives real requests through the server
// and checks the request-path histograms observed them: nonzero count,
// plausible latencies, request/response sizes that bracket the actual
// wire traffic.
func TestServiceLatencyHistogram(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)

	const rounds = 8
	for i := 0; i < rounds; i++ {
		fmt.Fprintf(conn, "GET /obs HTTP/1.1\r\nHost: x\r\n\r\n")
		code, _, body := readResponse(t, br)
		if code != 200 || string(body) != "/obs" {
			t.Fatalf("round %d: got %d %q", i, code, body)
		}
	}

	// A sample is recorded after its response has flushed, so the last
	// one may trail the client's read of it.
	testutil.WaitFor(t, 5*time.Second, func() bool { return s.mergedSvc().Count >= rounds },
		"last request's service sample never recorded")
	m := s.mergedSvc()
	if m.Count != rounds {
		t.Fatalf("service histogram count %d, want %d", m.Count, rounds)
	}
	qs := s.ServiceLatencyQuantiles(0.5, 0.99, 0.999)
	if len(qs) != 3 {
		t.Fatalf("got %d quantiles", len(qs))
	}
	for i, q := range qs {
		if q <= 0 || q > 5*time.Second {
			t.Errorf("quantile %d = %v, not plausible for a loopback echo", i, q)
		}
	}
	if qs[0] > qs[2] {
		t.Errorf("p50 %v > p999 %v", qs[0], qs[2])
	}

	// The request was 28 bytes on the wire; the log-bucketed histogram
	// may round up by its relative error but never below the true size.
	req := s.obsw[0].reqBytes.Snapshot()
	for i := 1; i < len(s.obsw); i++ {
		req.Merge(s.obsw[i].reqBytes.Snapshot())
	}
	if req.Count != rounds {
		t.Fatalf("request-size count %d, want %d", req.Count, rounds)
	}
	if lo, hi := req.Quantile(0), req.Quantile(1); lo < 28 || hi > 64 {
		t.Errorf("request sizes [%d, %d], want around the 28-byte request", lo, hi)
	}
}

// TestMetricsHandlerComposes scrapes the unified /metrics endpoint over
// the wire and checks it carries all three planes — the classic
// counters, the HTTP layer's histograms, the transport's event/evloop
// series — plus an extra writer stacked in the way proxyaff and wsaff
// compose theirs.
func TestMetricsHandlerComposes(t *testing.T) {
	var s *Server
	r := NewRouter()
	r.Handle("/", echoPath)
	r.Handle("/metrics", func(ctx *RequestCtx) {
		MetricsHandler(s, func(w io.Writer) {
			fmt.Fprintf(w, "affinity_extra_series_total 7\n")
		})(ctx)
	})
	s = start(t, Config{Workers: 1, Handler: r.Serve})
	conn, br := dial(t, s)
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	readResponse(t, br)

	fmt.Fprintf(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || !strings.HasPrefix(headers["content-type"], "text/plain") {
		t.Fatalf("/metrics: %d %q", code, headers["content-type"])
	}
	out := string(body)
	for _, series := range []string{
		"affinity_served_total{worker=\"0\",queue=\"local\"}",
		"affinity_pool_reuses_total{worker=\"0\"}",
		"# TYPE affinity_http_request_duration_seconds histogram",
		"affinity_http_request_duration_seconds_bucket{le=\"+Inf\"}",
		"affinity_http_request_size_bytes_sum",
		"affinity_http_response_size_bytes_count",
		"# TYPE affinity_park_duration_seconds histogram",
		"affinity_events_recorded_total",
		"affinity_clock_lag_seconds{worker=\"0\"}",
		"affinity_extra_series_total 7",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("unified metrics missing %q", series)
		}
	}
}

// TestEventsHandlerJSON mounts the /debug/events endpoint and checks it
// serves the transport's timeline: valid JSON, ordered sequence numbers,
// and at least the accept event the warm-up request generated.
func TestEventsHandlerJSON(t *testing.T) {
	var s *Server
	r := NewRouter()
	r.Handle("/", echoPath)
	r.Handle("/debug/events", func(ctx *RequestCtx) { EventsHandler(s)(ctx) })
	s = start(t, Config{Workers: 1, Handler: r.Serve})
	conn, br := dial(t, s)
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	readResponse(t, br)

	fmt.Fprintf(conn, "GET /debug/events HTTP/1.1\r\nHost: x\r\n\r\n")
	code, headers, raw := readResponse(t, br)
	if code != 200 || headers["content-type"] != "application/json" {
		t.Fatalf("/debug/events: %d %q", code, headers["content-type"])
	}
	out := string(raw)
	var body struct {
		Recorded uint64      `json:"recorded"`
		Dropped  uint64      `json:"dropped"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(out), &body); err != nil {
		t.Fatalf("events endpoint served invalid JSON: %v\n%s", err, out)
	}
	if body.Recorded == 0 || len(body.Events) == 0 {
		t.Fatalf("no events after a served request: recorded %d, drained %d", body.Recorded, len(body.Events))
	}
	var sawAccept bool
	for i, ev := range body.Events {
		if i > 0 && ev.Seq <= body.Events[i-1].Seq {
			t.Errorf("timeline out of order at %d: seq %d after %d", i, ev.Seq, body.Events[i-1].Seq)
		}
		if ev.Kind == obs.KindAccept {
			sawAccept = true
		}
	}
	if !sawAccept {
		t.Error("timeline has no accept event")
	}
}

// TestEventsHandlerSinceCursor pins the incremental-poll contract over
// the wire: a poller that always passes the largest Seq it has seen
// receives every event exactly once — nothing double-delivered, nothing
// skipped — however the polls interleave with new traffic.
func TestEventsHandlerSinceCursor(t *testing.T) {
	var s *Server
	r := NewRouter()
	r.Handle("/", echoPath)
	r.Handle("/debug/events", func(ctx *RequestCtx) { EventsHandler(s)(ctx) })
	s = start(t, Config{Workers: 1, Handler: r.Serve})
	conn, br := dial(t, s)

	poll := func(since uint64) []obs.Event {
		t.Helper()
		fmt.Fprintf(conn, "GET /debug/events?since=%d HTTP/1.1\r\nHost: x\r\n\r\n", since)
		code, _, raw := readResponse(t, br)
		if code != 200 {
			t.Fatalf("/debug/events?since=%d: %d", since, code)
		}
		var body struct {
			Events []obs.Event `json:"events"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		return body.Events
	}

	seen := make(map[uint64]int)
	var cursor uint64
	for round := 0; round < 5; round++ {
		// New traffic between polls: each request lands at least one
		// event (accept on the first pass, park/wake on later ones).
		fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
		readResponse(t, br)
		for _, ev := range poll(cursor) {
			seen[ev.Seq]++
			if ev.Seq <= cursor {
				t.Errorf("round %d: event seq %d at or before cursor %d", round, ev.Seq, cursor)
			}
			if ev.Seq > cursor {
				cursor = ev.Seq
			}
		}
	}
	for seq, n := range seen {
		if n != 1 {
			t.Errorf("event seq %d delivered %d times, want exactly once", seq, n)
		}
	}
	// Completeness: a cold full drain must see exactly the seqs the
	// cursor polls accumulated (the rings are far from wrapping here),
	// except events recorded after the last poll.
	for _, ev := range poll(0) {
		if ev.Seq <= cursor {
			if seen[ev.Seq] != 1 {
				t.Errorf("event seq %d visible in a full drain but skipped by the cursor polls", ev.Seq)
			}
		}
	}
}

// TestFlowsHandlerJSON mounts /debug/flows and checks the stitched
// journeys it serves: the warm-up request's flow group appears with its
// accept hop, the group= filter narrows to one journey, and since=
// beyond the newest event returns none.
func TestFlowsHandlerJSON(t *testing.T) {
	var s *Server
	r := NewRouter()
	r.Handle("/", echoPath)
	r.Handle("/debug/flows", func(ctx *RequestCtx) { FlowsHandler(s)(ctx) })
	s = start(t, Config{Workers: 1, Handler: r.Serve})
	conn, br := dial(t, s)
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	readResponse(t, br)

	get := func(path string) (int, []byte) {
		t.Helper()
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", path)
		code, headers, raw := readResponse(t, br)
		if code == 200 && headers["content-type"] != "application/json" {
			t.Fatalf("%s content-type %q", path, headers["content-type"])
		}
		return code, raw
	}

	var body struct {
		Workers   int           `json:"workers"`
		NextSince uint64        `json:"nextSince"`
		Truncated bool          `json:"truncated"`
		Journeys  []obs.Journey `json:"journeys"`
	}
	code, raw := get("/debug/flows")
	if code != 200 {
		t.Fatalf("/debug/flows: %d", code)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("flows endpoint served invalid JSON: %v\n%s", err, raw)
	}
	if body.Workers != 1 || len(body.Journeys) == 0 || body.NextSince == 0 {
		t.Fatalf("flows body implausible: workers %d, %d journeys, nextSince %d",
			body.Workers, len(body.Journeys), body.NextSince)
	}
	j := body.Journeys[0]
	if j.Group < 0 || len(j.Hops) == 0 {
		t.Fatalf("journey has group %d with %d hops", j.Group, len(j.Hops))
	}
	sawAccept := false
	for i, hop := range j.Hops {
		if hop.Group != j.Group {
			t.Errorf("hop %d tagged group %d inside journey %d", i, hop.Group, j.Group)
		}
		if i > 0 && hop.Hop <= j.Hops[i-1].Hop {
			t.Errorf("hop counters not strictly increasing: %d after %d", hop.Hop, j.Hops[i-1].Hop)
		}
		if hop.Kind == obs.KindAccept {
			sawAccept = true
		}
	}
	if !sawAccept {
		t.Error("journey is missing its accept hop")
	}

	// group= narrows to exactly that journey.
	code, raw = get(fmt.Sprintf("/debug/flows?group=%d", j.Group))
	if code != 200 {
		t.Fatalf("group filter: %d", code)
	}
	var filtered struct {
		Journeys []obs.Journey `json:"journeys"`
	}
	if err := json.Unmarshal(raw, &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Journeys) != 1 || filtered.Journeys[0].Group != j.Group {
		t.Fatalf("group=%d filter returned %v", j.Group, filtered.Journeys)
	}

	// since= beyond the newest event: an empty window.
	code, raw = get(fmt.Sprintf("/debug/flows?group=%d&since=%d", j.Group, body.NextSince+1000000))
	if code != 200 {
		t.Fatalf("since filter: %d", code)
	}
	if err := json.Unmarshal(raw, &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Journeys) != 0 {
		t.Fatalf("future since= cursor still returned %d journeys", len(filtered.Journeys))
	}
}

// TestTraceHandlerChromeFormat mounts /debug/trace and checks the
// export is a loadable Chrome trace: valid JSON, a traceEvents array
// with per-worker thread_name metadata, and at least one residency span
// ("X" event) for the traffic the warm-up generated. With four workers
// on two simulated chips and keep-alive traffic on every worker, every
// worker's track carries a residency span.
func TestTraceHandlerChromeFormat(t *testing.T) {
	t.Run("warm-up", func(t *testing.T) {
		s := startTraced(t, Config{Workers: 2})
		conn, br := dial(t, s)
		fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
		readResponse(t, br)
		threads, spans := fetchTrace(t, conn, br)
		if !threads[0] || !threads[1] {
			t.Errorf("trace missing worker track metadata: %v", threads)
		}
		if len(spans) == 0 {
			t.Error("trace has no residency spans after a served request")
		}
	})
	t.Run("every worker", func(t *testing.T) {
		s := startTraced(t, Config{Workers: 4, Chips: 2})
		var conn net.Conn
		var br *bufio.Reader
		for w := 0; w < s.Workers(); w++ {
			base := loadgen.PortBase(s.FlowGroups())
			g := 0
			for s.OwnerOf(uint16(base+g)) != w {
				g++
			}
			nc, err := loadgen.DialGroup(s.Addr().String(), g, s.FlowGroups())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nc.Close() })
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			conn, br = nc, bufio.NewReader(nc)
			for i := 0; i < 2; i++ {
				fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
				readResponse(t, br)
			}
		}
		_, spans := fetchTrace(t, conn, br)
		for w := 0; w < s.Workers(); w++ {
			if spans[w] == 0 {
				t.Errorf("worker %d track has no residency span: %v", w, spans)
			}
		}
	})
}

// startTraced starts a server serving echoPath with /debug/trace
// mounted.
func startTraced(t *testing.T, cfg Config) *Server {
	var s *Server
	r := NewRouter()
	r.Handle("/", echoPath)
	r.Handle("/debug/trace", func(ctx *RequestCtx) { TraceHandler(s)(ctx) })
	cfg.Handler = r.Serve
	s = start(t, cfg)
	return s
}

// fetchTrace fetches /debug/trace on conn, checks it is a Chrome trace
// in milliseconds whose residency spans have positive durations, and
// returns the tracks with thread_name metadata and the span count per
// track.
func fetchTrace(t *testing.T, conn net.Conn, br *bufio.Reader) (threads map[int]bool, spans map[int]int) {
	t.Helper()
	fmt.Fprintf(conn, "GET /debug/trace HTTP/1.1\r\nHost: x\r\n\r\n")
	code, headers, raw := readResponse(t, br)
	if code != 200 || headers["content-type"] != "application/json" {
		t.Fatalf("/debug/trace: %d %q", code, headers["content-type"])
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace endpoint served invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	threads, spans = map[int]bool{}, map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads[ev.TID] = true
		case ev.Ph == "X":
			spans[ev.TID]++
			if ev.Dur <= 0 {
				t.Errorf("residency span with non-positive duration %v", ev.Dur)
			}
		}
	}
	return threads, spans
}
