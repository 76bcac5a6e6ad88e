// The -http mode drives the httpaff layer — pipelined keep-alive
// HTTP/1.1 over loopback — and reports throughput, latency, the
// locality/steal/migration table, and the worker-local pool reuse rate
// that proves request memory stayed core-local.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
)

// httpOpts carries the -http flag values.
type httpOpts struct {
	addr     string
	workers  int
	clients  int // concurrent keep-alive connections
	pipeline int // requests per pipelined batch
	payload  int // response body bytes
	duration time.Duration

	migrate      bool
	migrateEvery time.Duration
	groups       int
	jsonPath     string

	// scrapeEvery > 0 runs a concurrent scraper that fetches /metrics
	// and /debug/events at this period for the whole window — the CI
	// gate that observability reads don't tax the serving path.
	scrapeEvery time.Duration

	// tracePath, when set, saves the run's control-plane timeline as a
	// Chrome trace-event file after shutdown. chips feeds the NUMA
	// attribution pass (serve.Config.Chips).
	tracePath string
	chips     int
}

func (o httpOpts) scenario() string {
	switch {
	case o.tracePath != "":
		return "http-keepalive-traced"
	case o.scrapeEvery > 0:
		return "http-keepalive-scraped"
	case o.migrate:
		return "http-keepalive"
	default:
		return "http-keepalive-nomigrate"
	}
}

// runHTTPBench starts an httpaff server, drives it with pipelined
// keep-alive clients, and prints the combined transport + pool report.
func runHTTPBench(o httpOpts) error {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
		if o.workers < 2 {
			o.workers = 2
		}
	}
	if o.pipeline <= 0 {
		o.pipeline = 16
	}
	body := bytes.Repeat([]byte("x"), o.payload)
	// The bench handler is mounted on a router alongside the unified
	// metrics and event endpoints, so a scraper can hit the same server
	// the load runs against — the production shape, not a side server.
	var srv *httpaff.Server
	r := httpaff.NewRouter()
	r.Handle("/bench", func(ctx *httpaff.RequestCtx) {
		ctx.Write(body)
	})
	r.Handle("/metrics", func(ctx *httpaff.RequestCtx) {
		httpaff.MetricsHandler(srv)(ctx)
	})
	r.Handle("/debug/events", func(ctx *httpaff.RequestCtx) {
		httpaff.EventsHandler(srv)(ctx)
	})
	r.Handle("/debug/flows", func(ctx *httpaff.RequestCtx) {
		httpaff.FlowsHandler(srv)(ctx)
	})
	r.Handle("/debug/trace", func(ctx *httpaff.RequestCtx) {
		httpaff.TraceHandler(srv)(ctx)
	})
	srv, err := httpaff.New(httpaff.Config{
		Addr:             o.addr,
		Workers:          o.workers,
		FlowGroups:       o.groups,
		MigrateInterval:  o.migrateEvery,
		DisableMigration: !o.migrate,
		Chips:            o.chips,
		Handler:          r.Serve,
	})
	if err != nil {
		return err
	}
	srv.Start()
	target := srv.Addr().String()
	fmt.Printf("httpaff on %s: %d workers, migration %v\n", target, o.workers, o.migrate)

	var scrapes uint64
	scrapeDone := make(chan struct{})
	if o.scrapeEvery > 0 {
		go func() {
			defer close(scrapeDone)
			scrapes = scrapeLoop(target, o.scrapeEvery, time.Now().Add(o.duration))
		}()
	} else {
		close(scrapeDone)
	}
	lat, requests, failed := driveHTTP(target, o, false)
	<-scrapeDone
	secs := o.duration.Seconds()

	fmt.Println()
	fmt.Printf("HTTP — pipelined keep-alive over loopback (%d conns, %d reqs/batch, %dB body)\n",
		o.clients, o.pipeline, o.payload)
	header := []string{"workers", "conns", "pipeline", "secs", "req/s", "p50(us)", "p95(us)", "p99(us)", "failed"}
	row := []string{
		fmt.Sprintf("%d", o.workers),
		fmt.Sprintf("%d", o.clients),
		fmt.Sprintf("%d", o.pipeline),
		fmt.Sprintf("%.1f", secs),
		fmt.Sprintf("%.0f", float64(requests)/secs),
		fmt.Sprintf("%.0f", percentile(lat, 50)),
		fmt.Sprintf("%.0f", percentile(lat, 95)),
		fmt.Sprintf("%.0f", percentile(lat, 99)),
		fmt.Sprintf("%d", failed),
	}
	printAligned(header, [][]string{row})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("shutdown:", err)
	}
	st := srv.Stats()
	// Server-side service latency, from the workers' own histograms:
	// head-read start to response flush, no client or loopback time.
	srvQ := srv.ServiceLatencyQuantiles(0.5, 0.99, 0.999)
	fmt.Println()
	fmt.Printf("pool reuse: %.1f%% of %d gets worker-local (%d misses)\n", st.Pool.ReusePct(), st.Pool.Gets(), st.Pool.Misses)
	fmt.Printf("server-side service latency: p50 %v  p99 %v  p999 %v\n", srvQ[0], srvQ[1], srvQ[2])
	if o.scrapeEvery > 0 {
		fmt.Printf("scraper: %d /metrics + /debug/events fetches at %v period during the run\n", scrapes, o.scrapeEvery)
	}
	printStats(srv.Transport())

	var traceSpans int
	if o.tracePath != "" {
		traceSpans, err = saveTrace(o.tracePath, o.workers, srv.Events())
		if err != nil {
			return fmt.Errorf("write %s: %w", o.tracePath, err)
		}
		fmt.Printf("trace: %d residency spans written to %s\n", traceSpans, o.tracePath)
	}

	rep := benchReport{
		Scenario:     o.scenario(),
		Workers:      o.workers,
		Clients:      o.clients,
		Pipeline:     o.pipeline,
		DurationSecs: secs,
		ReqPerSec:    float64(requests) / secs,
		P50us:        percentile(lat, 50),
		P95us:        percentile(lat, 95),
		P99us:        percentile(lat, 99),
		Failed:       failed,
		Sharded:      st.Sharded,
		MigrationOn:  o.migrate,
		LocalityPct:  st.LocalityPct(),
		StealPct:     st.StealPct(),
		Migrations:   st.Migrations,
		Requeued:     st.Requeued,
		Dropped:      st.Dropped,
		PoolGets:     st.Pool.Gets(),
		PoolMisses:   st.Pool.Misses,
		PoolReusePct: st.Pool.ReusePct(),
		SrvP50us:     float64(srvQ[0].Nanoseconds()) / 1e3,
		SrvP99us:     float64(srvQ[1].Nanoseconds()) / 1e3,
		SrvP999us:    float64(srvQ[2].Nanoseconds()) / 1e3,
		Scrapes:      scrapes,

		Chips:               o.chips,
		CrossChipSteals:     st.CrossChipSteals,
		CrossChipMigrations: st.CrossChipMigrations,
		TraceFile:           o.tracePath,
		TraceSpans:          traceSpans,
	}
	rep.fillEnv()
	if o.jsonPath != "" {
		if err := appendJSONReport(o.jsonPath, rep); err != nil {
			return fmt.Errorf("write %s: %w", o.jsonPath, err)
		}
		fmt.Printf("\nappended %q record to %s\n", rep.Scenario, o.jsonPath)
	}
	return nil
}

var httpBenchRequest = []byte("GET /bench HTTP/1.1\r\nHost: bench\r\nUser-Agent: affinity-bench\r\n\r\n")

// scrapeLoop fetches /metrics and /debug/events on one keep-alive
// connection at the given period until the deadline, mimicking a
// Prometheus scraper running against a loaded server. Returns the
// number of completed scrape rounds (both endpoints fetched).
func scrapeLoop(target string, every time.Duration, stop time.Time) uint64 {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return 0
	}
	defer conn.Close()
	conn.SetDeadline(stop.Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 64<<10)
	var rounds uint64
	for time.Now().Before(stop) {
		for _, path := range []string{"/metrics", "/debug/events"} {
			if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: bench\r\nUser-Agent: affinity-scrape\r\n\r\n", path); err != nil {
				return rounds
			}
			if err := discardResponse(br); err != nil {
				return rounds
			}
		}
		rounds++
		time.Sleep(every)
	}
	return rounds
}

// discardResponse reads one Content-Length-framed response off br.
func discardResponse(br *bufio.Reader) error {
	var length int
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return err
			}
		}
	}
	_, err := io.CopyN(io.Discard, br, int64(length))
	return err
}

// learnResponseLen performs one exchange and returns the (fixed)
// response length, so the batch loop can read with exact ReadFulls
// instead of parsing every response. Any status but 200 is an error: a
// 503 shed at the door is not the response the batch loop will see.
func learnResponseLen(conn net.Conn) (int, error) {
	if _, err := conn.Write(httpBenchRequest); err != nil {
		return 0, err
	}
	buf := make([]byte, 64<<10)
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		if err != nil {
			return 0, err
		}
		n += m
		i := bytes.Index(buf[:n], []byte("\r\n\r\n"))
		if i < 0 {
			continue
		}
		if !bytes.HasPrefix(buf[:i], []byte("HTTP/1.1 200 ")) {
			line, _, _ := bytes.Cut(buf[:i], []byte("\r\n"))
			return 0, fmt.Errorf("first response is not a 200: %q", line)
		}
		cl := bytes.Index(buf[:i], []byte("Content-Length: "))
		if cl < 0 {
			return 0, fmt.Errorf("response has no Content-Length: %q", buf[:i])
		}
		end := bytes.IndexByte(buf[cl:n], '\r') + cl
		size, err := strconv.Atoi(string(buf[cl+len("Content-Length: ") : end]))
		if err != nil {
			return 0, err
		}
		total := i + 4 + size
		for n < total {
			m, err := conn.Read(buf[n:total])
			if err != nil {
				return 0, err
			}
			n += m
		}
		return total, nil
	}
}

// driveHTTP runs the closed-loop pipelined clients and returns
// per-request latencies (µs, batch RTT divided by depth), the request
// count, and failures. With redial, a client whose connect phase fails —
// a dial error, or a 503 because its first pass lost a header slot to
// the start-up herd — backs off and dials again instead of giving up:
// one shed with Retry-After is the admission machinery working, and the
// hostile run's contract is that persistent legitimate clients are
// served.
func driveHTTP(target string, o httpOpts, redial bool) (lat []float64, requests, failed uint64) {
	var mu sync.Mutex
	var reqN, failN atomic.Uint64
	stop := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var conn net.Conn
			var respLen int
			for attempt := 1; ; attempt++ {
				nc, err := net.Dial("tcp", target)
				if err == nil {
					nc.SetDeadline(time.Now().Add(o.duration + 30*time.Second))
					if respLen, err = learnResponseLen(nc); err == nil {
						conn = nc
						break
					}
					nc.Close()
				}
				if !redial || attempt == 20 || !time.Now().Before(stop) {
					failN.Add(1)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			defer conn.Close()
			reqN.Add(1)
			batch := bytes.Repeat(httpBenchRequest, o.pipeline)
			resp := make([]byte, respLen*o.pipeline)
			local := make([]float64, 0, 4096)
			defer func() {
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			}()
			for time.Now().Before(stop) {
				t0 := time.Now()
				if _, err := conn.Write(batch); err != nil {
					failN.Add(1)
					return
				}
				if _, err := io.ReadFull(conn, resp); err != nil {
					failN.Add(1)
					return
				}
				local = append(local, float64(time.Since(t0).Microseconds())/float64(o.pipeline))
				reqN.Add(uint64(o.pipeline))
			}
		}()
	}
	wg.Wait()
	return lat, reqN.Load(), failN.Load()
}
