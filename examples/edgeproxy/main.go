// Edgeproxy demonstrates the full core-local edge — every layer of the
// reproduction stacked into the deployment shape the paper's §6.2 web
// workload implies for production:
//
//	clients ──> serve (per-core SO_REUSEPORT accept queues, §3.3 stealing,
//	            §3.3.2 flow-group migration)
//	        ──> httpaff (zero-alloc parsing in per-worker arenas)
//	        ──> proxyaff (per-worker upstream pools, worker-pinned backends)
//	        ──> two httpaff origin servers
//
// A request that arrives on worker i is parsed in worker i's arena,
// forwarded over worker i's pooled upstream connection, and relayed
// back through worker i's response buffer: the connection's whole
// round trip — inbound AND outbound — touches one core's caches. The
// run drives the edge with stock net/http clients, scrapes the live
// /metrics endpoint mid-flight (httpaff.MetricsHandler), and closes
// with the locality / pool / upstream-reuse report.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/proxyaff"
)

const (
	clients   = 32
	duration  = 2 * time.Second
	fileBytes = 700
)

func startOrigin(name string) (*httpaff.Server, error) {
	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = 'x'
	}
	r := httpaff.NewRouter()
	r.HandleMethod("GET", "/asset", func(ctx *httpaff.RequestCtx) {
		ctx.SetHeader("X-Origin", name)
		ctx.Write(payload)
	})
	r.HandleMethod("GET", "/whoami", func(ctx *httpaff.RequestCtx) {
		ctx.WriteString(name)
	})
	s, err := httpaff.New(httpaff.Config{Workers: 2, Handler: r.Serve, ServerName: name})
	if err != nil {
		return nil, err
	}
	s.Start()
	return s, nil
}

func main() {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}

	// Two origin servers behind the edge.
	originA, err := startOrigin("origin-a")
	if err != nil {
		fmt.Println("cannot listen (sandboxed environment?):", err)
		return
	}
	originB, err := startOrigin("origin-b")
	if err != nil {
		fmt.Println("cannot listen (sandboxed environment?):", err)
		return
	}

	// The proxy: worker-pinned, so each edge worker's pool concentrates
	// on one origin and reuse stays maximal.
	proxy, err := proxyaff.New(proxyaff.Config{
		Backends: []string{originA.Addr().String(), originB.Addr().String()},
		Policy:   proxyaff.WorkerPinned,
		Workers:  workers,
	})
	if err != nil {
		fmt.Println("proxy:", err)
		return
	}

	// The edge server: proxy on every path, plus the observability
	// endpoints mounted beside it.
	router := httpaff.NewRouter()
	router.Handle("/asset", proxy.Serve)
	router.Handle("/whoami", proxy.Serve)
	edge, err := httpaff.New(httpaff.Config{
		Workers:        workers,
		Handler:        router.Serve,
		WorkerUpstream: proxy.PoolSnapshot,
		ServerName:     "edgeproxy",
	})
	if err != nil {
		fmt.Println("cannot listen (sandboxed environment?):", err)
		return
	}
	// Setup-time registration: nothing has connected yet. The unified
	// metrics endpoint composes the proxy's series (upstream exchange
	// histogram, backend health) into the edge server's scrape via the
	// extras hook; /debug/events serves the control-plane timeline.
	router.Handle("/metrics", httpaff.MetricsHandler(edge, proxy.WriteObsMetrics))
	router.Handle("/debug/events", httpaff.EventsHandler(edge))
	// Flow journeys and the Chrome trace export: affinity-top polls
	// /debug/flows; /debug/trace loads in chrome://tracing / Perfetto.
	router.Handle("/debug/flows", httpaff.FlowsHandler(edge))
	router.Handle("/debug/trace", httpaff.TraceHandler(edge))
	pprofAddr := startPprof()
	edge.Start()
	addr := edge.Addr().String()
	fmt.Printf("edge: %d workers on %s (sharded=%v) fronting %s and %s, worker-pinned upstream pools\n",
		workers, addr, edge.Sharded(), originA.Addr(), originB.Addr())
	fmt.Printf("observability: http://%s/metrics (edge + proxy series), /debug/events, /debug/flows, /debug/trace; pprof on http://%s/debug/pprof/\n\n",
		addr, pprofAddr)

	var requests, failures atomic.Int64
	start := time.Now()
	stop := start.Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
			defer transport.CloseIdleConnections()
			for time.Now().Before(stop) {
				resp, err := client.Get("http://" + addr + "/asset")
				if err != nil {
					failures.Add(1)
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || n != fileBytes {
					failures.Add(1)
					continue
				}
				requests.Add(1)
			}
		}()
	}

	// Mid-flight, scrape the live /metrics endpoint like a dashboard
	// would, summing the served passes by the queue they came from.
	time.Sleep(duration / 2)
	if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
		var local, stolen float64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			series, value, _ := strings.Cut(sc.Text(), " ")
			v, _ := strconv.ParseFloat(value, 64)
			if strings.HasPrefix(series, "affinity_served_total{") {
				if strings.Contains(series, `queue="local"`) {
					local += v
				} else {
					stolen += v
				}
			}
		}
		resp.Body.Close()
		fmt.Printf("live /metrics at t=%.1fs: %.0f passes served, %.0f stolen\n\n",
			time.Since(start).Seconds(), local+stolen, stolen)
	}

	wg.Wait()
	secs := time.Since(start).Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	edge.Shutdown(ctx)
	st := edge.Stats()
	proxy.Close()
	originA.Shutdown(ctx)
	originB.Shutdown(ctx)

	fmt.Printf("%.0f req/s end-to-end (%d requests, %d failures, in %.1fs)\n\n",
		float64(requests.Load())/secs, requests.Load(), failures.Load(), secs)
	fmt.Printf("locality %.1f%% of %d handler passes, ctx pool reuse %.1f%%\n",
		st.LocalityPct(), st.Served, st.Pool.ReusePct())
	fmt.Printf("upstream reuse %.1f%%: each edge worker forwarded over its own pooled backend connections —\n"+
		"the inbound half (accept locality, arena parsing) and the outbound half (dial, keep-alive,\n"+
		"relay) of every request stayed on the worker that accepted it.\n",
		st.Upstream.ReusePct())
}
