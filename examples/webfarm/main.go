// Webfarm runs a miniature web farm on the httpaff layer, mirroring
// the workload of the paper's §6.2 on a real loopback network: every
// worker owns a SO_REUSEPORT accept queue and a private arena of pooled
// request contexts, the farm serves a SpecWeb-like static mix over
// keep-alive connections (the paper's six requests per connection), and
// the closing report shows throughput, locality and pool reuse —
// proving the connections AND the memory serving them stayed core-local.
//
// The clients are net/http — the stock library talking to httpaff over
// the wire, connection pooling and all.
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
)

const (
	reqsPerConn = 6   // the paper's connection reuse (§6.2)
	fileBytes   = 700 // mean file size of the static mix
	files       = 6
	clients     = 64
	duration    = 2 * time.Second
)

func main() {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	payload := strings.Repeat("x", fileBytes)

	var srv *httpaff.Server
	router := httpaff.NewRouter()
	router.Handle("/", func(ctx *httpaff.RequestCtx) {
		ctx.SetContentType("text/html; charset=utf-8")
		ctx.WriteString("<html><body>webfarm index</body></html>")
	})
	for i := 0; i < files; i++ {
		router.Handle(fmt.Sprintf("/f%d", i), func(ctx *httpaff.RequestCtx) {
			ctx.WriteString(payload)
		})
	}
	// The observability plane: one Prometheus endpoint covering the
	// request histograms and the transport's control-plane series, plus
	// the event timeline for debugging migration behavior.
	router.Handle("/metrics", func(ctx *httpaff.RequestCtx) {
		httpaff.MetricsHandler(srv)(ctx)
	})
	router.Handle("/debug/events", func(ctx *httpaff.RequestCtx) {
		httpaff.EventsHandler(srv)(ctx)
	})
	// The flow-journey layer: stitched per-group journeys (poll with
	// affinity-top, or curl "/debug/flows?group=N&since=SEQ") and the
	// Chrome trace export for chrome://tracing / Perfetto.
	router.Handle("/debug/flows", func(ctx *httpaff.RequestCtx) {
		httpaff.FlowsHandler(srv)(ctx)
	})
	router.Handle("/debug/trace", func(ctx *httpaff.RequestCtx) {
		httpaff.TraceHandler(srv)(ctx)
	})
	// Go's profiler serves over net/http; a sidecar listener keeps the
	// hot httpaff path out of the stock mux's allocation profile.
	pprofAddr := startPprof()

	srv, err := httpaff.New(httpaff.Config{
		Addr:    "127.0.0.1:0",
		Workers: workers,
		Handler: router.Serve,
	})
	if err != nil {
		fmt.Println("cannot listen (sandboxed environment?):", err)
		return
	}
	srv.Start()
	addr := srv.Addr().String()
	fmt.Printf("web farm: %d workers on %s (sharded=%v), %d net/http clients, %d reqs/conn\n",
		workers, addr, srv.Sharded(), clients, reqsPerConn)
	fmt.Printf("observability: http://%s/metrics, /debug/events, /debug/flows, /debug/trace; pprof on http://%s/debug/pprof/\n\n",
		addr, pprofAddr)

	var requests, failures atomic.Int64
	start := time.Now()
	stop := start.Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A private transport per client, with its idle pool
			// dropped after every batch, enforces the paper's
			// connection reuse: each TCP connection carries exactly
			// reqsPerConn requests, then the next batch dials fresh.
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
			defer transport.CloseIdleConnections()
			for time.Now().Before(stop) {
				for i := 0; i < reqsPerConn && time.Now().Before(stop); i++ {
					resp, err := client.Get(fmt.Sprintf("http://%s/f%d", addr, i%files))
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
				transport.CloseIdleConnections()
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds() // actual window, including the tail

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)

	st := srv.Stats()
	fmt.Printf("%.0f req/s  (%d requests, %d failures, in %.1fs)\n\n",
		float64(requests.Load())/secs, requests.Load(), failures.Load(), secs)
	fmt.Printf("locality %.1f%%: %d of %d handler passes ran on the worker owning the connection's flow group\n",
		st.LocalityPct(), st.ServedLocal, st.Served)
	fmt.Printf("pool reuse %.1f%%: after warm-up every request context came from the serving worker's own arena —\n"+
		"the keep-alive connections moved between workers (stealing/migration), the memory never did.\n",
		st.Pool.ReusePct())
}
