// The -proxy mode drives the full core-local edge: pipelined keep-alive
// clients → proxyaff reverse proxy → in-process httpaff backends, all
// over real loopback TCP. On top of the -http report it prints the
// upstream pool reuse rate — the proof that the outbound half of each
// request stayed on the worker that served the inbound half.
package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/proxyaff"
)

// proxyOpts carries the -proxy flag values.
type proxyOpts struct {
	httpOpts
	backends int  // in-process backend servers
	pinned   bool // worker-pinned backend selection (vs round-robin)
}

func (o proxyOpts) scenario() string {
	if o.migrate {
		return "proxy-keepalive"
	}
	return "proxy-keepalive-nomigrate"
}

// runProxyBench builds the backend farm and the proxy edge, drives it
// with the -http client, and reports end-to-end req/s plus the upstream
// pool reuse breakdown.
func runProxyBench(o proxyOpts) error {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
		if o.workers < 2 {
			o.workers = 2
		}
	}
	if o.pipeline <= 0 {
		o.pipeline = 16
	}
	if o.backends <= 0 {
		o.backends = 2
	}

	// Backend farm: plain httpaff servers answering o.payload bytes.
	body := make([]byte, o.payload)
	for i := range body {
		body[i] = 'x'
	}
	addrs := make([]string, 0, o.backends)
	backends := make([]*httpaff.Server, 0, o.backends)
	shutdownAll := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, b := range backends {
			b.Shutdown(ctx)
		}
	}
	for i := 0; i < o.backends; i++ {
		b, err := httpaff.New(httpaff.Config{
			Workers: 2,
			Handler: func(ctx *httpaff.RequestCtx) { ctx.Write(body) },
		})
		if err != nil {
			shutdownAll()
			return err
		}
		b.Start()
		backends = append(backends, b)
		addrs = append(addrs, b.Addr().String())
	}
	defer shutdownAll()

	policy := proxyaff.RoundRobin
	policyName := "round-robin"
	if o.pinned {
		policy = proxyaff.WorkerPinned
		policyName = "worker-pinned"
	}
	proxy, err := proxyaff.New(proxyaff.Config{
		Backends: addrs,
		Policy:   policy,
		Workers:  o.workers,
	})
	if err != nil {
		return err
	}
	front, err := httpaff.New(httpaff.Config{
		Addr:             o.addr,
		Workers:          o.workers,
		Handler:          proxy.Serve,
		WorkerUpstream:   proxy.PoolSnapshot,
		FlowGroups:       o.groups,
		MigrateInterval:  o.migrateEvery,
		DisableMigration: !o.migrate,
	})
	if err != nil {
		return err
	}
	front.Start()
	target := front.Addr().String()
	fmt.Printf("proxyaff edge on %s: %d workers, migration %v, %d backends (%s)\n",
		target, o.workers, o.migrate, o.backends, policyName)

	lat, requests, failed := driveHTTP(target, o.httpOpts, false)
	secs := o.duration.Seconds()

	fmt.Println()
	fmt.Printf("PROXY — pipelined keep-alive through the edge (%d conns, %d reqs/batch, %dB body)\n",
		o.clients, o.pipeline, o.payload)
	header := []string{"workers", "backends", "conns", "pipeline", "secs", "req/s", "p50(us)", "p95(us)", "p99(us)", "failed"}
	row := []string{
		fmt.Sprintf("%d", o.workers),
		fmt.Sprintf("%d", o.backends),
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
	if err := front.Shutdown(ctx); err != nil {
		fmt.Println("shutdown:", err)
	}
	st := front.Stats()
	proxy.Close()
	fmt.Println()
	fmt.Printf("ctx pool reuse: %.1f%%; upstream: %.1f%% of %d checkouts reused from the worker-local pool (%d dials, %d drops)\n",
		st.Pool.ReusePct(), st.Upstream.ReusePct(), st.Upstream.Gets(), st.Upstream.Misses, st.Upstream.Drops)
	printStats(front.Transport())

	rep := benchReport{
		Scenario:         o.scenario(),
		Workers:          o.workers,
		Clients:          o.clients,
		Pipeline:         o.pipeline,
		Backends:         o.backends,
		DurationSecs:     secs,
		ReqPerSec:        float64(requests) / secs,
		P50us:            percentile(lat, 50),
		P95us:            percentile(lat, 95),
		P99us:            percentile(lat, 99),
		Failed:           failed,
		Sharded:          st.Sharded,
		MigrationOn:      o.migrate,
		LocalityPct:      st.LocalityPct(),
		StealPct:         st.StealPct(),
		Migrations:       st.Migrations,
		Requeued:         st.Requeued,
		Dropped:          st.Dropped,
		PoolGets:         st.Pool.Gets(),
		PoolMisses:       st.Pool.Misses,
		PoolReusePct:     st.Pool.ReusePct(),
		UpstreamGets:     st.Upstream.Gets(),
		UpstreamMisses:   st.Upstream.Misses,
		UpstreamReusePct: st.Upstream.ReusePct(),
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
