// The -hostile mode runs the admission-control gauntlet: a normal
// pipelined keep-alive workload shares the server with slowloris
// clients (dripping header bytes to hold workers captive) and per-IP
// connect floods (hammering accept from dedicated loopback addresses).
// The report answers the only question that matters under attack: did
// the well-behaved clients' latency stay bounded while the admission
// machinery — per-IP token buckets, the header deadline, the in-flight
// headers cap, the connection budget — absorbed the abuse?
package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
)

// hostileOpts carries the -hostile flag values on top of the -http ones.
type hostileOpts struct {
	httpOpts
	slowloris int           // concurrent header-dripping clients
	floods    int           // concurrent per-IP connect-flood clients
	ipRate    float64       // per-IP accept rate (conns/sec/bucket)
	ipBurst   int           // per-IP accept burst
	maxConns  int           // transport connection budget
	headerTO  time.Duration // header read deadline
}

// hostileCounters aggregates what the attackers observed from outside.
type hostileCounters struct {
	slowClosed    atomic.Uint64 // slowloris conns the server cut off
	floodAttempts atomic.Uint64 // flood dials attempted
	floodServed   atomic.Uint64 // flood requests that got a 200
	floodRefused  atomic.Uint64 // flood conns closed/shed before a 200
}

// runHostileBench starts a hardened httpaff server, lets the normal
// workload settle, unleashes the attackers, and reports both sides.
func runHostileBench(o hostileOpts) error {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
		if o.workers < 2 {
			o.workers = 2
		}
	}
	if o.pipeline <= 0 {
		o.pipeline = 16
	}
	inflightCap := o.workers / 2
	if inflightCap < 1 {
		inflightCap = 1
	}
	body := bytes.Repeat([]byte("x"), o.payload)
	srv, err := httpaff.New(httpaff.Config{
		Addr:             o.addr,
		Workers:          o.workers,
		FlowGroups:       o.groups,
		MigrateInterval:  o.migrateEvery,
		DisableMigration: !o.migrate,
		Handler: func(ctx *httpaff.RequestCtx) {
			ctx.Write(body)
		},
		PerIPAcceptRate:    o.ipRate,
		PerIPAcceptBurst:   o.ipBurst,
		MaxConns:           o.maxConns,
		HeaderTimeout:      o.headerTO,
		MaxInflightHeaders: inflightCap,
		ShedOnOverload:     true,
	})
	if err != nil {
		return err
	}
	srv.Start()
	target := srv.Addr().String()
	fmt.Printf("httpaff (hardened) on %s: %d workers, per-IP %.0f conn/s burst %d, budget %d conns, header deadline %v, %d header slots\n",
		target, o.workers, o.ipRate, o.ipBurst, o.maxConns, o.headerTO, inflightCap)

	var hc hostileCounters
	stop := time.Now().Add(o.duration)
	var attackers sync.WaitGroup

	// Attackers hold fire until the normal clients are established
	// (connected and past their first request), then pile on for the
	// rest of the window.
	attackStart := time.Now().Add(300 * time.Millisecond)
	// Attackers dial from their own loopback aliases where the platform
	// allows (Linux routes all of 127.0.0.0/8): slowloris share one,
	// each flood gets its own, so attacker traffic exercises dedicated
	// token buckets and never spends 127.0.0.1's — the well-behaved
	// clients' — credit.
	slowSrc := loopbackSource(254, 1)
	for i := 0; i < o.slowloris; i++ {
		attackers.Add(1)
		go func(id int) {
			defer attackers.Done()
			runSlowloris(target, slowSrc, attackStart, stop, &hc)
		}(i)
	}
	for i := 0; i < o.floods; i++ {
		attackers.Add(1)
		go func(id int) {
			defer attackers.Done()
			runFlood(target, loopbackSource(1+id/250, 2+id%250), attackStart, stop, &hc)
		}(i)
	}

	lat, requests, failed := driveHTTP(target, o.httpOpts, true)
	attackers.Wait()
	secs := o.duration.Seconds()

	fmt.Println()
	fmt.Printf("HOSTILE — %d well-behaved pipelined conns vs %d slowloris + %d per-IP floods\n",
		o.clients, o.slowloris, o.floods)
	header := []string{"workers", "conns", "secs", "req/s", "p50(us)", "p95(us)", "p99(us)", "failed"}
	row := []string{
		fmt.Sprintf("%d", o.workers),
		fmt.Sprintf("%d", o.clients),
		fmt.Sprintf("%.1f", secs),
		fmt.Sprintf("%.0f", float64(requests)/secs),
		fmt.Sprintf("%.0f", percentile(lat, 50)),
		fmt.Sprintf("%.0f", percentile(lat, 95)),
		fmt.Sprintf("%.0f", percentile(lat, 99)),
		fmt.Sprintf("%d", failed),
	}
	printAligned(header, [][]string{row})

	ad := srv.Admission()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("shutdown:", err)
	}
	st := srv.Stats()

	fmt.Println()
	fmt.Printf("slowloris: %d clients, %d cut off at the header deadline (server counted %d)\n",
		o.slowloris, hc.slowClosed.Load(), ad.HeaderTimeouts)
	fmt.Printf("floods:    %d clients, %d attempts — %d served, %d refused; server rate-limited %d at accept\n",
		o.floods, hc.floodAttempts.Load(), hc.floodServed.Load(), hc.floodRefused.Load(), st.Ratelimited)
	fmt.Printf("http admission: %d header-slot sheds, %d overload sheds\n", ad.HeaderSheds, ad.OverloadSheds)
	printStats(srv.Transport())

	rep := benchReport{
		Scenario:     "http-hostile",
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

		Ratelimited:    st.Ratelimited,
		ShedParked:     st.ShedParked,
		BudgetRejected: st.BudgetRejected,
		AcceptRetries:  st.AcceptRetries,
		HeaderTimeouts: ad.HeaderTimeouts,
		HeaderSheds:    ad.HeaderSheds,
		OverloadSheds:  ad.OverloadSheds,
		LivePeak:       st.LivePeak,
		MaxConns:       st.MaxConns,
		SlowClients:    o.slowloris,
		SlowClosed:     hc.slowClosed.Load(),
		FloodClients:   o.floods,
		FloodAttempts:  hc.floodAttempts.Load(),
		FloodServed:    hc.floodServed.Load(),
		FloodRefused:   hc.floodRefused.Load(),
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

// runSlowloris drips header bytes on fresh connections until the server
// cuts each one off, reconnecting until the window closes.
func runSlowloris(target string, src net.Addr, start, stop time.Time, hc *hostileCounters) {
	d := net.Dialer{LocalAddr: src, Timeout: 2 * time.Second}
	time.Sleep(time.Until(start))
	for time.Now().Before(stop) {
		conn, err := d.Dial("tcp", target)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		conn.SetDeadline(stop.Add(5 * time.Second))
		alive := true
		if _, err := conn.Write([]byte("GET /drip HTTP/1.1\r\nX-Drip: ")); err != nil {
			alive = false
		}
		for alive && time.Now().Before(stop) {
			time.Sleep(100 * time.Millisecond)
			if _, err := conn.Write([]byte("y")); err != nil {
				alive = false
				break
			}
			// A successful read means the server answered (shed 503);
			// an error here is the cut we are waiting for.
			conn.SetReadDeadline(time.Now().Add(time.Millisecond))
			if _, err := conn.Read(make([]byte, 256)); err == nil {
				alive = false
			} else if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
				alive = false
			}
			conn.SetReadDeadline(stop.Add(5 * time.Second))
		}
		if !alive {
			hc.slowClosed.Add(1)
		}
		conn.Close()
	}
}

// runFlood hammers connect/request/close from src (nil = default
// source) as fast as the server lets it, counting how many attempts got
// a 200 versus were refused — closed at accept by the rate limiter,
// shed with a 503, or still unanswered after the short patience window
// (a flood does not wait politely). Rate-limited connections are closed
// the instant they are accepted, so once the bucket empties the loop
// spins faster and faster against a closed door — the counters record
// the limiter absorbing an arrival rate it could never serve.
func runFlood(target string, src net.Addr, start, stop time.Time, hc *hostileCounters) {
	d := net.Dialer{LocalAddr: src, Timeout: 2 * time.Second}
	time.Sleep(time.Until(start))
	buf := make([]byte, 1024)
	for time.Now().Before(stop) {
		hc.floodAttempts.Add(1)
		conn, err := d.Dial("tcp", target)
		if err != nil {
			hc.floodRefused.Add(1)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		conn.SetDeadline(time.Now().Add(25 * time.Millisecond))
		served := false
		if _, err := conn.Write(httpBenchRequest); err == nil {
			if n, rerr := conn.Read(buf); rerr == nil && bytes.Contains(buf[:n], []byte(" 200 ")) {
				served = true
			}
		}
		conn.Close()
		if served {
			hc.floodServed.Add(1)
		} else {
			hc.floodRefused.Add(1)
		}
	}
}

// loopbackSource returns the loopback alias 127.0.x.y as a dial source
// when the platform routes 127.0.0.0/8 (Linux does), nil otherwise —
// with nil the attacker shares the default source IP and its bucket.
func loopbackSource(x, y int) net.Addr {
	ip := net.IPv4(127, 0, byte(x), byte(y))
	probe, err := net.Listen("tcp", ip.String()+":0")
	if err != nil {
		return nil
	}
	probe.Close()
	return &net.TCPAddr{IP: ip}
}
