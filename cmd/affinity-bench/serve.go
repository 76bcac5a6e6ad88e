// The -serve / -client modes drive the real serve.Server (instead of
// the simulator) and print a locality/steal report in the same aligned
// table shape as the simulator's experiments.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/cmd/internal/top"
	"affinityaccept/internal/core"
	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/obs"
	"affinityaccept/serve"
)

// serveOpts carries the -serve/-client flag values.
type serveOpts struct {
	addr     string
	client   string // external target; empty = built-in loopback server
	workers  int
	clients  int
	reqs     int // requests per connection
	payload  int // bytes per request/response
	duration time.Duration
	stallMS  float64 // artificial per-connection stall on worker 0

	longlived    int           // long-lived skewed connections (0 = short-lived mode)
	hotWorkers   int           // workers whose groups receive the skew (<=1 = worker 0 only)
	work         time.Duration // per-request handler service time in longlived mode
	migrate      bool          // run the §3.3.2 migration loop
	migrateEvery time.Duration // migration tick (0 = paper default)
	groups       int           // flow-group count (0 = default)
	jsonPath     string        // append metrics to this JSON array file
	tracePath    string        // save a Chrome trace-event file here
	chips        int           // simulated chip count: steal order and NUMA attribution
	pin          bool          // sched_setaffinity each worker thread to a CPU
}

// scenario names the run for reports and the JSON trajectory file.
func (o serveOpts) scenario() string {
	switch {
	case o.longlived > 0 && o.migrate:
		return "longlived-migrate"
	case o.longlived > 0:
		return "longlived-steal-only"
	case o.stallMS > 0:
		return "echo-stall"
	default:
		return "echo"
	}
}

// runServeBench starts (unless -client points elsewhere) a serve.Server,
// drives it with a closed-loop load generator over loopback — short
// echo connections by default, long-lived skewed keep-alive connections
// with -longlived — and prints throughput, latency percentiles and the
// per-worker locality/steal/migration table.
func runServeBench(o serveOpts) error {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
		if o.workers < 2 {
			o.workers = 2 // stealing needs someone to steal from
		}
	}
	if o.longlived > 0 && o.stallMS > 0 {
		// The handler switch below would silently drop the stall and
		// mislabel the run; refuse rather than measure the wrong thing.
		return fmt.Errorf("-stall cannot be combined with -longlived (the keep-alive workload overloads worker 0 via -work instead)")
	}
	if o.longlived > 0 && o.groups == 0 {
		// A compact table keeps the skew legible — worker 0 owns
		// groups/workers of them and the report shows whole groups
		// moving — while 64 groups is still fine-grained enough for
		// migration to spread the hot groups evenly over the claimants.
		o.groups = 64
	}
	var srv *serve.Server
	target := o.client
	if target == "" {
		cfg := serve.Config{
			Addr:             o.addr,
			Workers:          o.workers,
			FlowGroups:       o.groups,
			MigrateInterval:  o.migrateEvery,
			DisableMigration: !o.migrate,
			Chips:            o.chips,
			PinWorkers:       o.pin,
		}
		switch {
		case o.longlived > 0:
			cfg.Handler = func(conn net.Conn) { keepAliveEcho(srv, conn, o.payload, o.work) }
			// The skewed keep-alive queue must cross the busy watermark
			// for stealing (and therefore migration) to engage.
			cfg.Backlog = o.workers * 64
			cfg.HighPct, cfg.LowPct = 20, 5
		case o.stallMS > 0:
			stall := time.Duration(o.stallMS * float64(time.Millisecond))
			cfg.WorkerHandler = func(worker int, conn net.Conn) {
				if worker == 0 {
					time.Sleep(stall)
				}
				echo(conn)
			}
			// Stealing engages when the stalled worker crosses its high
			// watermark; lower it so modest benchmark loads get there.
			cfg.HighPct, cfg.LowPct = 20, 5
		default:
			cfg.Handler = echo
		}
		var err error
		srv, err = serve.New(cfg)
		if err != nil {
			return err
		}
		srv.Start()
		target = srv.Addr().String()
		fmt.Printf("serving on %s: %d workers, migration %v\n", target, o.workers, o.migrate)
		if o.chips > 1 {
			fmt.Printf("numa: %d chips, same-chip victims stolen from first\n", o.chips)
		}
	} else {
		fmt.Printf("driving external server at %s\n", target)
	}

	var lat []float64
	var requests, conns, failed uint64
	if o.longlived > 0 {
		lat, requests, conns, failed = driveLongLived(target, srv, o)
	} else {
		lat, requests, conns, failed = drive(target, o)
	}
	secs := o.duration.Seconds()

	fmt.Println()
	if o.longlived > 0 {
		hotDesc := "worker 0's groups"
		if o.hotWorkers > 1 {
			hotDesc = fmt.Sprintf("%d hot workers' groups", o.hotWorkers)
		}
		fmt.Printf("SERVE — skewed keep-alive load over loopback (%d long-lived conns on %s, %dB payload, %v work/req)\n",
			o.longlived, hotDesc, o.payload, o.work)
	} else {
		fmt.Printf("SERVE — closed-loop echo load over loopback (%d clients, %d reqs/conn, %dB payload)\n",
			o.clients, o.reqs, o.payload)
	}
	header := []string{"workers", "clients", "secs", "req/s", "conn/s", "p50(us)", "p95(us)", "p99(us)", "failed"}
	nClients := o.clients
	if o.longlived > 0 {
		nClients = o.longlived
	}
	row := []string{
		fmt.Sprintf("%d", o.workers),
		fmt.Sprintf("%d", nClients),
		fmt.Sprintf("%.1f", secs),
		fmt.Sprintf("%.0f", float64(requests)/secs),
		fmt.Sprintf("%.0f", float64(conns)/secs),
		fmt.Sprintf("%.0f", percentile(lat, 50)),
		fmt.Sprintf("%.0f", percentile(lat, 95)),
		fmt.Sprintf("%.0f", percentile(lat, 99)),
		fmt.Sprintf("%d", failed),
	}
	printAligned(header, [][]string{row})

	rep := benchReport{
		Scenario:     o.scenario(),
		Workers:      o.workers,
		Clients:      nClients,
		LongLived:    o.longlived,
		DurationSecs: secs,
		ReqPerSec:    float64(requests) / secs,
		ConnPerSec:   float64(conns) / secs,
		P50us:        percentile(lat, 50),
		P95us:        percentile(lat, 95),
		P99us:        percentile(lat, 99),
		Failed:       failed,
		MigrationOn:  o.migrate,
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Println("shutdown:", err)
		}
		st := srv.Stats()
		fmt.Println()
		if o.longlived > 0 {
			fmt.Printf("migration report: %d flow-group migrations, %d keep-alive requeues\n",
				st.Migrations, st.Requeued)
			// Cross-check the stats counter against the control-plane
			// event ring: every migration the balancer applied must have
			// left a KindMigrate event (the rare-event ring never evicts
			// them for park/wake churn), so a mismatch means the trace
			// plane lost control-plane history.
			events := srv.Events()
			var migrateEvents uint64
			migratedGroups := make(map[int32]bool)
			for _, ev := range events {
				if ev.Kind == obs.KindMigrate {
					migrateEvents++
					migratedGroups[ev.Group] = true
				}
			}
			rep.MigrateEvents = migrateEvents
			if migrateEvents == st.Migrations {
				fmt.Printf("event trace: %d migrate events on the control ring — matches the stats counter\n", migrateEvents)
			} else {
				fmt.Printf("event trace: WARNING %d migrate events for %d stats migrations\n", migrateEvents, st.Migrations)
			}
			// Stitch the timeline into per-group journeys and check the
			// causal layer against the same counter: the migrate hops
			// summed over journeys must equal Stats.Migrations, and every
			// group a migrate event names must have stitched into a
			// journey of its own.
			journeys := obs.Stitch(events)
			var journeyMigrates uint64
			journeyGroups := make(map[int32]bool)
			for _, j := range journeys {
				journeyMigrates += uint64(j.Migrations)
				journeyGroups[j.Group] = true
			}
			rep.Journeys = len(journeys)
			rep.JourneyMigrateHops = journeyMigrates
			missing := 0
			for g := range migratedGroups {
				if !journeyGroups[g] {
					missing++
				}
			}
			if journeyMigrates == st.Migrations && missing == 0 {
				fmt.Printf("flow journeys: %d stitched; %d migrate hops — matches the stats counter, every migrated group has a journey\n",
					len(journeys), journeyMigrates)
			} else {
				fmt.Printf("flow journeys: WARNING %d stitched, %d migrate hops for %d stats migrations, %d migrated groups without a journey\n",
					len(journeys), journeyMigrates, st.Migrations, missing)
			}
		}
		printStats(srv)
		if o.stallMS > 0 {
			fmt.Printf("note: worker 0 stalled %.1fms per connection; \"stolen\" shows the §3.3.1 rescue\n", o.stallMS)
		}
		if o.longlived > 0 && o.migrate {
			fmt.Println("note: \"migr-in\" shows §3.3.2 — non-busy workers claimed worker 0's hot groups, making later passes local")
		}
		rep.Sharded = st.Sharded
		rep.LocalityPct = st.LocalityPct()
		rep.StealPct = st.StealPct()
		rep.ServedStolen = st.ServedStolen
		rep.Migrations = st.Migrations
		rep.Requeued = st.Requeued
		rep.Dropped = st.Dropped
		rep.Chips = o.chips
		rep.CrossChipSteals = st.CrossChipSteals
		rep.CrossChipMigrations = st.CrossChipMigrations
		rep.AdaptiveIntervalMs = float64(st.AdaptiveInterval) / float64(time.Millisecond)
		rep.FrozenGroups = st.FrozenGroups
		rep.GroupFreezes = st.GroupFreezes
		rep.GroupUnfreezes = st.GroupUnfreezes
		rep.PinnedWorkers = st.PinnedWorkers
		rep.PinFailures = st.PinFailures
		if o.tracePath != "" {
			spans, err := saveTrace(o.tracePath, o.workers, srv.Events())
			if err != nil {
				return fmt.Errorf("write %s: %w", o.tracePath, err)
			}
			rep.TraceFile = o.tracePath
			rep.TraceSpans = spans
			fmt.Printf("trace: %d residency spans written to %s\n", spans, o.tracePath)
		}
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

// keepAliveEcho is the long-lived-mode handler: one request per pass
// (read payload, spend the service time, echo), then the connection
// goes back to the server via Requeue so the next pass re-consults the
// flow table — the path migration optimizes.
func keepAliveEcho(srv *serve.Server, conn net.Conn, payload int, work time.Duration) {
	buf := make([]byte, payload)
	if _, err := io.ReadFull(conn, buf); err != nil {
		conn.Close()
		return
	}
	if work > 0 {
		time.Sleep(work)
	}
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return
	}
	if !srv.Requeue(conn) {
		conn.Close()
	}
}

// echo copies the client's bytes back until EOF.
func echo(conn net.Conn) {
	io.Copy(conn, conn)
	conn.Close()
}

// drive runs the closed-loop clients and returns per-request latencies
// (µs), plus request/connection/failure counts.
func drive(target string, o serveOpts) (lat []float64, requests, conns, failed uint64) {
	var mu sync.Mutex
	var reqN, connN, failN atomic.Uint64
	stop := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := make([]byte, o.payload)
			buf := make([]byte, o.payload)
			local := make([]float64, 0, 4096)
			defer func() {
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			}()
			for time.Now().Before(stop) {
				conn, err := net.Dial("tcp", target)
				if err != nil {
					failN.Add(1)
					time.Sleep(time.Millisecond) // don't hot-spin on a dead target
					continue
				}
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				connN.Add(1)
				for i := 0; i < o.reqs && time.Now().Before(stop); i++ {
					t0 := time.Now()
					if _, err := conn.Write(msg); err != nil {
						failN.Add(1)
						break
					}
					if _, err := io.ReadFull(conn, buf); err != nil {
						failN.Add(1)
						break
					}
					local = append(local, float64(time.Since(t0).Microseconds()))
					reqN.Add(1)
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
	return lat, reqN.Load(), connN.Load(), failN.Load()
}

// driveLongLived opens o.longlived persistent connections whose source
// ports all hash into flow groups initially owned by worker 0 — the
// paper's skewed long-lived workload — and runs request/response loops
// on every connection for the window.
func driveLongLived(target string, srv *serve.Server, o serveOpts) (lat []float64, requests, conns, failed uint64) {
	groups := 1
	for groups < o.groups {
		groups <<= 1
	}
	base := loadgen.PortBase(groups)
	ownerOf := func(g int) int {
		if srv != nil {
			return srv.OwnerOf(uint16(base + g))
		}
		// External target: assume a fresh table (no migrations yet).
		return core.InitialOwner(g, o.workers)
	}
	if srv == nil {
		fmt.Printf("note: external target — the skew assumes the server runs %d workers and %d flow groups with no prior migrations; pass matching -workers/-groups or the workload is not skewed\n",
			o.workers, groups)
	}
	// The skew targets worker 0's groups by default. With -hot-workers N
	// the heat lands on N workers spread one per chip first (worker 0,
	// then the first worker of the next chip, …), so every thief has both
	// a same-chip and a cross-chip hot victim to choose between.
	hotOwners := map[int]bool{0: true}
	if o.hotWorkers > 1 {
		chips := o.chips
		if chips < 1 {
			chips = 1
		}
		perChip := (o.workers + chips - 1) / chips
		hotOwners = make(map[int]bool)
		for k := 0; k < o.hotWorkers; k++ {
			w := ((k%chips)*perChip + k/chips) % o.workers
			hotOwners[w] = true
		}
	}
	var hot []int
	for g := 0; g < groups; g++ {
		if hotOwners[ownerOf(g)] {
			hot = append(hot, g)
		}
	}
	if len(hot) == 0 {
		hot = []int{0}
	}

	var mu sync.Mutex
	var reqN, connN, failN atomic.Uint64
	stop := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for i := 0; i < o.longlived; i++ {
		conn, err := loadgen.DialGroup(target, hot[i%len(hot)], groups)
		if err != nil {
			failN.Add(1)
			continue
		}
		connN.Add(1)
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(o.duration + 30*time.Second))
			msg := make([]byte, o.payload)
			local := make([]float64, 0, 4096)
			defer func() {
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			}()
			for time.Now().Before(stop) {
				t0 := time.Now()
				if _, err := conn.Write(msg); err != nil {
					failN.Add(1)
					return
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					failN.Add(1)
					return
				}
				local = append(local, float64(time.Since(t0).Microseconds()))
				reqN.Add(1)
			}
		}(conn)
	}
	wg.Wait()
	return lat, reqN.Load(), connN.Load(), failN.Load()
}

// percentile returns the p-th percentile of values (sorting a copy).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// printStats prints srv's summary and per-worker table, rendered from
// its metrics scrape: the table affinity-top draws, from the same series.
func printStats(srv *serve.Server) {
	var b bytes.Buffer
	srv.WriteObsMetrics(&b)
	top.Write(os.Stdout, top.Parse(b.Bytes()))
}

// printAligned renders one header and rows with the simulator tables'
// aligned-column style.
func printAligned(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for i, h := range header {
		fmt.Printf("%-*s  ", widths[i], h)
	}
	fmt.Println()
	for _, row := range rows {
		for i, cell := range row {
			fmt.Printf("%-*s  ", widths[i], cell)
		}
		fmt.Println()
	}
}
