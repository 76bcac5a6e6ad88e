// Command affinity-bench regenerates the paper's tables and figures,
// and can also drive the real serve.Server over loopback.
//
// Usage:
//
//	affinity-bench -list
//	affinity-bench F2 T2          # run selected experiments
//	affinity-bench -quick -all    # reduced sweeps, everything
//
//	affinity-bench -serve                  # real-server loopback benchmark
//	affinity-bench -serve -stall 2         # stall worker 0: show stealing
//	affinity-bench -serve -longlived 24    # skewed keep-alive workload:
//	                                       # flow-group migration (§3.3.2)
//	affinity-bench -serve -longlived 24 -migrate=false   # stealing only
//	affinity-bench -client host:port       # drive an external server
//	affinity-bench -serve -json BENCH_ci.json            # append a JSON record
//
//	affinity-bench -http                   # httpaff: pipelined keep-alive HTTP/1.1
//	affinity-bench -http -pipeline 32 -clients 16        # deeper pipelines
//	affinity-bench -http -migrate=false                  # without §3.3.2 migration
//
//	affinity-bench -proxy                  # proxyaff edge: client → proxy → backends
//	affinity-bench -proxy -backends 4 -pinned=false      # round-robin over 4 backends
//	affinity-bench -proxy -migrate=false                 # edge without §3.3.2 migration
//
//	affinity-bench -ws                     # wsaff: skewed long-lived WebSocket echo
//	affinity-bench -ws -clients 16 -held 1000            # plus 1000 idle held-open sockets
//	affinity-bench -ws -broadcast-every 50ms             # plus broadcast fan-out load
//	affinity-bench -ws -migrate=false                    # without §3.3.2 migration
//
//	affinity-bench -hostile                # admission control under attack:
//	                                       # normal clients + slowloris + floods
//	affinity-bench -hostile -slowloris 16 -floods 8      # heavier attack
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"affinityaccept"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "reduced sweeps and windows")
		seed  = flag.Int64("seed", 42, "simulation seed")

		serveMode = flag.Bool("serve", false, "benchmark the real serve.Server over loopback")
		client    = flag.String("client", "", "drive an external server at host:port instead of starting one")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address for -serve")
		workers   = flag.Int("workers", 0, "worker count for -serve (0 = GOMAXPROCS)")
		clients   = flag.Int("clients", 32, "concurrent load-generator connections")
		reqs      = flag.Int("reqs", 6, "requests per connection (paper's reuse: 6)")
		payload   = flag.Int("payload", 64, "request/response payload bytes")
		duration  = flag.Duration("duration", 2*time.Second, "load-generation window")
		stall     = flag.Float64("stall", 0, "stall worker 0 this many ms per connection (demonstrates stealing)")
		noShard   = flag.Bool("noshard", false, "force the shared-listener fallback instead of SO_REUSEPORT")

		httpMode = flag.Bool("http", false, "benchmark the httpaff HTTP/1.1 layer with pipelined keep-alive clients")
		pipeline = flag.Int("pipeline", 16, "requests per pipelined batch in -http/-proxy mode")

		proxyMode = flag.Bool("proxy", false, "benchmark the proxyaff edge: clients → reverse proxy → in-process backends")
		nBackends = flag.Int("backends", 2, "in-process backend servers in -proxy mode")
		pinned    = flag.Bool("pinned", true, "worker-pinned backend selection in -proxy mode (false = round-robin)")

		hostileMode = flag.Bool("hostile", false, "benchmark admission control: the -http workload plus slowloris and per-IP flood attackers against a hardened server")
		slowloris   = flag.Int("slowloris", 8, "header-dripping attacker connections in -hostile mode")
		floods      = flag.Int("floods", 3, "per-IP connect-flood attackers in -hostile mode")
		ipRate      = flag.Float64("ip-rate", 5, "per-IP accept rate (conns/sec per bucket) in -hostile mode")
		ipBurst     = flag.Int("ip-burst", 0, "per-IP accept burst in -hostile mode (0 = 2x -clients)")
		maxConns    = flag.Int("maxconns", 256, "transport connection budget in -hostile mode")
		headerTO    = flag.Duration("header-timeout", 500*time.Millisecond, "header read deadline in -hostile mode")

		wsMode    = flag.Bool("ws", false, "benchmark the wsaff WebSocket layer: skewed long-lived echo connections, optional held-open and broadcast load")
		held      = flag.Int("held", 0, "held-open idle subscribed WebSocket connections in -ws mode")
		broadcast = flag.Duration("broadcast-every", 0, "publish a broadcast at this period in -ws mode (0 = off)")
		scenario  = flag.String("scenario", "", "override the scenario name recorded in the -json report (-ws mode)")

		longlived    = flag.Int("longlived", 0, "drive N long-lived keep-alive connections skewed onto worker 0's flow groups (demonstrates §3.3.2 migration)")
		hotWorkers   = flag.Int("hot-workers", 1, "spread the -longlived skew over this many workers, one per chip first (the distance-ordered steal scan needs a hot victim on each chip to choose between)")
		work         = flag.Duration("work", 200*time.Microsecond, "per-request handler service time in -longlived mode")
		migrate      = flag.Bool("migrate", true, "enable the flow-group migration loop")
		migrateEvery = flag.Duration("migrate-interval", 0, "base migration tick, backed off once locality converges (0 = the paper's 100ms)")
		groups       = flag.Int("groups", 0, "flow-group count (0 = the paper's 4096; -longlived defaults to 16)")
		scrapeEvery  = flag.Duration("scrape-every", 0, "in -http mode, fetch /metrics and /debug/events at this period during the run (0 = no scraper)")
		tracePath    = flag.String("trace", "", "save the run's control-plane timeline as a Chrome trace-event file (load in chrome://tracing or Perfetto); -serve and -http modes")
		chips        = flag.Int("chips", 0, "simulated chip count: orders the steal scan same-chip-first and feeds the NUMA attribution pass (0 or 1 = flat single-chip)")
		pin          = flag.Bool("pin", false, "pin each worker's OS thread to a CPU via sched_setaffinity (degrades to unpinned where unsupported)")
		jsonPath     = flag.String("json", "", "append this run's metrics to a JSON array file (e.g. BENCH_ci.json)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *hostileMode {
		burst := *ipBurst
		if burst <= 0 {
			burst = 2 * *clients
		}
		err := runHostileBench(hostileOpts{
			httpOpts: httpOpts{
				addr:         *addr,
				workers:      *workers,
				clients:      *clients,
				pipeline:     *pipeline,
				payload:      *payload,
				duration:     *duration,
				noShard:      *noShard,
				migrate:      *migrate,
				migrateEvery: *migrateEvery,
				groups:       *groups,
				jsonPath:     *jsonPath,
			},
			slowloris: *slowloris,
			floods:    *floods,
			ipRate:    *ipRate,
			ipBurst:   burst,
			maxConns:  *maxConns,
			headerTO:  *headerTO,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *wsMode {
		err := runWSBench(wsOpts{
			addr:           *addr,
			workers:        *workers,
			conns:          *clients,
			held:           *held,
			payload:        *payload,
			duration:       *duration,
			work:           *work,
			noShard:        *noShard,
			broadcastEvery: *broadcast,
			migrate:        *migrate,
			migrateEvery:   *migrateEvery,
			groups:         *groups,
			jsonPath:       *jsonPath,
			scenarioName:   *scenario,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *proxyMode {
		err := runProxyBench(proxyOpts{
			httpOpts: httpOpts{
				addr:         *addr,
				workers:      *workers,
				clients:      *clients,
				pipeline:     *pipeline,
				payload:      *payload,
				duration:     *duration,
				noShard:      *noShard,
				migrate:      *migrate,
				migrateEvery: *migrateEvery,
				groups:       *groups,
				jsonPath:     *jsonPath,
			},
			backends: *nBackends,
			pinned:   *pinned,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *httpMode {
		err := runHTTPBench(httpOpts{
			addr:         *addr,
			workers:      *workers,
			clients:      *clients,
			pipeline:     *pipeline,
			payload:      *payload,
			duration:     *duration,
			noShard:      *noShard,
			migrate:      *migrate,
			migrateEvery: *migrateEvery,
			groups:       *groups,
			jsonPath:     *jsonPath,
			scrapeEvery:  *scrapeEvery,
			tracePath:    *tracePath,
			chips:        *chips,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *serveMode || *client != "" {
		err := runServeBench(serveOpts{
			addr:         *addr,
			client:       *client,
			workers:      *workers,
			clients:      *clients,
			reqs:         *reqs,
			payload:      *payload,
			duration:     *duration,
			stallMS:      *stall,
			noShard:      *noShard,
			longlived:    *longlived,
			hotWorkers:   *hotWorkers,
			work:         *work,
			migrate:      *migrate,
			migrateEvery: *migrateEvery,
			groups:       *groups,
			jsonPath:     *jsonPath,
			tracePath:    *tracePath,
			chips:        *chips,
			pin:          *pin,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range affinityaccept.Experiments() {
			fmt.Printf("%-4s %s\n", id, affinityaccept.DescribeExperiment(id))
		}
		return
	}

	ids := flag.Args()
	if *all || len(ids) == 0 {
		ids = affinityaccept.Experiments()
	}

	opt := affinityaccept.Options{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		res, err := affinityaccept.RunExperiment(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
