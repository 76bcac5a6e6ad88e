// The -ws mode drives the wsaff WebSocket layer: long-lived upgraded
// connections with skewed traffic (every active connection's flow group
// initially owned by worker 0, the §3.3.2 problem shape), an optional
// held-open population of mostly-idle subscribed sockets, and an
// optional broadcast publisher. It reports echo throughput, locality
// after migration, the held/parked population, and the wsaff counters
// (frames, pings, broadcasts, codec-pool reuse).
package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/loadgen"
	"affinityaccept/wsaff"
)

// wsOpts carries the -ws flag values.
type wsOpts struct {
	addr     string
	workers  int
	conns    int // active echo connections (skewed onto worker 0's groups)
	held     int // held-open idle subscribed connections
	payload  int
	duration time.Duration
	work     time.Duration // per-message service time

	broadcastEvery time.Duration // publish period (0 = no broadcasts)

	migrate      bool
	migrateEvery time.Duration
	groups       int
	jsonPath     string

	// scenarioName overrides the recorded scenario (the -scenario flag):
	// CI records the held-socket run as "ws-held" so trend tooling keyed
	// on "ws-echo" keeps reading the echo-throughput runs.
	scenarioName string
}

func (o wsOpts) scenario() string {
	if o.scenarioName != "" {
		return o.scenarioName
	}
	if o.migrate {
		return "ws-echo"
	}
	return "ws-echo-nomigrate"
}

// runWSBench starts an httpaff+wsaff echo server and drives it with
// skewed long-lived WebSocket clients.
func runWSBench(o wsOpts) error {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
		if o.workers < 2 {
			o.workers = 2
		}
	}
	if o.groups == 0 {
		o.groups = 64 // compact enough to read, fine-grained enough to migrate
	}
	if fds := raiseFDLimit(); fds > 0 && uint64(2*(o.conns+o.held)+64) > fds {
		return fmt.Errorf("-ws with %d connections needs ~%d file descriptors (two per loopback conn); the limit is %d — lower -held or raise ulimit -n",
			o.conns+o.held, 2*(o.conns+o.held)+64, fds)
	}
	ws, err := wsaff.New(wsaff.Config{
		Workers: o.workers,
		OnOpen:  func(c *wsaff.Conn) { c.Subscribe() },
		OnMessage: func(c *wsaff.Conn, op wsaff.Op, payload []byte) {
			if o.work > 0 {
				time.Sleep(o.work)
			}
			c.Send(op, payload)
		},
	})
	if err != nil {
		return err
	}
	ws.Start()
	srv, err := httpaff.New(httpaff.Config{
		Addr:             o.addr,
		Workers:          o.workers,
		FlowGroups:       o.groups,
		MigrateInterval:  o.migrateEvery,
		DisableMigration: !o.migrate,
		// The skewed keep-alive queue must cross the busy watermark for
		// stealing (and therefore migration) to engage.
		Backlog: o.workers * 64,
		HighPct: 20, LowPct: 5,
		Handler: func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) },
	})
	if err != nil {
		return err
	}
	srv.Start()
	target := srv.Addr().String()
	fmt.Printf("wsaff on %s: %d workers, migration %v\n", target, o.workers, o.migrate)

	// Skew: active connections dial from source ports hashing into flow
	// groups initially owned by worker 0.
	groups := 1
	for groups < o.groups {
		groups <<= 1
	}
	base := loadgen.PortBase(groups)
	var hot []int
	for g := 0; g < groups; g++ {
		if srv.OwnerOf(uint16(base+g)) == 0 {
			hot = append(hot, g)
		}
	}
	if len(hot) == 0 {
		hot = []int{0}
	}

	var mu sync.Mutex
	var lat []float64
	var reqN, failN, heldN, bcastGot atomic.Uint64
	var wg sync.WaitGroup

	// Held-open population: upgraded, subscribed (OnOpen), then idle —
	// they only answer pings and drain broadcasts. Dialed plainly so
	// they spread over all workers, like a real fleet of mostly-idle
	// clients; dialed concurrently (bounded) so a 10k population builds
	// in seconds, before the measurement window opens. Source IPs
	// rotate through 127.0.0.0/8 every 20k connections: one loopback
	// address has only ~28k ephemeral ports against a single listener,
	// so a 100k+ population needs several — Linux answers for the whole
	// /8 without configuration.
	var heldWG, dialWG sync.WaitGroup
	var heldMu sync.Mutex
	heldClients := make([]*wsaff.Client, 0, o.held)
	dialSem := make(chan struct{}, 64)
	for i := 0; i < o.held; i++ {
		dialWG.Add(1)
		dialSem <- struct{}{}
		src := i / 20000
		go func() {
			defer dialWG.Done()
			defer func() { <-dialSem }()
			// The first block dials unbound: connect() may reuse a port
			// an earlier run left in TIME_WAIT, bind() to 127.0.0.1:0 may
			// not, and back-to-back runs would exhaust the range.
			var d net.Dialer
			if src > 0 {
				d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, byte(src>>8), byte(1+src&0xff))}
			}
			var c *wsaff.Client
			nc, err := d.Dial("tcp", target)
			if err == nil {
				if c, err = wsaff.NewClient(nc, "/"); err != nil {
					nc.Close()
				}
			}
			// One echo opens the conn server-side (OnOpen → Subscribe).
			// Waiting for it keeps the build closed-loop: send-only dialers
			// outran the workers until full queues shed fresh handshakes.
			if err == nil {
				c.NetConn().SetDeadline(time.Now().Add(o.duration + 60*time.Second))
				if _, err = c.Echo(wsaff.OpText, []byte("hold")); err != nil {
					c.Close()
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "held conn:", err)
				failN.Add(1)
				return
			}
			heldN.Add(1)
			heldMu.Lock()
			heldClients = append(heldClients, c)
			heldMu.Unlock()
			// A reader goroutine exists only when broadcasts will arrive.
			// With no publisher a held client is pure socket: the bench
			// process itself then demonstrates the O(workers) goroutine
			// bound the event loop buys — CI asserts the sampled count.
			// (Server pings start at 30s, past any bench window, so an
			// unread socket never misses a pong within the run.)
			if o.broadcastEvery > 0 {
				heldWG.Add(1)
				go func() {
					defer heldWG.Done()
					for {
						op, _, err := c.ReadMessage() // auto-pongs pings
						if err != nil || op == wsaff.OpClose {
							return
						}
						bcastGot.Add(1)
					}
				}()
			}
		}()
	}
	dialWG.Wait()
	// The measurement window opens only now that the held population is
	// parked, so frames/s measures the echo path, not the dial phase.
	stop := time.Now().Add(o.duration)

	// Broadcast publisher. The fill byte distinguishes broadcast frames
	// from echo frames, so the closed-loop clients can skip interleaved
	// broadcasts instead of mistaking one for their echo.
	bcastStop := make(chan struct{})
	if o.broadcastEvery > 0 {
		payload := bytes.Repeat([]byte{'b'}, o.payload)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(o.broadcastEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					ws.Broadcast(wsaff.OpBinary, payload)
				case <-bcastStop:
					return
				}
			}
		}()
	}

	// Active skewed echo clients.
	for i := 0; i < o.conns; i++ {
		nc, err := loadgen.DialGroup(target, hot[i%len(hot)], groups)
		if err != nil {
			failN.Add(1)
			continue
		}
		c, err := wsaff.NewClient(nc, "/")
		if err != nil {
			nc.Close()
			failN.Add(1)
			continue
		}
		c.NetConn().SetDeadline(time.Now().Add(o.duration + 30*time.Second))
		wg.Add(1)
		go func(c *wsaff.Client) {
			defer wg.Done()
			defer c.Close()
			msg := bytes.Repeat([]byte{'e'}, o.payload)
			local := make([]float64, 0, 4096)
			defer func() {
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			}()
			for time.Now().Before(stop) {
				t0 := time.Now()
				if _, err := c.Echo(wsaff.OpBinary, msg); err != nil {
					failN.Add(1)
					return
				}
				local = append(local, float64(time.Since(t0).Microseconds()))
				reqN.Add(1)
			}
		}(c)
	}

	// Wait for the echo window, then stop broadcasting and release the
	// held population.
	for time.Now().Before(stop) {
		time.Sleep(10 * time.Millisecond)
	}
	// Sample the process goroutine count while the held population is at
	// its peak: with the event loop parking conns, the total is
	// O(workers) + O(active clients), never O(held). Also record the
	// worst per-worker coarse-clock staleness (bounded by the loops'
	// poll interval).
	goroutines := runtime.NumGoroutine()
	var clockLagUs float64
	tr := srv.Transport()
	for i := 0; i < o.workers; i++ {
		if lag := float64(time.Since(tr.CoarseNow(i)).Microseconds()); lag > clockLagUs {
			clockLagUs = lag
		}
	}
	close(bcastStop)
	wg.Wait()
	parked := srv.Transport().Parked()
	wsStats := ws.Stats()
	for _, c := range heldClients {
		c.Close()
	}
	heldWG.Wait()

	secs := o.duration.Seconds()
	requests := reqN.Load()
	fmt.Println()
	fmt.Printf("WS — skewed long-lived echo over loopback (%d active conns on worker 0's groups, %d held-open subscribed, %dB frames, %v work/msg)\n",
		o.conns, heldN.Load(), o.payload, o.work)
	header := []string{"workers", "active", "held", "secs", "frames/s", "p50(us)", "p95(us)", "p99(us)", "failed"}
	row := []string{
		fmt.Sprintf("%d", o.workers),
		fmt.Sprintf("%d", o.conns),
		fmt.Sprintf("%d", heldN.Load()),
		fmt.Sprintf("%.1f", secs),
		fmt.Sprintf("%.0f", float64(requests)/secs),
		fmt.Sprintf("%.0f", percentile(lat, 50)),
		fmt.Sprintf("%.0f", percentile(lat, 95)),
		fmt.Sprintf("%.0f", percentile(lat, 99)),
		fmt.Sprintf("%d", failN.Load()),
	}
	printAligned(header, [][]string{row})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("shutdown:", err)
	}
	ws.Close()
	st := srv.Stats()
	fmt.Println()
	fmt.Printf("locality: %.1f%% of %d passes on the owning worker; %d migrations, %d requeues, %d parked at window end\n",
		st.LocalityPct(), st.Served, st.Migrations, st.Requeued, parked)
	fmt.Printf("process: %d goroutines with %d sockets held open; coarse clock at most %.0fus stale\n",
		goroutines, heldN.Load(), clockLagUs)
	fmt.Printf("wsaff: %d frames in / %d out, %d pings, %d pongs, %d broadcasts (%d delivered, %d shard drops), codec reuse %.1f%%\n",
		wsStats.FramesIn, wsStats.FramesOut, wsStats.PingsSent, wsStats.PongsReceived,
		wsStats.Broadcasts, wsStats.Delivered, wsStats.Dropped, wsStats.Pool.ReusePct())
	printStats(srv.Transport())

	rep := benchReport{
		Scenario:     o.scenario(),
		Workers:      o.workers,
		Clients:      o.conns,
		LongLived:    o.conns + int(heldN.Load()),
		DurationSecs: secs,
		ReqPerSec:    float64(requests) / secs,
		P50us:        percentile(lat, 50),
		P95us:        percentile(lat, 95),
		P99us:        percentile(lat, 99),
		Failed:       failN.Load(),
		Sharded:      st.Sharded,
		MigrationOn:  o.migrate,
		LocalityPct:  st.LocalityPct(),
		StealPct:     st.StealPct(),
		Migrations:   st.Migrations,
		Requeued:     st.Requeued,
		Dropped:      st.Dropped,
		PoolGets:     wsStats.Pool.Gets(),
		PoolMisses:   wsStats.Pool.Misses,
		PoolReusePct: wsStats.Pool.ReusePct(),
		WSHeld:       heldN.Load(),
		WSParked:     parked,
		WSFramesIn:   wsStats.FramesIn,
		WSFramesOut:  wsStats.FramesOut,
		WSPings:      wsStats.PingsSent,
		WSPongs:      wsStats.PongsReceived,
		WSBroadcasts: wsStats.Broadcasts,
		WSDelivered:  wsStats.Delivered,
		WSReceived:   bcastGot.Load(),

		HeldConns:        heldN.Load(),
		Goroutines:       goroutines,
		CoarseClockLagUs: clockLagUs,
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
