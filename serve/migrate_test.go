package serve

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/obs"
)

// dialHot opens a connection whose local (ephemeral) port hashes into
// the given flow group. This is how the tests and the benchmark
// construct the paper's skewed workload: every connection lands in a
// group owned by one worker.
func dialHot(t *testing.T, addr string, group, groups int) net.Conn {
	t.Helper()
	conn, err := loadgen.DialGroup(addr, group, groups)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// requeueEcho builds a keep-alive handler: each pass reads msgLen
// bytes, spends `work` of service time, echoes them, and returns the
// connection to the server. Nonzero work is what makes a skewed
// workload overload its owning worker — a bare 8-byte echo is so cheap
// one worker keeps up with any number of closed-loop clients.
func requeueEcho(srv **Server, msgLen int, work time.Duration) Handler {
	return func(conn net.Conn) {
		buf := make([]byte, msgLen)
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
		if !(*srv).Requeue(conn) {
			conn.Close()
		}
	}
}

// runSkewedKeepAlive drives one four-worker server, configured by cfg's
// FlowGroups, Chips and DisableMigration, with the paper's §3.3.2
// problem workload: conns long-lived connections, all hashing into flow
// groups initially owned by the first worker of each chip (worker 0 on
// a flat machine), each looping request/response for the window. It
// returns the stats sampled as the window closes, with every client
// still looping, and, once the clients have stopped and the server has
// shut down, the final stats and event timeline.
func runSkewedKeepAlive(t *testing.T, cfg Config, conns int) (closing, final Stats, events []obs.Event) {
	t.Helper()
	const (
		msgLen = 8
		window = 400 * time.Millisecond
	)
	var srv *Server
	cfg.Workers = 4
	cfg.MigrateInterval = 2 * time.Millisecond
	cfg.Backlog = cfg.Workers * 64
	cfg.HighPct, cfg.LowPct = 20, 5
	cfg.Handler = requeueEcho(&srv, msgLen, 200*time.Microsecond)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()

	hotWorker := map[int]bool{}
	for w := 0; w < cfg.Workers; w++ {
		hotWorker[w] = w == 0 || s.WorkerChip(w) != s.WorkerChip(w-1)
	}
	// The hot workers' groups as the run starts, in group order so the
	// connections spread evenly over the hot workers.
	var hot []int
	base := loadgen.PortBase(s.FlowGroups())
	for g := 0; g < s.FlowGroups(); g++ {
		if hotWorker[s.OwnerOf(uint16(base+g))] {
			hot = append(hot, g)
		}
	}
	if len(hot) == 0 {
		t.Fatal("the hot workers own no groups")
	}

	var wg sync.WaitGroup
	stop := time.Now().Add(window)
	for i := 0; i < conns; i++ {
		conn := dialHot(t, s.Addr().String(), hot[i%len(hot)], s.FlowGroups())
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			msg := make([]byte, msgLen)
			for time.Now().Before(stop) {
				if _, err := conn.Write(msg); err != nil {
					return
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					return
				}
			}
		}(conn)
	}
	time.Sleep(time.Until(stop))
	closing = s.Stats()
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	return closing, s.Stats(), s.Events()
}

// TestMigrationRescuesSkewedKeepAlive is the §3.3.2 headline: with all
// long-lived connections hashed into worker 0's flow groups, stealing
// alone serves most passes remotely forever; the migration loop
// re-points the hot groups at the stealing workers, so locality
// improves and the migration count is nonzero. Over the whole migrating
// run, the event plane keeps every move: each one left a KindMigrate
// event on the control ring, and the stitched per-group journeys carry
// them all.
func TestMigrationRescuesSkewedKeepAlive(t *testing.T) {
	_, stealOnly, _ := runSkewedKeepAlive(t, Config{FlowGroups: 16, DisableMigration: true}, 24)
	_, migrating, events := runSkewedKeepAlive(t, Config{FlowGroups: 16}, 24)

	t.Logf("steal-only: locality %.1f%% migrations %d\n%+v",
		stealOnly.LocalityPct(), stealOnly.Migrations, stealOnly)
	t.Logf("migrating:  locality %.1f%% migrations %d\n%+v",
		migrating.LocalityPct(), migrating.Migrations, migrating)

	if stealOnly.Migrations != 0 {
		t.Errorf("DisableMigration run applied %d migrations", stealOnly.Migrations)
	}
	if migrating.Migrations == 0 {
		t.Fatal("migration run applied no migrations")
	}
	if migrating.LocalityPct() <= stealOnly.LocalityPct() {
		t.Errorf("migration did not improve locality: %.1f%% (migrating) vs %.1f%% (steal-only)",
			migrating.LocalityPct(), stealOnly.LocalityPct())
	}
	// The skew itself must have been real: the steal-only run relied on
	// remote serving.
	if stealOnly.ServedStolen == 0 {
		t.Error("steal-only run recorded no steals; workload was not skewed enough")
	}

	var migrateEvents uint64
	migrated := map[int32]bool{}
	for _, ev := range events {
		if ev.Kind == obs.KindMigrate {
			migrateEvents++
			migrated[ev.Group] = true
		}
	}
	if migrateEvents != migrating.Migrations {
		t.Errorf("%d migrate events on the control ring for %d stats migrations", migrateEvents, migrating.Migrations)
	}
	var journeyMigrations uint64
	for _, j := range obs.Stitch(events) {
		journeyMigrations += uint64(j.Migrations)
		delete(migrated, j.Group)
	}
	if journeyMigrations != migrating.Migrations {
		t.Errorf("stitched journeys carry %d migrations, stats count %d", journeyMigrations, migrating.Migrations)
	}
	if len(migrated) != 0 {
		t.Errorf("migrated groups without a journey: %v", migrated)
	}
}

// TestStealStaysOnChip drives the skewed keep-alive workload through
// real sockets on a simulated two-chip machine, one hot worker per chip
// and migration off, so every thief has a same-chip and a cross-chip
// victim to choose between. While the load runs, the steal scan serve
// wires from Config.Chips must take nearly every steal from the thief's
// own chip (a flat scan takes about half across the chip line). The
// count is read as the window closes: once the clients stop, one chip's
// hot queue runs dry first, and stealing from the other chip is then
// the nearest busy victim, as it should be.
func TestStealStaysOnChip(t *testing.T) {
	st, _, _ := runSkewedKeepAlive(t, Config{FlowGroups: 64, Chips: 2, DisableMigration: true}, 48)
	t.Logf("%d steals, %d cross-chip", st.ServedStolen, st.CrossChipSteals)
	if st.ServedStolen == 0 {
		t.Fatal("no steals; workload was not skewed enough")
	}
	if 100*st.CrossChipSteals >= 5*st.ServedStolen {
		t.Errorf("%d of %d steals crossed the chip line, want under 5%%", st.CrossChipSteals, st.ServedStolen)
	}
}

// TestMigrationPausesWhileAllWorkersBusy drives balanceOnce directly
// against synthesized queue state: a worker that stole keeps the claim
// pending while it is itself busy, and applies it once its queue
// drains. This is §3.3.2's "only non-busy cores migrate" rule at the
// serve layer. The server is never started, so the queues are fully
// test-controlled.
func TestMigrationPausesWhileAllWorkersBusy(t *testing.T) {
	s, err := New(Config{
		Workers:          2,
		FlowGroups:       8,
		DisableMigration: true, // ticks are manual
		Backlog:          40,   // 20 per worker: high = 4, low = 1
		HighPct:          20,
		LowPct:           5,
		Handler:          echoHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Never started, but New bound listeners; release them.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// Worker 0 crosses its high watermark; worker 1 steals from it.
	for i := 0; i < 6; i++ {
		s.bal.Push(0, nil)
	}
	if !s.bal.Busy(0) {
		t.Fatal("worker 0 not busy after overfilling its queue")
	}
	if _, from, ok := s.bal.Pop(1); !ok || from != 0 {
		t.Fatalf("worker 1 pop = (from %d, ok %v), want steal from 0", from, ok)
	}

	// Now worker 1 goes busy too: migration must pause entirely.
	for i := 0; i < 6; i++ {
		s.bal.Push(1, nil)
	}
	if !s.bal.Busy(1) {
		t.Fatal("worker 1 not busy")
	}
	if n := s.balanceOnce(); n != 0 {
		t.Fatalf("balance applied %d migrations while every worker was busy", n)
	}

	// Drain worker 1 and let its EWMA decay below the low watermark:
	// the pending claim applies on the next tick.
	for {
		if _, ok := s.bal.DiscardAt(1); !ok {
			break
		}
	}
	for i := 0; i < 1000 && s.bal.Busy(1); i++ {
		s.bal.ObserveIdle(1, 10)
	}
	if s.bal.Busy(1) {
		t.Fatal("worker 1 still busy after draining")
	}
	if n := s.balanceOnce(); n != 1 {
		t.Fatalf("balance applied %d migrations after worker 1 drained, want 1", n)
	}
	st := s.Stats()
	if st.Migrations != 1 {
		t.Errorf("stats migrations = %d, want 1", st.Migrations)
	}
	if st.Workers[1].MigratedIn != 1 {
		t.Errorf("worker 1 migrated-in = %d, want 1", st.Workers[1].MigratedIn)
	}
	if st.Workers[1].GroupsOwned != 5 || st.Workers[0].GroupsOwned != 3 {
		t.Errorf("groups owned = %d/%d, want 3/5 after one 0->1 migration",
			st.Workers[0].GroupsOwned, st.Workers[1].GroupsOwned)
	}
}

// TestRequeueRoutesToOwningWorker checks the keep-alive return path:
// every pass of an uncontended connection is served by the worker that
// owns its flow group.
func TestRequeueRoutesToOwningWorker(t *testing.T) {
	const groups = 8
	var srv *Server
	var mu sync.Mutex
	var passWorkers []int
	s, err := New(Config{
		Workers:          2,
		FlowGroups:       groups,
		DisableMigration: true,
		WorkerHandler: func(worker int, conn net.Conn) {
			buf := make([]byte, 4)
			if _, err := io.ReadFull(conn, buf); err != nil {
				conn.Close()
				return
			}
			mu.Lock()
			passWorkers = append(passWorkers, worker)
			mu.Unlock()
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				return
			}
			if !srv.Requeue(conn) {
				conn.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()

	conn := dialHot(t, s.Addr().String(), 3, groups)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	localPort := conn.LocalAddr().(*net.TCPAddr).Port
	owner := s.OwnerOf(uint16(localPort))

	buf := make([]byte, 4)
	for pass := 0; pass < 3; pass++ {
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatalf("pass %d write: %v", pass, err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("pass %d read: %v", pass, err)
		}
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(passWorkers) != 3 {
		t.Fatalf("served %d passes, want 3", len(passWorkers))
	}
	for pass, w := range passWorkers {
		if w != owner {
			t.Errorf("pass %d served by worker %d, want owner %d", pass, w, owner)
		}
	}
	if st := s.Stats(); st.Requeued < 2 {
		t.Errorf("requeued = %d, want >= 2", st.Requeued)
	}
}

// TestRequeueDuringShutdown covers the drain interaction: parked
// keep-alive connections are closed by Shutdown (the client sees EOF,
// the server does not hang), and Requeue refuses new parks once
// shutdown has begun.
func TestRequeueDuringShutdown(t *testing.T) {
	var srv *Server
	s, err := New(Config{
		Workers: 1,
		Handler: requeueEcho(&srv, 4, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	// The connection is now parked server-side, waiting for the next
	// request that will never come.
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Requeued > 0 },
		"connection never requeued")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := conn.Read(buf); err == nil {
		t.Error("parked connection still open after shutdown")
	}

	// Requeue after shutdown is refused; the caller keeps ownership.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if s.Requeue(c1) {
		t.Error("Requeue accepted a connection after shutdown")
	}
}

// TestFlowGroupCountAblationRealServer runs the A4 ablation (§3.1,
// flow-group count) against the real server instead of the simulator:
// with a single group every connection clumps onto one worker, while
// larger counts spread accepts — the same shape the simulated A4 sweep
// reports.
func TestFlowGroupCountAblationRealServer(t *testing.T) {
	for _, groups := range []int{1, 8, 256} {
		s, err := New(Config{
			Workers:    2,
			FlowGroups: groups,
			Handler:    echoHandler,
		})
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		s.Start()
		burst(t, s.Addr().String(), 40)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("groups=%d shutdown: %v", groups, err)
		}
		st := s.Stats()
		if st.Served != 40 {
			t.Fatalf("groups=%d: served %d, want 40", groups, st.Served)
		}
		owned := 0
		for _, w := range st.Workers {
			owned += w.GroupsOwned
		}
		if owned != s.FlowGroups() {
			t.Errorf("groups=%d: owned sum %d != %d", groups, owned, s.FlowGroups())
		}
		if groups == 1 {
			// One group: every connection routes to its single owner.
			if st.Workers[0].Accepted+st.Workers[1].Accepted != 40 ||
				(st.Workers[0].Accepted != 0 && st.Workers[1].Accepted != 0) {
				t.Errorf("groups=1: accepts split %d/%d, want all on one worker",
					st.Workers[0].Accepted, st.Workers[1].Accepted)
			}
		}
		if groups == 256 {
			// Plenty of groups: ephemeral ports reach both workers.
			if st.Workers[0].Accepted == 0 || st.Workers[1].Accepted == 0 {
				t.Errorf("groups=256: accepts split %d/%d, want both workers used",
					st.Workers[0].Accepted, st.Workers[1].Accepted)
			}
		}
	}
}
