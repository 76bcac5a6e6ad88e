package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"affinityaccept/internal/testutil"
)

// echoHandler echoes until client EOF, then closes.
func echoHandler(conn net.Conn) {
	io.Copy(conn, conn)
	conn.Close()
}

// waitFor is testutil.WaitFor: poll instead of sleep in
// timing-sensitive tests.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	testutil.WaitFor(t, d, cond, msg)
}

// sharedListener makes the servers t builds take the shared-listener
// fallback, the path every platform without SO_REUSEPORT runs.
func sharedListener(t *testing.T) {
	forceSharedListener = true
	t.Cleanup(func() { forceSharedListener = false })
}

// dialEcho opens one connection, round-trips one message and closes.
func dialEcho(t *testing.T, addr string, i int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("dial %d: %v", i, err)
		return
	}
	echoOnce(t, conn, i)
}

// echoOnce round-trips one message on an already-open connection and
// closes it.
func echoOnce(t *testing.T, conn net.Conn, i int) {
	t.Helper()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	msg := []byte(fmt.Sprintf("hello %d", i))
	if _, err := conn.Write(msg); err != nil {
		t.Errorf("write %d: %v", i, err)
		return
	}
	conn.(*net.TCPConn).CloseWrite()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Errorf("read %d: %v", i, err)
		return
	}
	if string(got) != string(msg) {
		t.Errorf("conn %d: got %q want %q", i, got, msg)
	}
}

// burst opens total concurrent connections and waits for all round
// trips to finish.
func burst(t *testing.T, addr string, total int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dialEcho(t, addr, i)
		}(i)
	}
	wg.Wait()
}

// TestBurstAllServed is the headline integration test: a loopback
// server with N workers serves a burst of connections, every one
// completes, and shutdown drains cleanly.
func TestBurstAllServed(t *testing.T) {
	const workers, total = 4, 200
	var served atomic.Int64
	s, err := New(Config{
		Workers: workers,
		Handler: func(conn net.Conn) {
			echoHandler(conn)
			served.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	burst(t, s.Addr().String(), total)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if got := served.Load(); got != total {
		t.Fatalf("served %d connections, want %d", got, total)
	}
	st := s.Stats()
	if st.Accepted != total {
		t.Errorf("accepted %d, want %d", st.Accepted, total)
	}
	if st.Served != total || st.Dropped != 0 {
		t.Errorf("served %d dropped %d, want %d and 0", st.Served, st.Dropped, total)
	}
	if st.Queued != 0 || st.Active != 0 {
		t.Errorf("after shutdown queued=%d active=%d, want 0", st.Queued, st.Active)
	}
	var perWorker uint64
	for _, w := range st.Workers {
		perWorker += w.ServedLocal + w.ServedStolen
	}
	if perWorker != st.Served {
		t.Errorf("per-worker served %d != aggregate %d", perWorker, st.Served)
	}
}

// TestStealFromStalledWorker stalls worker 0 in its handler and checks
// that idle workers steal its backlog: all connections are served and
// the steal counter is nonzero. The clients bind source ports spread
// evenly over a small flow-group table, so exactly 1/N of the
// connections deterministically route to the stalled worker regardless
// of the OS's ephemeral-port pattern. Worker 0 holds its first
// connection until the last dial, so its backlog crosses the watermark
// however slowly the dials go (source ports an earlier run left in
// TIME_WAIT slow them down).
func TestStealFromStalledWorker(t *testing.T) {
	sharedListener(t)
	const workers, total, groups = 4, 120, 8
	dialed := make(chan struct{})
	s, err := New(Config{
		Workers:    workers,
		FlowGroups: groups,
		Backlog:    workers * 64,
		HighPct:    20, // mark busy early so stealing engages
		LowPct:     2,  // ~30 pushes only nudge the 1/128-alpha EWMA to ~4; keep busy latched
		WorkerHandler: func(worker int, conn net.Conn) {
			if worker == 0 {
				<-dialed
				time.Sleep(20 * time.Millisecond) // the artificially stalled worker
			}
			echoHandler(conn)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	wg := echoBurst(t, s, total, func(i int) int { return i % groups })
	close(dialed)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	if st.ServedStolen == 0 {
		t.Fatalf("expected nonzero steals with a stalled worker; stats:\n%+v", st)
	}
	if st.Served+st.Dropped != total {
		t.Errorf("served %d + dropped %d != %d", st.Served, st.Dropped, total)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d connections; backlog should have absorbed the stall", st.Dropped)
	}
}

// TestShutdownDrainsQueued checks that connections still queued when
// Shutdown is called are served, not abandoned.
func TestShutdownDrainsQueued(t *testing.T) {
	const workers, total = 2, 40
	gate := make(chan struct{})
	var served atomic.Int64
	s, err := New(Config{
		Workers: workers,
		Handler: func(conn net.Conn) {
			<-gate // hold both workers until Shutdown is in flight
			echoHandler(conn)
			served.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	clients := make(chan struct{})
	go func() {
		burst(t, s.Addr().String(), total)
		close(clients)
	}()
	// Wait until everything is accepted and queued behind the gate.
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Accepted == total },
		"burst never fully accepted")

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()
	// Open the gate only once Shutdown has closed the listeners and
	// reached its drain phase, so the assertion below proves that
	// already-queued connections are served during the drain.
	waitFor(t, 10*time.Second, func() bool { return s.draining.Load() },
		"Shutdown never reached the drain phase")
	close(gate)

	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-clients
	if got := served.Load(); got != total {
		t.Fatalf("served %d, want all %d queued connections drained", got, total)
	}
}

// TestShutdownDeadlineForcesClose checks the non-graceful path: with
// workers permanently wedged, Shutdown returns the context error and
// closes queued connections instead of hanging.
func TestShutdownDeadlineForcesClose(t *testing.T) {
	const groups = 8
	block := make(chan struct{})
	s, err := New(Config{
		Workers:    2,
		FlowGroups: groups,
		Handler:    func(conn net.Conn) { <-block; conn.Close() },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		// One connection per flow group: both workers' queues
		// deterministically receive work, so exactly one handler wedges
		// on each worker.
		conn := dialHot(t, s.Addr().String(), i%groups, groups)
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			io.ReadAll(conn) // returns once the server force-closes
		}(conn)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Accepted >= 8 },
		"connections never accepted")

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want context.DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.Queued != 0 {
		t.Errorf("forced shutdown left %d queued connections", st.Queued)
	}
	// The two wedged handlers are the only connections ever served; the
	// six force-closed ones must not be counted as served.
	if st.Served != 2 {
		t.Errorf("served %d, want 2: discarded connections must not count as served", st.Served)
	}
	close(block) // release the wedged handlers so their clients finish
	wg.Wait()
}

// TestSharedListenerFallback runs the portable path end to end: the
// single shared listener routes through the same flow-group table as
// sharded mode, so locality and group stats stay meaningful off-Linux.
func TestSharedListenerFallback(t *testing.T) {
	sharedListener(t)
	s, err := New(Config{
		Workers: 3,
		Handler: echoHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Sharded() {
		t.Fatal("forceSharedListener ignored")
	}
	s.Start()
	burst(t, s.Addr().String(), 60)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	if st.Served != 60 {
		t.Fatalf("served %d, want 60", st.Served)
	}
	if st.Accepted != 60 {
		t.Fatalf("accepted %d, want 60", st.Accepted)
	}
	// Flow-group routing spreads ephemeral client ports across all
	// workers (the diagonal initial assignment breaks port-parity
	// clumping); with 60 sequential-ish dials every worker sees some.
	totalGroups := 0
	for _, w := range st.Workers {
		if w.Accepted == 0 {
			t.Errorf("worker %d accepted 0 connections; flow-group routing starved it:\n%+v", w.Worker, st)
		}
		totalGroups += w.GroupsOwned
	}
	if totalGroups != st.FlowGroups {
		t.Errorf("groups owned sum to %d, want %d", totalGroups, st.FlowGroups)
	}
}

// TestAcceptRemoteCountsHandOff pins the accept-time hand-off count:
// under SO_REUSEPORT the kernel's hash picks the listener and agrees
// with the flow table on about one connection in Workers, so some of
// 200 dials at two workers land on the other worker's listener — never
// more than were accepted, per worker — while the shared listener,
// which hands every connection off by construction, counts none.
func TestAcceptRemoteCountsHandOff(t *testing.T) {
	for _, shared := range []bool{true, false} {
		forceSharedListener = shared
		s, err := New(Config{Workers: 2, Handler: echoHandler})
		forceSharedListener = false
		if err != nil {
			t.Fatal(err)
		}
		if !shared && !s.Sharded() {
			t.Skip("SO_REUSEPORT unavailable: no sharded listeners to compare")
		}
		s.Start()
		burst(t, s.Addr().String(), 200)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		st := s.Stats()
		var remote uint64
		for _, w := range st.Workers {
			if w.AcceptRemote > w.Accepted {
				t.Errorf("shared=%v worker %d: %d remote of %d accepted", shared, w.Worker, w.AcceptRemote, w.Accepted)
			}
			remote += w.AcceptRemote
		}
		if shared && remote != 0 {
			t.Errorf("shared listener counted %d remote accepts, want 0", remote)
		}
		if !shared && (remote == 0 || remote > st.Accepted) {
			t.Errorf("sharded: %d remote accepts of %d, want 0 < remote <= accepted", remote, st.Accepted)
		}
		t.Logf("shared=%v: %d of %d accepts handed to another worker", shared, remote, st.Accepted)
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error when no handler is set")
	}
	if _, err := New(Config{
		Handler:       echoHandler,
		WorkerHandler: func(int, net.Conn) {},
	}); err == nil {
		t.Error("want error when both handlers are set")
	}
	if _, err := New(Config{Handler: echoHandler, Addr: "256.0.0.1:bad"}); err == nil {
		t.Error("want error for a bad address")
	}
	// HighPct 8 leaves the default low watermark (10) above it; New must
	// return an error, not let the core queues panic.
	if _, err := New(Config{Handler: echoHandler, HighPct: 8}); err == nil {
		t.Error("want error when low watermark >= high")
	}
	if _, err := New(Config{Handler: echoHandler, StealRatio: -1}); err == nil {
		t.Error("want error for a negative steal ratio")
	}
}
