package serve

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"affinityaccept/internal/loadgen"
)

// shutdown stops s and fails the test if it cannot drain.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// groupsOwnedBy lists the flow groups that route to worker.
func groupsOwnedBy(s *Server, worker int) []int {
	var out []int
	base := loadgen.PortBase(s.FlowGroups())
	for g := 0; g < s.FlowGroups(); g++ {
		if s.OwnerOf(uint16(base+g)) == worker {
			out = append(out, g)
		}
	}
	return out
}

// echoBurst dials total connections, the i-th into flow group pick(i),
// and round-trips one message on each from a goroutine of its own. It
// returns once all are dialled; the WaitGroup, once all have finished.
func echoBurst(t *testing.T, s *Server, total int, pick func(i int) int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		conn := dialHot(t, s.Addr().String(), pick(i), s.FlowGroups())
		wg.Add(1)
		go func(conn net.Conn, i int) {
			defer wg.Done()
			echoOnce(t, conn, i)
		}(conn, i)
	}
	return &wg
}

// TestWakeReachesOwnerOnly pins the wake path's addressing: a push onto
// a non-busy queue wakes that queue's worker and nobody else, and an
// idle server wakes nobody at all — no worker runs a timer unless its
// own busy bit is set.
func TestWakeReachesOwnerOnly(t *testing.T) {
	const workers, groups, msgLen, trips = 4, 16, 8, 300
	var srv *Server
	s, err := New(Config{
		Workers:         workers,
		FlowGroups:      groups,
		MigrateInterval: time.Hour,
		WorkerHandler:   requeueEcho(&srv, msgLen, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()
	defer shutdown(t, s)

	conn := dialHot(t, s.Addr().String(), 5, groups)
	defer conn.Close()
	owner := s.OwnerOf(uint16(conn.LocalAddr().(*net.TCPAddr).Port))
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	msg := make([]byte, msgLen)
	trip := func() {
		t.Helper()
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			t.Fatal(err)
		}
	}
	trip()
	time.Sleep(50 * time.Millisecond) // every worker has parked

	idle := s.Stats().Workers
	time.Sleep(100 * time.Millisecond)
	quiet := s.Stats().Workers
	for i := range quiet {
		if w, d := quiet[i].Wakes-idle[i].Wakes, quiet[i].DecayTicks-idle[i].DecayTicks; w != 0 || d != 0 {
			t.Errorf("worker %d woke %d times and ticked %d times in 100ms of silence, want 0 and 0", i, w, d)
		}
	}

	for i := 0; i < trips; i++ {
		trip()
	}
	after := s.Stats().Workers
	for i := range after {
		w, d := after[i].Wakes-quiet[i].Wakes, after[i].DecayTicks-quiet[i].DecayTicks
		if d != 0 {
			t.Errorf("worker %d took %d decay ticks, want 0: no queue was ever busy", i, d)
		}
		if i != owner && w != 0 {
			t.Errorf("worker %d woke %d times for pushes onto worker %d's queue, want 0", i, w, owner)
		}
		if i == owner && (w < 1 || w > trips+1) {
			t.Errorf("owner %d woke %d times for %d round trips, want 1..%d", i, w, trips, trips+1)
		}
	}
}

// TestBusyPushWakesThieves pins the other half: a push that leaves its
// queue over the high watermark wakes the other workers too, and they
// steal. The thieves were never busy themselves, so they sleep without a
// timer and only that signal can have woken them.
func TestBusyPushWakesThieves(t *testing.T) {
	sharedListener(t)
	const workers, total, groups = 4, 40, 8
	gate := make(chan struct{})
	s, err := New(Config{
		Workers:         workers,
		FlowGroups:      groups,
		MigrateInterval: time.Hour,
		Backlog:         workers * 64,
		HighPct:         20,
		LowPct:          2,
		WorkerHandler: func(worker int, conn net.Conn) {
			if worker == 0 {
				<-gate
			}
			echoHandler(conn)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hot := groupsOwnedBy(s, 0)
	wg := echoBurst(t, s, total, func(i int) int { return hot[i%len(hot)] })
	waitFor(t, 10*time.Second, func() bool { return s.Stats().ServedStolen > 0 },
		"nothing stolen from the held worker's busy queue")
	close(gate)
	wg.Wait()
	shutdown(t, s)

	st := s.Stats()
	if st.Accepted != st.Workers[0].Accepted {
		t.Fatalf("connections routed to other workers than 0:\n%+v", st)
	}
	for _, w := range st.Workers[1:] {
		if w.Wakes == 0 || w.DecayTicks != 0 {
			t.Errorf("thief %d: %d wakes, %d decay ticks, want > 0 and 0", w.Worker, w.Wakes, w.DecayTicks)
		}
	}
}

// TestLatchedThievesStillSteal is why the decay tick exists. Every
// worker's busy bit is latched by a gated burst, the pushes are over, and
// worker 0 is slow. The other three finish their own queues with their
// bits still set — a busy worker never steals — and no push will ever
// signal them again: only charging idle time to their EWMAs clears the
// bits, after which their last Pop before sleeping scans the busy victim.
func TestLatchedThievesStillSteal(t *testing.T) {
	sharedListener(t)
	const workers, total, groups = 4, 120, 8
	gate := make(chan struct{})
	s, err := New(Config{
		Workers:         workers,
		FlowGroups:      groups,
		MigrateInterval: time.Hour,
		Backlog:         workers * 64,
		HighPct:         20,
		LowPct:          2,
		WorkerHandler: func(worker int, conn net.Conn) {
			<-gate
			if worker == 0 {
				time.Sleep(20 * time.Millisecond)
			}
			echoHandler(conn)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	wg := echoBurst(t, s, total, func(i int) int { return i % groups })
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Accepted == total },
		"burst never fully accepted")
	for i := 0; i < workers; i++ {
		if !s.bal.Busy(i) {
			t.Fatalf("worker %d's busy bit is clear with %d queued", i, s.bal.Len(i))
		}
	}
	close(gate)
	wg.Wait()
	shutdown(t, s)

	st := s.Stats()
	if st.ServedStolen == 0 {
		t.Errorf("latched workers never stole from the slow one; stats:\n%+v", st)
	}
	if st.Served != total || st.Dropped != 0 {
		t.Errorf("served %d dropped %d, want %d and 0", st.Served, st.Dropped, total)
	}
	for _, w := range st.Workers[1:] {
		if w.DecayTicks == 0 {
			t.Errorf("thief %d took no decay tick, so nothing but luck cleared its bit", w.Worker)
		}
	}
}

// TestForcedShutdownFiresParkCloseHook: a connection that woke from its
// park and is still queued when Shutdown's context expires is closed by
// the server, so the hook its layer unregisters from must fire.
func TestForcedShutdownFiresParkCloseHook(t *testing.T) {
	var srv *Server
	var fired atomic.Int32
	block := make(chan struct{})
	s, err := New(Config{
		Workers: 1,
		WorkerHandler: func(_ int, conn net.Conn) {
			var b [1]byte
			if _, err := conn.Read(b[:]); err != nil {
				conn.Close()
				return
			}
			if b[0] == 'b' {
				<-block // wedge the only worker
				conn.Close()
				return
			}
			conn.(*Conn).OnParkClose = func() { fired.Add(1) }
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
	dial := func(first string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(first)); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	a := dial("a")
	defer a.Close()
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 }, "A never parked")
	b := dial("b")
	defer b.Close()
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Active == 1 }, "B never wedged the worker")
	if _, err := a.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Queued == 1 }, "A's wake never queued")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want context.DeadlineExceeded", err)
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("OnParkClose fired %d times for the queued connection, want 1", n)
	}
	close(block)
}
