package serve

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"affinityaccept/internal/obs"
)

// testWakeDuringMigration checks the interaction the evloop refactor
// must preserve (ISSUE: migration/steal semantics unchanged): a
// connection parks while its flow group is owned by worker A, the group
// migrates to worker B, and the wake routes the next pass through the
// flow table — so it lands on B, the new owner, not on whichever worker
// parked it.
func testWakeDuringMigration(t *testing.T) {
	const groups = 8
	var srv *Server
	var mu sync.Mutex
	var passWorkers []int
	s, err := New(Config{
		Workers:          2,
		FlowGroups:       groups,
		DisableMigration: true, // the test migrates by hand
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
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	conn := dialHot(t, s.Addr().String(), 3, groups)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	localPort := conn.LocalAddr().(*net.TCPAddr).Port
	group := s.flow.GroupOf(uint16(localPort))
	owner := s.flow.CoreOf(group)

	buf := make([]byte, 4)
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	// The response is out; wait until the server has actually parked the
	// connection on its owner's event loop before migrating.
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 },
		"connection never parked")

	newOwner := 1 - owner
	s.flow.Migrate(group, newOwner)

	if _, err := conn.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(passWorkers) != 2 {
		t.Fatalf("served %d passes, want 2", len(passWorkers))
	}
	if passWorkers[0] != owner {
		t.Errorf("pass 0 served by worker %d, want pre-migration owner %d", passWorkers[0], owner)
	}
	if passWorkers[1] != newOwner {
		t.Errorf("post-migration wake served by worker %d, want new owner %d", passWorkers[1], newOwner)
	}
}

// bothParkers runs a scenario against the platform event loop and the
// portable fallback — same assertions; the two park implementations
// must be indistinguishable above Requeue.
func bothParkers(t *testing.T, scenario func(t *testing.T)) {
	t.Run("evloop", scenario)
	t.Run("portable", func(t *testing.T) {
		forcePortableParking = true
		defer func() { forcePortableParking = false }()
		scenario(t)
	})
}

func TestWakeDuringMigration(t *testing.T) { bothParkers(t, testWakeDuringMigration) }

// TestRequeueWithInputBuffered pins what Arm alone now guarantees (a
// look-before-parking probe in Requeue used to own it): a Requeue made
// while the next request already sits in the socket buffer is a real
// park that is delivered exactly once. The client writes three requests
// in one segment, so the first Requeue is a fresh registration that
// finds data pending (the kernel's initial EPOLL_CTL_ADD event delivers
// it), the second a re-arm that finds data pending (the post-arm probe
// delivers it), and the third parks idle.
func TestRequeueWithInputBuffered(t *testing.T) {
	bothParkers(t, func(t *testing.T) {
		var srv *Server
		s, err := New(Config{Workers: 1, Handler: requeueEcho(&srv, 4, 0)})
		if err != nil {
			t.Fatal(err)
		}
		srv = s
		s.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()

		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write([]byte("aaaabbbbcccc")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 12)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("reading three echoes: %v", err)
		}
		if string(buf) != "aaaabbbbcccc" {
			t.Fatalf("echoes = %q, want each request answered once, in order", buf)
		}
		waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 && s.Stats().Requeued == 3 },
			"third requeue never parked")

		// Nothing more arrives: a fourth pass would mean a double delivery.
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil {
			t.Fatalf("read %d surplus bytes", n)
		}
		parks, wakes := 0, 0
		for _, ev := range s.Events() {
			switch ev.Kind {
			case obs.KindPark:
				parks++
			case obs.KindWake:
				wakes++
			}
		}
		if parks != 3 || wakes != 2 {
			t.Errorf("events: %d park, %d wake; want 3 and 2 (one pair per delivered requeue)", parks, wakes)
		}
		if n := s.ParkDurationSnapshot().Count; n != 2 {
			t.Errorf("park-duration samples = %d, want 2", n)
		}
		if st := s.Stats(); st.Served != 3 {
			t.Errorf("served %d passes, want 3", st.Served)
		}
	})
}

// TestRequeueAfterShutdownLeavesConn: once Shutdown has closed the
// loops, Requeue refuses even a connection whose next request is
// already buffered, and the caller still owns it, input intact.
func TestRequeueAfterShutdownLeavesConn(t *testing.T) {
	bothParkers(t, func(t *testing.T) {
		s, err := New(Config{Workers: 1, Handler: echoHandler})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		cli, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := cli.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if s.Requeue(conn) {
			t.Fatal("Requeue accepted a connection after shutdown")
		}
		if st := s.Stats(); st.Requeued != 0 || st.Parked != 0 {
			t.Errorf("refused requeue counted: requeued=%d parked=%d", st.Requeued, st.Parked)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
			t.Fatalf("caller's read after refusal = %q, %v; want the request intact", buf, err)
		}
	})
}

// TestPortableParkingShutdownParity re-runs the park-then-shutdown
// lifecycle with the portable fallback forced on: parked connections
// are still closed by Shutdown and Requeue still refuses afterwards.
func TestPortableParkingShutdownParity(t *testing.T) {
	forcePortableParking = true
	defer func() { forcePortableParking = false }()

	var srv *Server
	s, err := New(Config{
		Workers: 2,
		Handler: requeueEcho(&srv, 4, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	for _, l := range s.loops {
		if !l.Portable() {
			t.Fatal("forcePortableParking did not take: loop has a poller")
		}
	}
	s.Start()

	const conns = 6
	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == conns },
		"connections never all parked")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s.Parked(); got != 0 {
		t.Errorf("parked after shutdown = %d, want 0", got)
	}
	buf := make([]byte, 1)
	for i, c := range cs {
		if _, err := c.Read(buf); err == nil {
			t.Errorf("conn %d still open after shutdown", i)
		}
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if s.Requeue(c1) {
		t.Error("Requeue accepted a connection after shutdown")
	}
}
