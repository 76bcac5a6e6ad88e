package serve

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAddrWithoutListeners guards the nil path: a Server that never
// bound (zero value, or a construction that failed before listen)
// reports a nil address instead of panicking.
func TestAddrWithoutListeners(t *testing.T) {
	var s Server
	if addr := s.Addr(); addr != nil {
		t.Fatalf("Addr on an unbound server = %v, want nil", addr)
	}
}

// TestRequeueConcurrentWithShutdown races live keep-alive traffic —
// handlers calling Requeue, park goroutines pushing woken connections —
// against Shutdown. The existing coverage only shuts down after the
// traffic has settled into a parked state; here clients keep writing
// while Shutdown runs, so Requeue and park hit every phase of the
// closeAll / wait / drain sequence. The invariants: Shutdown returns
// within its deadline without force-closing, and every client observes
// a clean close rather than a hang.
func TestRequeueConcurrentWithShutdown(t *testing.T) {
	const (
		workers = 4
		conns   = 16
		msgLen  = 4
	)
	var srv *Server
	s, err := New(Config{
		Workers: workers,
		WorkerHandler: func(_ int, conn net.Conn) {
			buf := make([]byte, msgLen)
			if _, err := io.ReadFull(conn, buf); err != nil {
				conn.Close()
				return
			}
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

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			msg := make([]byte, msgLen)
			// Write until the server's shutdown closes the connection
			// under us — parked connections read EOF, in-flight ones
			// are refused at Requeue and closed.
			for {
				if _, err := conn.Write(msg); err != nil {
					return
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					return
				}
			}
		}(conn)
	}

	// Let traffic flow so parks and requeues are genuinely in flight,
	// then shut down while the clients are still writing.
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Requeued >= conns },
		"requeue traffic never started")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with live requeue traffic: %v", err)
	}
	wg.Wait()

	// After shutdown, Requeue must refuse and leave ownership with the
	// caller.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if s.Requeue(c1) {
		t.Error("Requeue accepted a connection after shutdown")
	}
}

// TestParkShedRacesWakeAndShutdown drives Requeue, the global LIFO
// shed, client wakes and Shutdown against each other — the exact
// interleavings the admission path produces when descriptor pressure
// sheds parked connections while their next request bytes are arriving.
// Under -race this proves the event-loop locking; in any mode it proves
// the contract: every client observes either its echo or a clean close
// (never a hang), nothing stays parked after Shutdown, and Requeue
// refuses afterwards.
func TestParkShedRacesWakeAndShutdown(t *testing.T) {
	const conns = 24
	var srv *Server
	s, err := New(Config{
		Workers: 4,
		WorkerHandler: func(_ int, conn net.Conn) {
			buf := make([]byte, 1)
			if _, err := io.ReadFull(conn, buf); err != nil {
				conn.Close()
				return
			}
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

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			msg := []byte{'x'}
			for {
				if _, err := conn.Write(msg); err != nil {
					return // shed or shutdown closed us: clean exit
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					return
				}
			}
		}(conn)
	}

	// Race the global LIFO shed against the wake traffic.
	shedStop := make(chan struct{})
	var sheds atomic.Int64
	var shedWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		shedWG.Add(1)
		go func() {
			defer shedWG.Done()
			for {
				select {
				case <-shedStop:
					return
				default:
				}
				if s.shedNewestParked() {
					sheds.Add(1)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	waitFor(t, 5*time.Second, func() bool { return s.Stats().Requeued >= conns },
		"requeue traffic never started")
	time.Sleep(50 * time.Millisecond)
	close(shedStop)
	shedWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with shed/wake races in flight: %v", err)
	}
	wg.Wait()

	if sheds.Load() == 0 {
		t.Error("the shedding goroutines never reclaimed a parked connection")
	}
	if got := s.Parked(); got != 0 {
		t.Errorf("Parked() = %d after Shutdown, want 0", got)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if s.Requeue(c1) {
		t.Error("Requeue accepted a connection after shutdown")
	}
}
