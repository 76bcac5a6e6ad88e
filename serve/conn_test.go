package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connTracker is a keep-alive echo handler (one byte per pass) that
// remembers the value every pass was handed, keyed by the client's port
// so a test can find the server side of a connection it dialed.
type connTracker struct {
	srv    *Server
	mu     sync.Mutex
	passes map[int64][]net.Conn
}

func (k *connTracker) handle(conn net.Conn) {
	port, _ := conn.(*Conn).Flow()
	k.mu.Lock()
	k.passes[port] = append(k.passes[port], conn)
	k.mu.Unlock()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err != nil {
		conn.Close()
		return
	}
	if _, err := conn.Write(buf); err != nil || !k.srv.Requeue(conn) {
		conn.Close()
	}
}

// seen returns the values handed to the passes of the connection cli
// is the client end of.
func (k *connTracker) seen(cli net.Conn) []net.Conn {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]net.Conn(nil), k.passes[int64(cli.LocalAddr().(*net.TCPAddr).Port)]...)
}

func trackedServer(t *testing.T, cfg Config) (*Server, *connTracker) {
	t.Helper()
	k := &connTracker{passes: make(map[int64][]net.Conn)}
	cfg.Handler = k.handle
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.srv = s
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, k
}

// TestSameConnEveryPass: the handler is handed one *Conn per
// connection — the same pointer on the first pass, before any park, as
// on every pass after one.
func TestSameConnEveryPass(t *testing.T) {
	s, k := trackedServer(t, Config{Workers: 2})
	cli := dialT(t, s.Addr().String())
	defer cli.Close()
	for _, b := range []byte("abc") {
		roundTrip(t, cli, b)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 }, "connection never re-parked")
	seen := k.seen(cli)
	if len(seen) != 3 {
		t.Fatalf("handler ran %d passes, want 3", len(seen))
	}
	for i, c := range seen {
		if c != seen[0] {
			t.Errorf("pass %d was handed %p, pass 1 %p", i+1, c, seen[0])
		}
	}
}

// TestCloseWhileParked: Close is legal from a goroutine that is not
// running a pass, on a connection that is parked. It unlinks the
// connection from its loop on the spot, so the loop delivers it to
// nobody afterwards and the server forgets it.
func TestCloseWhileParked(t *testing.T) {
	bothParkers(t, func(t *testing.T) {
		s, k := trackedServer(t, Config{Workers: 1})
		cli := dialT(t, s.Addr().String())
		defer cli.Close()
		roundTrip(t, cli, 'a')
		waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 }, "connection never parked")

		c := k.seen(cli)[0].(*Conn)
		var hook atomic.Int32
		c.OnParkClose = func() { hook.Add(1) } // safe: the connection is parked, nothing runs
		if err := c.Close(); err != nil {
			t.Fatalf("Close of a parked connection: %v", err)
		}
		if got := s.Parked(); got != 0 {
			t.Fatalf("Parked() = %d right after Close, want 0", got)
		}
		if s.Requeue(c) {
			t.Error("Requeue accepted a closed connection")
		}
		if err := c.Close(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("second Close = %v, want net.ErrClosed", err)
		}
		expectClosed(t, cli, "client of the closed connection")

		// The loop must have let go entirely: no wake, no reap, no pass.
		time.Sleep(50 * time.Millisecond)
		if ready, dead, _ := s.loops[0].Counters(); ready+dead != 0 {
			t.Errorf("loop delivered the closed connection: ready=%d dead=%d", ready, dead)
		}
		if n := len(k.seen(cli)); n != 1 {
			t.Errorf("handler ran %d passes, want 1", n)
		}
		if hook.Load() != 0 {
			t.Error("OnParkClose fired for a Close the application made")
		}
		if got := s.Parked(); got != 0 {
			t.Errorf("Parked() = %d after the dust settled, want 0", got)
		}
	})
}

// TestCloseRacesWake closes connections from outside while their next
// request bytes are waking them, under a connection budget: whichever
// of Close, the loop's delivery, the queue and the pass holds the
// connection at that instant, the teardown — and with it the budget
// release — happens exactly once.
func TestCloseRacesWake(t *testing.T) {
	const budget = 8
	s, k := trackedServer(t, Config{Workers: 2, MaxConns: budget})
	for round := 0; round < 4; round++ {
		clis := make([]net.Conn, budget)
		for i := range clis {
			clis[i] = dialT(t, s.Addr().String())
			roundTrip(t, clis[i], 'a')
		}
		waitFor(t, 5*time.Second, func() bool { return s.Parked() == budget }, "connections never all parked")
		var wg sync.WaitGroup
		for _, cli := range clis {
			c := k.seen(cli)[0]
			wg.Add(2)
			go func(cli net.Conn) {
				defer wg.Done()
				// The echo, or the close, whichever wins.
				cli.SetDeadline(time.Now().Add(5 * time.Second))
				cli.Write([]byte{'b'})
				io.Copy(io.Discard, cli)
			}(cli)
			go func() {
				defer wg.Done()
				c.Close()
			}()
		}
		wg.Wait()
		for _, cli := range clis {
			cli.Close()
		}
		waitFor(t, 5*time.Second, func() bool { return s.Live() == 0 && s.Parked() == 0 },
			"budget or park list never drained")
	}
	// A late double release would drag the count below zero.
	time.Sleep(20 * time.Millisecond)
	if live := s.Live(); live != 0 {
		t.Errorf("Live() = %d after every connection closed, want 0", live)
	}
	if peak := s.LivePeak(); peak > budget {
		t.Errorf("LivePeak() = %d, over the budget of %d", peak, budget)
	}
}
