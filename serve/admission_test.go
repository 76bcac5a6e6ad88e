package serve

import (
	"context"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

// keepAliveServer starts a server whose handler speaks a one-byte
// protocol chosen by the first byte of each pass:
//
//	'P' (and any other byte): echo the byte and park via Requeue —
//	    the connection becomes idle parked population.
//	'L': echo then keep reading in a loop without requeueing — the
//	    connection stays *active*, occupying its worker.
func keepAliveServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	var srv *Server
	cfg.WorkerHandler = func(_ int, conn net.Conn) {
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err != nil {
			conn.Close()
			return
		}
		if buf[0] == 'L' {
			for {
				if _, err := conn.Write(buf); err != nil {
					conn.Close()
					return
				}
				if _, err := conn.Read(buf); err != nil {
					conn.Close()
					return
				}
			}
		}
		if _, err := conn.Write(buf); err != nil {
			conn.Close()
			return
		}
		if !srv.Requeue(conn) {
			conn.Close()
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// roundTrip writes one byte and expects it echoed back.
func roundTrip(t *testing.T, conn net.Conn, b byte) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{b}); err != nil {
		t.Fatalf("write %q: %v", b, err)
	}
	got := make([]byte, 1)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read echo of %q: %v", b, err)
	}
	if got[0] != b {
		t.Fatalf("echo mismatch: sent %q got %q", b, got[0])
	}
}

// expectClosed asserts the peer closed the connection (EOF/reset
// rather than data).
func expectClosed(t *testing.T, conn net.Conn, who string) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || n > 0 {
		t.Fatalf("%s: expected server-side close, read %d bytes err=%v", who, n, err)
	}
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestBudgetShedsNewestParkedLIFO: with a budget of K and K idle
// parked connections, the K+1th accept sheds exactly the most recently
// parked one — LIFO — and every older parked connection survives and
// still works.
func TestBudgetShedsNewestParkedLIFO(t *testing.T) {
	const K = 3
	s := keepAliveServer(t, Config{Workers: 2, MaxConns: K})
	addr := s.Addr().String()

	conns := make([]net.Conn, K)
	for i := range conns {
		conns[i] = dialT(t, addr)
		roundTrip(t, conns[i], 'P')
		want := int64(i + 1)
		waitFor(t, 5*time.Second, func() bool { return s.Parked() == want },
			"connection did not park")
	}

	// The K+1th connection must be admitted by evicting the newest
	// parked conn (index K-1), not by turning the newcomer away.
	late := dialT(t, addr)
	roundTrip(t, late, 'P')

	expectClosed(t, conns[K-1], "newest parked conn")
	for i := 0; i < K-1; i++ {
		roundTrip(t, conns[i], 'Q') // older parked conns unharmed
	}

	st := s.Stats()
	if st.ShedParked != 1 {
		t.Errorf("ShedParked = %d, want 1", st.ShedParked)
	}
	if st.BudgetRejected != 0 {
		t.Errorf("BudgetRejected = %d, want 0 (there was a parked conn to shed)", st.BudgetRejected)
	}
	if st.LivePeak > K {
		t.Errorf("LivePeak = %d exceeds the budget %d", st.LivePeak, K)
	}
	if st.MaxConns != K {
		t.Errorf("MaxConns = %d, want %d", st.MaxConns, K)
	}
}

// TestBudgetNeverShedsActive: when the budget is exhausted entirely by
// *active* connections, the newcomer is rejected; the active
// connection is never sacrificed.
func TestBudgetNeverShedsActive(t *testing.T) {
	s := keepAliveServer(t, Config{Workers: 2, MaxConns: 1})
	addr := s.Addr().String()

	active := dialT(t, addr)
	roundTrip(t, active, 'L') // loops in its handler: active, never parks

	reject := dialT(t, addr)
	expectClosed(t, reject, "over-budget conn with nothing parked")

	roundTrip(t, active, 'L') // the active conn kept its slot

	st := s.Stats()
	if st.BudgetRejected == 0 {
		t.Error("BudgetRejected = 0, want at least 1")
	}
	if st.ShedParked != 0 {
		t.Errorf("ShedParked = %d, want 0 — an active conn must never be shed", st.ShedParked)
	}
	active.Close()
}

// TestChargeConnCountsAgainstBudget: descriptors charged by upper
// layers (a proxy tunnel's upstream leg) squeeze the same budget and
// trigger the same LIFO shedding as accepted connections.
func TestChargeConnCountsAgainstBudget(t *testing.T) {
	s := keepAliveServer(t, Config{Workers: 2, MaxConns: 2})
	addr := s.Addr().String()

	c0 := dialT(t, addr)
	roundTrip(t, c0, 'P')
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 }, "conn 0 did not park")
	c1 := dialT(t, addr)
	roundTrip(t, c1, 'P')
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == 2 }, "conn 1 did not park")

	s.ChargeConn(1) // a tunnel leg appears: budget now oversubscribed
	expectClosed(t, c1, "newest parked conn after ChargeConn")
	waitFor(t, 5*time.Second, func() bool { return s.Parked() == 1 }, "shed conn still parked")
	roundTrip(t, c0, 'P') // the older conn survives
	s.ChargeConn(-1)

	st := s.Stats()
	if st.ShedParked != 1 {
		t.Errorf("ShedParked = %d, want 1", st.ShedParked)
	}
	if st.LivePeak > 2 {
		t.Errorf("LivePeak = %d exceeds the budget 2", st.LivePeak)
	}
}

// TestPerIPRateLimitAtAccept: a burst of connections from one IP is
// clipped to the bucket's burst; over-rate conns are closed before any
// handler runs. Single-listener mode so exactly one bucket applies.
func TestPerIPRateLimitAtAccept(t *testing.T) {
	sharedListener(t)
	var served int64
	var mu sync.Mutex
	s, err := New(Config{
		Workers:          2,
		PerIPAcceptRate:  1, // 1/s: no meaningful refill inside the test
		PerIPAcceptBurst: 2,
		WorkerHandler: func(_ int, conn net.Conn) {
			mu.Lock()
			served++
			mu.Unlock()
			buf := make([]byte, 1)
			if _, err := conn.Read(buf); err == nil {
				conn.Write(buf)
			}
			conn.Close()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	const dials = 10
	ok := 0
	for i := 0; i < dials; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write([]byte{'x'})
		if _, rerr := io.ReadFull(conn, make([]byte, 1)); rerr == nil {
			ok++
		}
		conn.Close()
	}
	// Burst 2 at rate 1/s: 2 admitted, maybe 3 if the loop straddles a
	// refill. The rest must be closed at accept.
	if ok < 2 || ok > 3 {
		t.Errorf("%d connections served, want 2 (burst) or 3 (one refill)", ok)
	}
	st := s.Stats()
	if want := uint64(dials - ok); st.Ratelimited != want {
		t.Errorf("Ratelimited = %d, want %d", st.Ratelimited, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if served != int64(ok) {
		t.Errorf("handler ran for %d conns but %d clients got responses", served, ok)
	}
}

// scriptedListener feeds acceptLoop a canned sequence of accept
// results, then blocks until closed.
type scriptedListener struct {
	steps  []func() (net.Conn, error)
	i      int
	closed chan struct{}
	once   sync.Once
}

func newScriptedListener(steps ...func() (net.Conn, error)) *scriptedListener {
	return &scriptedListener{steps: steps, closed: make(chan struct{})}
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	if l.i < len(l.steps) {
		step := l.steps[l.i]
		l.i++
		return step()
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *scriptedListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestAcceptLoopShedsOnFDExhaustion drives the accept loop through
// EMFILE directly: descriptor exhaustion must shed parked connections
// (freeing their descriptors) and keep the loop alive, and the budget
// counters must record the policy — PR 5's sleep-and-hope EMFILE
// survival turned into deliberate reclamation.
func TestAcceptLoopShedsOnFDExhaustion(t *testing.T) {
	s, err := New(Config{Workers: 2, WorkerHandler: onConn(echoHandler)})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: we run one acceptLoop by hand against a scripted
	// listener. Park three idle conns first (pipes: the "server" halves
	// park, we hold the client halves).
	clients := make([]net.Conn, 3)
	for i := range clients {
		client, server := net.Pipe()
		clients[i] = client
		if !s.Requeue(server) {
			t.Fatal("Requeue refused on a fresh server")
		}
		want := int64(i + 1)
		waitFor(t, 5*time.Second, func() bool { return s.Parked() == want }, "pipe did not park")
	}

	emfile := func() (net.Conn, error) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: &fdErr{}}
	}
	l := newScriptedListener(emfile, emfile)
	s.acceptWG.Add(1)
	done := make(chan struct{})
	go func() {
		s.acceptLoop(0, l)
		close(done)
	}()

	// First EMFILE sheds all three parked conns (batch of
	// fdPressureSheds); second finds nothing and backs off; the
	// scripted ErrClosed then retires the loop — it never died.
	for i, c := range clients {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 1)); err == nil || n > 0 {
			t.Fatalf("parked pipe %d not closed under fd pressure (n=%d err=%v)", i, n, err)
		}
	}
	l.Close()
	<-done

	st := s.Stats()
	if st.AcceptRetries != 2 {
		t.Errorf("AcceptRetries = %d, want 2", st.AcceptRetries)
	}
	if st.ShedParked != 3 {
		t.Errorf("ShedParked = %d, want 3", st.ShedParked)
	}
	if st.Parked != 0 {
		t.Errorf("Parked = %d, want 0 after shedding", st.Parked)
	}
	if st.BudgetRejected != 0 || st.Ratelimited != 0 {
		t.Errorf("fd-pressure shedding leaked into other counters: rejected %d ratelimited %d",
			st.BudgetRejected, st.Ratelimited)
	}
}

// fdErr unwraps to EMFILE like a real accept(2) failure does.
type fdErr struct{}

func (*fdErr) Error() string { return "accept: too many open files" }
func (*fdErr) Unwrap() error { return syscall.EMFILE }
