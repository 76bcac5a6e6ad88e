//go:build linux

package evloop

import (
	"net"
	"testing"
	"time"
)

// TestWaitErrorFailsClosed breaks the loop goroutine's netpoller wait
// (closing the polled descriptor under it) and checks the loop fails
// closed instead of hanging its parked connections: each is reported
// Dead exactly once and Arm refuses from then on.
func TestWaitErrorFailsClosed(t *testing.T) {
	k := &collector{}
	l := New(Config{Callbacks: k.callbacks()})
	if l.Portable() {
		t.Skip("no platform poller in this sandbox")
	}
	l.Start()
	defer l.Close()
	srv, cli := tcpPair(t)
	defer srv.Close()
	defer cli.Close()
	var h Handle
	h.Init(srv)
	defer h.Retire()
	if !l.Arm(&h, time.Time{}) {
		t.Fatal("Arm refused on an open loop")
	}
	l.p.netf.Close()
	waitFor(t, "Dead delivery", func() bool { _, d := k.counts(); return d == 1 })
	if l.Arm(&h, time.Time{}) {
		t.Fatal("Arm succeeded on a loop that failed closed")
	}
	if n := k.delivered(srv); n != 1 {
		t.Fatalf("connection delivered %d times, want 1", n)
	}
}

// TestStaleRetireSparesRecycledDescriptor: a handle whose transport was
// closed without Retire is stale — the kernel dropped its registration
// and freed the descriptor number. When another connection has since
// registered under that number, the stale handle's Retire must not
// EPOLL_CTL_DEL it: the new owner would stay parked, armed and deaf.
func TestStaleRetireSparesRecycledDescriptor(t *testing.T) {
	k := &collector{}
	l := New(Config{Callbacks: k.callbacks()})
	if l.Portable() {
		t.Skip("no platform poller in this sandbox")
	}
	l.Start()
	defer l.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	accept := func() net.Conn {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	cliA := dial()
	srvA := accept()
	var hA Handle
	hA.Init(srvA)
	if !l.Arm(&hA, time.Time{}) {
		t.Fatal("Arm A refused")
	}
	cliA.Write([]byte{1})
	waitFor(t, "A's wake", func() bool { return k.delivered(srvA) == 1 })

	// Two clients wait in the accept backlog, so that after A's two
	// descriptor numbers are freed the next two accepts take exactly
	// those numbers, lowest first, whichever end of A held the lower.
	clis := []net.Conn{dial(), dial()}
	fdA := hA.fd
	srvA.Close()
	cliA.Close()
	var srvB, cliB net.Conn
	for _, c := range clis {
		if s := accept(); rawFD(s) == fdA {
			srvB, cliB = s, c
			break
		}
	}
	if srvB == nil {
		t.Skip("descriptor number was not recycled onto an accepted connection")
	}

	var hB Handle
	hB.Init(srvB)
	defer hB.Retire()
	if !l.Arm(&hB, time.Time{}) {
		t.Fatal("Arm B refused")
	}
	hA.Retire()
	if _, err := cliB.Write([]byte{2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B's wake after stale A retired", func() bool { return k.delivered(srvB) == 1 })
}

// TestContinuousWakesKeepClockAndSweep: the loop re-arms its wait
// deadline only when it fires, so a loop that never waits it out —
// woken again and again through its self-pipe — must still see the
// deadline expire, keep its coarse clock within PollInterval of the
// wall clock, and run its deadline sweep.
func TestContinuousWakesKeepClockAndSweep(t *testing.T) {
	k := &collector{}
	l := New(Config{Callbacks: k.callbacks()})
	if l.Portable() {
		t.Skip("no platform poller in this sandbox")
	}
	l.Start()
	defer l.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.p.wakeup()
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() { close(stop); <-done }()

	srv, cli := tcpPair(t)
	defer srv.Close()
	defer cli.Close()
	var h Handle
	h.Init(srv)
	defer h.Retire()
	if !l.Arm(&h, time.Now().Add(50*time.Millisecond)) {
		t.Fatal("Arm refused")
	}
	for end := time.Now().Add(3 * sweepInterval); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		// The clock is stamped on every wake; the bound leaves the
		// scheduler the same slack CoarseClockAdvances does.
		if lag := time.Since(l.Now()); lag > 2*PollInterval {
			t.Fatalf("coarse clock lags %v under continuous wakes", lag)
		}
	}
	waitFor(t, "sweep expiry under continuous wakes", func() bool { _, d := k.counts(); return d == 1 })
}
