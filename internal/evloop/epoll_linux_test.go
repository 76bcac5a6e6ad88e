//go:build linux

package evloop

import (
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
