package proxyaff

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// stubListener accepts on loopback and discards; gives the pool real
// TCP conns whose peek machinery works.
func stubListener(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	return l
}

func newTestPool(maxIdle, maxConns int) *upstreamPool {
	p := &upstreamPool{}
	p.init(time.Second, maxIdle, maxConns)
	return p
}

// TestPoolReuseLIFO: released connections come back newest-first, and
// the counters record reuse vs. dial.
func TestPoolReuseLIFO(t *testing.T) {
	l := stubListener(t)
	addr := l.Addr().String()
	p := newTestPool(4, 8)

	a, reused, err := p.get(addr)
	if err != nil || reused {
		t.Fatalf("first get: reused=%v err=%v", reused, err)
	}
	b, reused, err := p.get(addr)
	if err != nil || reused {
		t.Fatalf("second get: reused=%v err=%v", reused, err)
	}
	p.put(a, true)
	p.put(b, true) // newest
	got, reused, err := p.get(addr)
	if err != nil || !reused {
		t.Fatalf("third get: reused=%v err=%v", reused, err)
	}
	if got != b {
		t.Error("pool is not LIFO: expected the most recently released conn")
	}
	snap := p.counters.Snapshot()
	if snap.Misses != 2 || snap.Reuses != 1 {
		t.Errorf("counters = %+v, want 2 misses 1 reuse", snap)
	}
	p.put(got, true)
	p.closeAll()
	if p.idleCount(addr) != 0 {
		t.Error("closeAll left idle conns")
	}
}

// TestPoolIdleCap: releases beyond MaxIdle are dropped (and counted).
func TestPoolIdleCap(t *testing.T) {
	l := stubListener(t)
	addr := l.Addr().String()
	p := newTestPool(1, 8)

	a, _, _ := p.get(addr)
	b, _, _ := p.get(addr)
	p.put(a, true)
	p.put(b, true) // over the cap: dropped
	if n := p.idleCount(addr); n != 1 {
		t.Fatalf("idle = %d, want 1", n)
	}
	if snap := p.counters.Snapshot(); snap.Drops != 1 {
		t.Errorf("drops = %d, want 1", snap.Drops)
	}
	p.closeAll()
}

// TestPoolExhaustionUnderBurst: checkouts beyond MaxConns fail with
// errPoolExhausted and succeed again once a connection is returned —
// the burst-shedding behavior the proxy maps to 503.
func TestPoolExhaustionUnderBurst(t *testing.T) {
	l := stubListener(t)
	addr := l.Addr().String()
	p := newTestPool(2, 2)

	a, _, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.get(addr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.get(addr); !errors.Is(err, errPoolExhausted) {
		t.Fatalf("third concurrent checkout: %v, want errPoolExhausted", err)
	}
	// Returning one frees a slot; a non-reusable return frees it too.
	p.put(a, false)
	c, _, err := p.get(addr)
	if err != nil {
		t.Fatalf("checkout after release: %v", err)
	}
	p.put(c, true)
	p.closeAll()
}

// TestPoolFlushIdle: flushing a backend's idle list closes the conns
// and frees their open slots, so the next checkout dials fresh.
func TestPoolFlushIdle(t *testing.T) {
	l := stubListener(t)
	addr := l.Addr().String()
	p := newTestPool(4, 2)

	a, _, _ := p.get(addr)
	b, _, _ := p.get(addr)
	p.put(a, true)
	p.put(b, true)
	p.flushIdle(addr)
	if n := p.idleCount(addr); n != 0 {
		t.Fatalf("idle after flush = %d, want 0", n)
	}
	// Both MaxConns slots must be free again.
	if _, _, err := p.get(addr); err != nil {
		t.Fatalf("first checkout after flush: %v", err)
	}
	if _, _, err := p.get(addr); err != nil {
		t.Fatalf("second checkout after flush: %v", err)
	}
	p.flushIdle("absent:0") // no-op on unknown hosts
	p.closeAll()
}

// TestParseContentLength pins the response-side framing cap: unlike
// the request side's 1 GiB buffering cap, relayed (streamed) bodies may
// be arbitrarily large short of int64 sanity. The value goes through
// the relay's head walk.
func TestParseContentLength(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1234", 1234, true},
		{"2147483648", 1 << 31, true},    // 2 GiB: beyond the request-side cap
		{"1099511627776", 1 << 40, true}, // 1 TiB
		{"", 0, false},
		{"-1", 0, false},
		{"12a", 0, false},
		{"99999999999999999999999", 0, false}, // past the 2^60 sanity cap
		// 2^60 then one more digit: a check made only after each step
		// wraps this past int64 into a negative, accepted length.
		{"11529215046068469760", 0, false},
	} {
		var h responseHead
		done, fault := h.walk([]byte("HTTP/1.1 200 OK\r\nContent-Length: "+tc.in+"\r\n\r\n"), false)
		if done != tc.ok || (done && h.ContentLength != tc.want) {
			t.Errorf("Content-Length %q = %d, %q; want %d, %v", tc.in, h.ContentLength, fault, tc.want, tc.ok)
		}
	}
}

// TestPoolDialFailure: a dead backend fails the checkout without
// charging open-conn slots.
func TestPoolDialFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close() // nothing listens here now
	p := newTestPool(2, 1)

	if _, _, err := p.get(dead); err == nil {
		t.Fatal("dial to dead backend succeeded")
	}
	// The failed dial must not leak the single MaxConns slot.
	live := stubListener(t)
	if _, _, err := p.get(live.Addr().String()); err != nil {
		t.Fatalf("checkout after failed dial: %v", err)
	}
	if snap := p.counters.Snapshot(); snap.Misses != 1 {
		t.Errorf("misses = %d, want 1 (failed dials are not gets)", snap.Misses)
	}
}

// TestPoolLivenessPeek: a pooled connection the backend closed while
// idle is detected at checkout and replaced by a fresh dial.
func TestPoolLivenessPeek(t *testing.T) {
	if runtime.GOOS != "linux" {
		// Do not let the optimistic stub turn this into a test that
		// asserts nothing: skip loudly instead of passing silently.
		t.Skip("checkout liveness needs the Linux MSG_PEEK probe; peek_other.go is optimistic and " +
			"stale-conn recovery off Linux is covered by TestProxyRecoversFromBackendIdleClose's retry path")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	addr := l.Addr().String()
	p := newTestPool(2, 4)

	a, _, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.put(a, true)
	server := <-accepted
	server.Close() // backend hangs up on the idle conn
	// Wait for the FIN to be observable client-side.
	deadline := time.Now().Add(2 * time.Second)
	for a.alive() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	got, reused, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if reused || got == a {
		t.Error("checkout returned the dead pooled conn; the liveness peek missed the close")
	}
	if snap := p.counters.Snapshot(); snap.Misses != 2 {
		t.Errorf("misses = %d, want 2 (dead conn discarded, fresh dial)", snap.Misses)
	}
	p.put(got, true)
	p.closeAll()
}

// TestPoolPeekRejectsDirtyConn (Linux): a pooled connection with
// unsolicited buffered bytes must not be reused — those bytes would be
// parsed as the next response's head.
func TestPoolPeekRejectsDirtyConn(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("checkout liveness needs the Linux MSG_PEEK probe; peek_other.go is optimistic, " +
			"so a dirty conn would be handed out here and only caught by the relay's framing checks")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	addr := l.Addr().String()
	p := newTestPool(2, 4)

	a, _, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.put(a, true)
	server := <-accepted
	defer server.Close()
	if _, err := server.Write([]byte("HTTP/1.1 200 OK\r\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.alive() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got, reused, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if reused || got == a {
		t.Error("checkout reused a conn carrying unsolicited bytes")
	}
	p.put(got, true)
	p.closeAll()
}
