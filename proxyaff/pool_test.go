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

func newTestPool(backends ...string) *upstreamPool {
	p := &upstreamPool{}
	p.init(time.Second, backends)
	return p
}

// closed reports whether the pool closed uc's socket.
func closed(uc *upstreamConn) bool {
	_, err := uc.c.Write([]byte{0})
	return errors.Is(err, net.ErrClosed)
}

// TestPoolSingleSlot: each backend has one idle slot. A reusable put
// fills it and the next get reuses it; a non-reusable put, or a
// reusable one that finds the slot taken, closes the connection; and a
// slot whose backend hung up fails the peek, is closed and is redialed.
func TestPoolSingleSlot(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	t.Cleanup(func() {
		for len(accepted) > 0 {
			(<-accepted).Close()
		}
	})
	p := newTestPool(l.Addr().String())

	a, reused, err := p.get(0)
	if err != nil || reused {
		t.Fatalf("cold get: reused=%v err=%v", reused, err)
	}
	p.put(a, true)
	got, reused, err := p.get(0)
	if err != nil || !reused || got != a {
		t.Fatalf("get after a reusable put: reused=%v same=%v err=%v", reused, got == a, err)
	}
	if snap := p.counters.Snapshot(); snap.Misses != 1 || snap.Reuses != 1 {
		t.Errorf("counters = %+v, want 1 miss 1 reuse", snap)
	}

	p.put(a, false)
	if !closed(a) || p.idle[0] != nil {
		t.Fatal("a non-reusable put was kept")
	}

	// Two checkouts at once never happen in traffic; the second
	// reusable put finds the slot taken and closes its connection.
	b, _, _ := p.get(0)
	c, _, _ := p.get(0)
	p.put(b, true)
	p.put(c, true)
	if p.idle[0] != b || closed(b) || !closed(c) {
		t.Fatal("a full slot must keep its connection and close the second")
	}

	// The backend hangs up on the idle slot.
	(<-accepted).Close() // a's, already closed on this side
	server := <-accepted
	server.Close()
	if runtime.GOOS != "linux" {
		p.closeAll()
		t.Skip("the slot's liveness peek needs Linux's MSG_PEEK; peek_other.go is optimistic")
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.alive() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got, reused, err = p.get(0)
	if err != nil || reused || got == b {
		t.Fatalf("get on a dead slot: reused=%v same=%v err=%v", reused, got == b, err)
	}
	if !closed(b) {
		t.Error("the dead slot connection was not closed")
	}
	if snap := p.counters.Snapshot(); snap.Misses != 4 {
		t.Errorf("misses = %d, want 4 (a, b, c and the redial)", snap.Misses)
	}
	p.put(got, true)
	p.closeAll()
	if !closed(got) || p.idle[0] != nil {
		t.Error("closeAll left the slot open")
	}
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

// TestPoolDialFailure: a dead backend fails the checkout and leaves
// its slot empty; the other backend's checkouts are unaffected.
func TestPoolDialFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close() // nothing listens here now
	live := stubListener(t)
	p := newTestPool(dead, live.Addr().String())

	if _, _, err := p.get(0); err == nil {
		t.Fatal("dial to dead backend succeeded")
	}
	if p.idle[0] != nil {
		t.Error("a failed dial filled its slot")
	}
	if _, _, err := p.get(1); err != nil {
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
	p := newTestPool(l.Addr().String())

	a, _, err := p.get(0)
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

	got, reused, err := p.get(0)
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
	p := newTestPool(l.Addr().String())

	a, _, err := p.get(0)
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
	got, reused, err := p.get(0)
	if err != nil {
		t.Fatal(err)
	}
	if reused || got == a {
		t.Error("checkout reused a conn carrying unsolicited bytes")
	}
	p.put(got, true)
	p.closeAll()
}
