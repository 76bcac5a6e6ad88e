package httpaff

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"affinityaccept/internal/evloop"
)

// A request that stops mid-way parks with its bytes instead of holding
// the worker that read it. Each test below queues a fresh connection
// behind a stalled one on the same worker, through OwnerOf, where no
// steal can rescue it: a single queued connection never makes a worker
// busy, so the idle worker may not take it.

// dialOwned dials s until the connection's flow group is owned by
// worker w, closing the misses.
func dialOwned(t *testing.T, s *Server, w int) (net.Conn, *bufio.Reader) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		conn, br := dial(t, s)
		if s.OwnerOf(uint16(conn.LocalAddr().(*net.TCPAddr).Port)) == w {
			return conn, br
		}
		conn.Close()
	}
	t.Fatalf("no connection of 1000 hashed to worker %d", w)
	return nil, nil
}

// stallOn parks a keep-alive connection on worker w part-way through a
// head: one whole request, then the request line of a second one and
// nothing more.
func stallOn(t *testing.T, s *Server, w int) net.Conn {
	t.Helper()
	conn, br := dialOwned(t, s, w)
	io.WriteString(conn, "GET /first HTTP/1.1\r\nHost: t\r\n\r\n")
	if code, _, _ := readResponse(t, br); code != 200 {
		t.Fatalf("staller's first request answered %d", code)
	}
	io.WriteString(conn, "GET /stall HTTP/1.1\r\n")
	return conn
}

// answerTime sends one request on a fresh connection routed to worker w
// and returns how long its answer took. A request that is never
// answered fails the test at the connection's deadline.
func answerTime(t *testing.T, s *Server, w int) time.Duration {
	t.Helper()
	conn, br := dialOwned(t, s, w)
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	begin := time.Now()
	io.WriteString(conn, "GET /fresh HTTP/1.1\r\nHost: t\r\n\r\n")
	if code, _, body := readResponse(t, br); code != 200 || string(body) != "/fresh" {
		t.Fatalf("fresh request answered %d %q", code, body)
	}
	return time.Since(begin)
}

// settle gives the server time to read what the stallers sent.
func settle() { time.Sleep(100 * time.Millisecond) }

// TestStallerHoldsNoWorker: at the default configuration (no deadline
// at all), a keep-alive client that stops mid-head leaves its worker
// free: a fresh connection queued on the same worker is answered at
// once, and the stalled request completes when its bytes arrive.
func TestStallerHoldsNoWorker(t *testing.T) {
	s := start(t, Config{Workers: 2})
	stall := stallOn(t, s, 0)
	settle()
	if d := answerTime(t, s, 0); d > 50*time.Millisecond {
		t.Errorf("fresh request behind the staller answered after %v, want within 50ms", d)
	}
	io.WriteString(stall, "Host: t\r\n\r\n")
	if code, _, body := readResponse(t, bufio.NewReader(stall)); code != 200 || string(body) != "/stall" {
		t.Fatalf("resumed request answered %d %q", code, body)
	}
}

// TestStallerOnEveryWorker: a staller on each worker stops nothing.
func TestStallerOnEveryWorker(t *testing.T) {
	s := start(t, Config{Workers: 2})
	for w := 0; w < s.Workers(); w++ {
		stallOn(t, s, w)
	}
	settle()
	for w := 0; w < s.Workers(); w++ {
		answerTime(t, s, w)
	}
}

// TestSilentFreshConnsHoldNoWorker: one fresh connection per worker
// that connects and sends nothing stops nothing either.
func TestSilentFreshConnsHoldNoWorker(t *testing.T) {
	s := start(t, Config{Workers: 2})
	for w := 0; w < s.Workers(); w++ {
		dialOwned(t, s, w)
	}
	settle()
	for w := 0; w < s.Workers(); w++ {
		answerTime(t, s, w)
	}
}

// TestStalledBodyHoldsNoWorker: a POST whose body stops half-way parks
// with the head and the half body; its worker serves the next
// connection, and the POST completes, byte for byte, when the rest of
// its body arrives.
func TestStalledBodyHoldsNoWorker(t *testing.T) {
	s := start(t, Config{Workers: 2})
	body := strings.Repeat("0123456789", 100)
	post, br := dialOwned(t, s, 0)
	fmt.Fprintf(post, "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:len(body)/2])
	settle()
	if d := answerTime(t, s, 0); d > 50*time.Millisecond {
		t.Errorf("fresh request behind the stalled body answered after %v, want within 50ms", d)
	}
	io.WriteString(post, body[len(body)/2:])
	if code, _, got := readResponse(t, br); code != 200 || string(got) != body {
		t.Fatalf("resumed POST answered %d with %d bytes, want 200 and its %d-byte body", code, len(got), len(body))
	}
}

// TestDripStallerClosedBySweep: with HeaderTimeout set, a client that
// drips one head byte per 100ms is closed by the park sweep — counted
// as a park-deadline expiry — no earlier than HeaderTimeout after its
// first head bytes and no later than the sweep allows. The deadline is
// armed from the worker's coarse clock plus one PollInterval, and the
// sweep runs every sweepInterval (500ms) on that clock, which an idle
// loop stamps every PollInterval: hence the bound HeaderTimeout + 500ms
// + two poll intervals, with 100ms for scheduling.
func TestDripStallerClosedBySweep(t *testing.T) {
	const headerTO = 300 * time.Millisecond
	s := start(t, Config{Workers: 2, HeaderTimeout: headerTO})
	conn, _ := dialOwned(t, s, 0)
	closed := make(chan time.Time, 1)
	go func() {
		conn.Read(make([]byte, 1)) // returns when the server closes
		closed <- time.Now()
	}()
	begin := time.Now()
	io.WriteString(conn, "GET /drip HTTP/1.1\r\nX-Drip: ")
	var at time.Time
	for tick := time.NewTicker(100 * time.Millisecond); at.IsZero(); {
		select {
		case <-tick.C:
			io.WriteString(conn, "y")
		case at = <-closed:
			tick.Stop()
		}
	}
	took := at.Sub(begin)
	limit := headerTO + 500*time.Millisecond + 2*evloop.PollInterval + 100*time.Millisecond
	if took < headerTO || took > limit {
		t.Errorf("dripping client closed after %v, want between %v and %v", took, headerTO, limit)
	}
	if n := expiredTotal(s); n != 1 {
		t.Errorf("affinity_evloop_expired_total = %d, want the one dripping request", n)
	}
}
