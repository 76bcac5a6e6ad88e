package proxyaff

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/testutil"
)

// waitFor is testutil.WaitFor: poll instead of sleep in
// timing-sensitive tests (ejection re-probe, idle-close reaping).
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	testutil.WaitFor(t, d, cond, msg)
}

// rawBackend runs a hand-rolled TCP "origin" whose per-connection
// behavior is the script — the tool for upstream misbehavior the
// httpaff layer would never emit. Deterministic and loopback-only.
func rawBackend(t *testing.T, script func(c net.Conn)) string {
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
			go func(c net.Conn) {
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				script(c)
			}(c)
		}
	}()
	return l.Addr().String()
}

// readHead consumes one request head from the conn.
func readHead(c net.Conn) error {
	buf := make([]byte, 8192)
	n := 0
	for {
		m, err := c.Read(buf[n:])
		if err != nil {
			return err
		}
		n += m
		if strings.Contains(string(buf[:n]), "\r\n\r\n") {
			return nil
		}
	}
}

// TestProxyBackendDownAtDial: a backend nobody listens on answers 502
// and is passively ejected after EjectAfter consecutive failures.
func TestProxyBackendDownAtDial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	p, err := New(Config{Backends: []string{dead}, Workers: 2, EjectAfter: 2, DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	for i := 0; i < 3; i++ {
		fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
		code, _, _ := readResponse(t, br)
		if code != 502 {
			t.Fatalf("request %d to dead backend: %d, want 502", i, code)
		}
	}
	st := p.Stats()
	if !st.Backends[0].Ejected {
		t.Errorf("backend not ejected after repeated dial failures: %+v", st.Backends[0])
	}
	if st.Backends[0].Ejections == 0 {
		t.Errorf("ejection not counted: %+v", st.Backends[0])
	}
}

// TestProxyFailoverToHealthyBackend: with one dead and one live
// backend, every request succeeds — the dial failure consumes the first
// attempt and the retry picks around it, then ejection steers
// subsequent requests away entirely.
func TestProxyFailoverToHealthyBackend(t *testing.T) {
	live := startBackend(t, "survivor")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	p, err := New(Config{
		Backends:    []string{dead, live.Addr().String()},
		Workers:     2,
		EjectAfter:  1,
		EjectFor:    time.Minute, // stays ejected for the whole test
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	for i := 0; i < 10; i++ {
		fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
		code, _, body := readResponse(t, br)
		if code != 200 || string(body) != "survivor" {
			t.Fatalf("request %d: %d %q", i, code, body)
		}
	}
	st := p.Stats()
	if !st.Backends[0].Ejected {
		t.Error("dead backend not ejected")
	}
	if st.Backends[1].Ejected {
		t.Error("healthy backend ejected")
	}
}

// TestProxyEjectionReprobeRecovery: a backend that dies is ejected;
// once it comes back and the ejection window expires, the next request
// re-probes it and clears the record — the full passive health cycle.
func TestProxyEjectionReprobeRecovery(t *testing.T) {
	// Learn a port, then free it so dials fail.
	seed := startBackend(t, "reborn")
	addr := seed.Addr().String()
	stopServer(t, seed)

	p, err := New(Config{
		Backends:    []string{addr},
		Workers:     2,
		EjectAfter:  1,
		EjectFor:    100 * time.Millisecond,
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
	if code, _, _ := readResponse(t, br); code != 502 {
		t.Fatalf("dead backend answered %d, want 502", code)
	}
	if !p.Stats().Backends[0].Ejected {
		t.Fatal("backend not ejected")
	}

	// Resurrect the backend on the same address.
	r := httpaff.NewRouter()
	r.Handle("/whoami", func(ctx *httpaff.RequestCtx) { ctx.WriteString("reborn") })
	revived, err := httpaff.New(httpaff.Config{Addr: addr, Workers: 2, Handler: r.Serve})
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	revived.Start()
	t.Cleanup(func() { stopServer(t, revived) })

	// Each probe is a live request; once the ejection window lapses the
	// next one re-probes the revived backend and succeeds.
	waitFor(t, 5*time.Second, func() bool {
		fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
		code, _, body := readResponse(t, br)
		return code == 200 && string(body) == "reborn"
	}, "backend never recovered after the ejection window")
	st := p.Stats()
	if st.Backends[0].Ejected || st.Backends[0].ConsecutiveFails != 0 {
		t.Errorf("re-probe success did not clear the health record: %+v", st.Backends[0])
	}
}

// TestProxyBackendClosesMidResponse: the backend dies halfway through a
// Content-Length body. The head is already committed downstream, so the
// client must see a truncated body and a closed connection — never a
// re-framed success — and the backend is charged a failure.
func TestProxyBackendClosesMidResponse(t *testing.T) {
	const promised, sent = 1000, 100
	addr := rawBackend(t, func(c net.Conn) {
		if readHead(c) != nil {
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", promised)
		c.Write([]byte(strings.Repeat("x", sent)))
		// close (deferred) mid-body
	})
	p, err := New(Config{Backends: []string{addr}, Workers: 2, ExchangeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
	statusLine, err := br.ReadString('\n')
	if err != nil || !strings.Contains(statusLine, "200") {
		t.Fatalf("status %q: %v", statusLine, err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) == "" {
			break
		}
	}
	body, err := io.ReadAll(br) // reads until the proxy closes
	if err != nil {
		t.Fatalf("reading truncated body: %v", err)
	}
	if len(body) >= promised {
		t.Fatalf("got %d body bytes from a backend that sent %d", len(body), sent)
	}
	if st := p.Stats(); st.Backends[0].ConsecutiveFails == 0 && st.Backends[0].Ejections == 0 {
		t.Error("mid-response close not charged to the backend")
	}
}

// TestProxyCloseDelimitedUpstream: an upstream response without
// Content-Length relays as a close-delimited response with an explicit
// Connection: close.
func TestProxyCloseDelimitedUpstream(t *testing.T) {
	addr := rawBackend(t, func(c net.Conn) {
		if readHead(c) != nil {
			return
		}
		fmt.Fprint(c, "HTTP/1.1 200 OK\r\nX-Legacy: 1\r\n\r\nold-school body")
	})
	p, err := New(Config{Backends: []string{addr}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != "old-school body" {
		t.Fatalf("%d %q", code, body)
	}
	if headers["connection"] != "close" {
		t.Fatalf("close-delimited relay must advertise close, got %q", headers["connection"])
	}
	if headers["x-legacy"] != "1" {
		t.Error("upstream header lost")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("front connection open after close-delimited response: %v", err)
	}
}

// TestProxyUpstreamConnectionTokenList: 'Connection: close, TE' from
// the upstream is a token list — the conn must not be pooled for reuse,
// and the nominated/hop-by-hop tokens' headers must not relay.
func TestProxyUpstreamConnectionTokenList(t *testing.T) {
	addr := rawBackend(t, func(c net.Conn) {
		if readHead(c) != nil {
			return
		}
		fmt.Fprint(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close, X-Conn-Scoped\r\nX-Conn-Scoped: v\r\nX-App: 1\r\n\r\nok")
		// deferred close
	})
	p, err := New(Config{Backends: []string{addr}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != "ok" {
		t.Fatalf("%d %q", code, body)
	}
	if _, leaked := headers["x-conn-scoped"]; leaked {
		t.Error("Connection-nominated upstream header relayed downstream")
	}
	if headers["x-app"] != "1" {
		t.Error("end-to-end upstream header lost")
	}
	// Second request on the same client conn: the 'close, ...' token
	// list must have kept the upstream conn out of the pool, so this
	// dials fresh rather than reusing a dying conn.
	fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
	if code, _, _ := readResponse(t, br); code != 200 {
		t.Fatalf("second request: %d", code)
	}
	if st := p.Stats(); st.Pool.Reuses != 0 {
		t.Errorf("a Connection: close upstream conn was pooled and reused: %+v", st.Pool)
	}
}

// TestProxyEveryConnectionFieldNominates: a head may carry more than
// one Connection field, and every one of them is part of the list
// (RFC 9110 §7.6.1). A field nominated only by a second Connection
// field must stop at the proxy in both directions.
func TestProxyEveryConnectionFieldNominates(t *testing.T) {
	heads := make(chan string, 1)
	addr := rawBackend(t, func(c net.Conn) {
		buf := make([]byte, 8192)
		n := 0
		for !strings.Contains(string(buf[:n]), "\r\n\r\n") {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
		}
		heads <- string(buf[:n])
		fmt.Fprint(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n"+
			"Connection: X-Secret\r\nX-Secret: upstream\r\nX-App: 1\r\n\r\nok")
	})
	p, err := New(Config{Backends: []string{addr}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\nConnection: keep-alive\r\n"+
		"Connection: X-Secret\r\nX-Secret: client\r\nX-Public: 1\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != "ok" {
		t.Fatalf("%d %q", code, body)
	}
	head := <-heads
	if strings.Contains(strings.ToLower(head), "x-secret") {
		t.Errorf("a field the second Connection field nominates went upstream:\n%s", head)
	}
	if !strings.Contains(head, "X-Public: 1") {
		t.Errorf("end-to-end request field lost:\n%s", head)
	}
	if _, leaked := headers["x-secret"]; leaked {
		t.Error("a field the upstream's second Connection field nominates was relayed downstream")
	}
	if headers["x-app"] != "1" {
		t.Error("end-to-end upstream field lost")
	}
}

// TestProxyChunkedUpstreamRejected: Transfer-Encoding from the upstream
// cannot be re-framed by the relay and answers 502.
func TestProxyChunkedUpstreamRejected(t *testing.T) {
	addr := rawBackend(t, func(c net.Conn) {
		if readHead(c) != nil {
			return
		}
		fmt.Fprint(c, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
	})
	p, err := New(Config{Backends: []string{addr}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
	code, _, _ := readResponse(t, br)
	if code != 502 {
		t.Fatalf("chunked upstream: %d, want 502", code)
	}
}

// TestProxyFieldNameWhitespaceRejected: whitespace between an upstream
// field name and its colon (RFC 9112 §5.1) answers 502 instead of
// framing the body by a Content-Length net/http would not see, and so
// does a folded line.
func TestProxyFieldNameWhitespaceRejected(t *testing.T) {
	for _, head := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nX-A: a\r\n Content-Length: 2\r\n\r\nok",
	} {
		addr := rawBackend(t, func(c net.Conn) {
			if readHead(c) != nil {
				return
			}
			fmt.Fprint(c, head)
		})
		p, err := New(Config{Backends: []string{addr}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		front := startFront(t, p)
		conn, br := dialFront(t, front)

		fmt.Fprint(conn, "GET /x HTTP/1.1\r\nHost: edge\r\n\r\n")
		if code, _, body := readResponse(t, br); code != 502 {
			t.Fatalf("upstream %q: %d %q, want 502", head, code, body)
		}
	}
}

// TestProxyRecoversFromBackendIdleClose: the backend times out and
// closes a pooled idle upstream connection; the next proxied request
// must still succeed — on Linux the checkout peek discards the dead
// conn, elsewhere the retry-once path redials.
func TestProxyRecoversFromBackendIdleClose(t *testing.T) {
	r := httpaff.NewRouter()
	r.Handle("/whoami", func(ctx *httpaff.RequestCtx) { ctx.WriteString("origin") })
	backend, err := httpaff.New(httpaff.Config{Workers: 2, Handler: r.Serve, IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	backend.Start()
	t.Cleanup(func() { stopServer(t, backend) })

	p, err := New(Config{Backends: []string{backend.Addr().String()}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, p)
	conn, br := dialFront(t, front)

	for round := 0; round < 3; round++ {
		requeued := backend.Stats().Requeued
		fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
		code, _, body := readResponse(t, br)
		if code != 200 || string(body) != "origin" {
			t.Fatalf("round %d: %d %q", round, code, body)
		}
		// Wait for the upstream conn to park on the backend and for the
		// backend's idle timeout to close it, so the next round provably
		// runs against a dead pooled connection. The park is read from
		// the requeue counter, which stays risen: the parked gauge is up
		// only for the idle timeout and a poll can miss it.
		waitFor(t, 5*time.Second, func() bool { return backend.Stats().Requeued > requeued },
			"upstream conn never parked on the backend")
		waitFor(t, 5*time.Second, func() bool { return backend.Stats().Parked == 0 },
			"backend never reaped its idle upstream conn")
	}
	if st := p.Stats(); st.Backends[0].Ejected {
		t.Error("idle-closed upstream conns must not eject a healthy backend")
	}
}
