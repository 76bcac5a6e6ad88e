package httpaff

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/testutil"
)

// echoPath writes the request path, or the body for requests that have
// one — enough surface for every lifecycle test to assert on.
func echoPath(ctx *RequestCtx) {
	if len(ctx.Body()) > 0 {
		ctx.Write(ctx.Body())
		return
	}
	ctx.Write(ctx.Path())
}

// start builds and starts a server, registering a cleanup shutdown.
func start(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Handler == nil {
		cfg.Handler = echoPath
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// readResponse parses one response off the wire: status code, headers
// (lowercased keys), body.
func readResponse(t *testing.T, br *bufio.Reader) (int, map[string]string, []byte) {
	t.Helper()
	statusLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read status line: %v", err)
	}
	parts := strings.SplitN(strings.TrimSpace(statusLine), " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		t.Fatalf("bad status line %q", statusLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		t.Fatalf("bad status code in %q", statusLine)
	}
	headers := make(map[string]string)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read header: %v", err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("bad header line %q", line)
		}
		headers[strings.ToLower(k)] = strings.TrimSpace(v)
	}
	n, err := strconv.Atoi(headers["content-length"])
	if err != nil {
		t.Fatalf("missing Content-Length: %v", headers)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return code, headers, body
}

func dial(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// TestKeepAliveSequential is the basic lifecycle: several requests on
// one connection, each round trip parking the connection in between, so
// every request after the first exercises the Requeue path.
func TestKeepAliveSequential(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/req%d", i)
		if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path); err != nil {
			t.Fatal(err)
		}
		code, headers, body := readResponse(t, br)
		if code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
		if string(body) != path {
			t.Fatalf("request %d: body %q, want %q", i, body, path)
		}
		if headers["connection"] == "close" {
			t.Fatalf("request %d: keep-alive connection advertised close", i)
		}
		if headers["server"] != "httpaff" {
			t.Fatalf("request %d: Server header %q", i, headers["server"])
		}
		if headers["date"] == "" {
			t.Fatalf("request %d: missing Date header", i)
		}
	}
	st := s.Stats()
	if st.Requeued < 4 {
		t.Errorf("requeued = %d, want >= 4 (each inter-request gap parks)", st.Requeued)
	}
	if st.Served < 5 {
		t.Errorf("served = %d, want >= 5 handler passes", st.Served)
	}
}

// TestPipelined sends a burst of requests in one write; the server must
// answer all of them, in order, without waiting for the client between
// them.
func TestPipelined(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	const n = 8
	var batch bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&batch, "GET /p%d HTTP/1.1\r\nHost: t\r\n\r\n", i)
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		code, _, body := readResponse(t, br)
		if code != 200 || string(body) != fmt.Sprintf("/p%d", i) {
			t.Fatalf("pipelined response %d: code %d body %q", i, code, body)
		}
	}
}

// TestInterop proves the wire format against the standard library's
// client, including transparent connection reuse.
func TestInterop(t *testing.T) {
	s := start(t, Config{Workers: 2})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	url := "http://" + s.Addr().String()
	for i := 0; i < 6; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/std%d", url, i))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || string(body) != fmt.Sprintf("/std%d", i) {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, body)
		}
	}
}

// TestPostBody round-trips a request body through Content-Length
// framing.
func TestPostBody(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	payload := strings.Repeat("abc", 100)
	fmt.Fprintf(conn, "POST /upload HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(payload), payload)
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != payload {
		t.Fatalf("POST echo: code %d, body len %d want %d", code, len(body), len(payload))
	}
}

// TestRouterDispatch covers exact-path routing, query stripping, and
// the 404 fallback.
func TestRouterDispatch(t *testing.T) {
	r := NewRouter()
	r.Handle("/a", func(ctx *RequestCtx) { ctx.WriteString("A") })
	r.Handle("/b", func(ctx *RequestCtx) {
		ctx.SetContentType("application/json")
		fmt.Fprintf(ctx, `{"q":%q}`, ctx.Query())
	})
	s := start(t, Config{Workers: 2, Handler: r.Serve})
	conn, br := dial(t, s)

	fmt.Fprint(conn, "GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != "A" {
		t.Fatalf("/a: %d %q", code, body)
	}

	fmt.Fprint(conn, "GET /b?x=1 HTTP/1.1\r\nHost: t\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != `{"q":"x=1"}` || headers["content-type"] != "application/json" {
		t.Fatalf("/b: %d %q %q", code, body, headers["content-type"])
	}

	fmt.Fprint(conn, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
	code, _, _ = readResponse(t, br)
	if code != 404 {
		t.Fatalf("unrouted path: %d, want 404", code)
	}
}

// TestRouterMethods covers method-aware registration: per-method
// dispatch, the Handle fallback for unregistered methods, and the 405 +
// Allow response when a path has only method handlers.
func TestRouterMethods(t *testing.T) {
	r := NewRouter()
	r.HandleMethod("GET", "/item", func(ctx *RequestCtx) { ctx.WriteString("got") })
	r.HandleMethod("POST", "/item", func(ctx *RequestCtx) { ctx.WriteString("posted") })
	r.HandleMethod("DELETE", "/strict", func(ctx *RequestCtx) { ctx.WriteString("gone") })
	r.HandleMethod("GET", "/mixed", func(ctx *RequestCtx) { ctx.WriteString("mixed-get") })
	r.Handle("/mixed", func(ctx *RequestCtx) { ctx.WriteString("mixed-any") })
	s := start(t, Config{Workers: 2, Handler: r.Serve})
	conn, br := dial(t, s)

	cases := []struct {
		method, path string
		wantCode     int
		wantBody     string
		wantAllow    string
	}{
		{"GET", "/item", 200, "got", ""},
		{"POST", "/item", 200, "posted", ""},
		{"PUT", "/item", 405, "", "GET, POST"},
		{"GET", "/strict", 405, "", "DELETE"},
		{"DELETE", "/strict", 200, "gone", ""},
		{"GET", "/mixed", 200, "mixed-get", ""},
		{"PATCH", "/mixed", 200, "mixed-any", ""}, // Handle catches the rest
		{"GET", "/absent", 404, "", ""},
	}
	for _, tc := range cases {
		fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: t\r\n\r\n", tc.method, tc.path)
		code, headers, body := readResponse(t, br)
		if code != tc.wantCode {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.wantCode)
		}
		if tc.wantBody != "" && string(body) != tc.wantBody {
			t.Fatalf("%s %s: body %q, want %q", tc.method, tc.path, body, tc.wantBody)
		}
		if headers["allow"] != tc.wantAllow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, headers["allow"], tc.wantAllow)
		}
	}
}

// TestRouterMethodHeadFallback: a GET registration serves HEAD with the
// body suppressed; an explicit HEAD handler still wins.
func TestRouterMethodHeadFallback(t *testing.T) {
	r := NewRouter()
	r.HandleMethod("GET", "/item", func(ctx *RequestCtx) { ctx.WriteString("got") })
	r.HandleMethod("GET", "/own", func(ctx *RequestCtx) { ctx.WriteString("get-handler") })
	r.HandleMethod("HEAD", "/own", func(ctx *RequestCtx) { ctx.SetHeader("X-Head", "1") })
	s := start(t, Config{Workers: 2, Handler: r.Serve})
	conn, br := dial(t, s)

	// HEAD falls back to GET: 200, Content-Length of the suppressed
	// body, no body bytes (the pipelined GET behind it proves that).
	fmt.Fprint(conn, "HEAD /item HTTP/1.1\r\nHost: t\r\n\r\nGET /item HTTP/1.1\r\nHost: t\r\n\r\n")
	statusLine, err := br.ReadString('\n')
	if err != nil || !strings.Contains(statusLine, "200") {
		t.Fatalf("HEAD via GET handler: %q %v", statusLine, err)
	}
	var clen string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(line), "content-length:"); ok {
			clen = strings.TrimSpace(v)
		}
	}
	if clen != "3" {
		t.Fatalf("HEAD Content-Length = %q, want 3 (len of \"got\")", clen)
	}
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != "got" {
		t.Fatalf("GET after HEAD: %d %q — HEAD leaked body bytes", code, body)
	}

	// Explicit HEAD registration wins over the GET fallback.
	fmt.Fprint(conn, "HEAD /own HTTP/1.1\r\nHost: t\r\n\r\n")
	code, headers, _ := readResponse(t, br)
	if code != 200 || headers["x-head"] != "1" {
		t.Fatalf("explicit HEAD handler: %d, X-Head %q", code, headers["x-head"])
	}
}

// TestRouterMethodZeroAlloc: method dispatch must not push routing off
// the zero-allocation path.
func TestRouterMethodZeroAlloc(t *testing.T) {
	r := NewRouter()
	r.HandleMethod("GET", "/z", func(ctx *RequestCtx) {})
	ctx := newTestCtx()
	if err := parseRaw(ctx, "GET /z HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	r.Serve(ctx) // warm
	if allocs := testing.AllocsPerRun(200, func() { r.Serve(ctx) }); allocs != 0 {
		t.Fatalf("method routing allocates %.1f objects per request, want 0", allocs)
	}
}

// TestHeadSuppressesBody: HEAD answers with the body's Content-Length
// but no body bytes.
func TestHeadSuppressesBody(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	fmt.Fprint(conn, "HEAD /h HTTP/1.1\r\nHost: t\r\n\r\nGET /h HTTP/1.1\r\nHost: t\r\n\r\n")
	// First response: headers only. The immediately pipelined GET lets
	// us verify no body bytes were interleaved.
	statusLine, err := br.ReadString('\n')
	if err != nil || !strings.Contains(statusLine, "200") {
		t.Fatalf("HEAD status: %q %v", statusLine, err)
	}
	var clen string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(line), "content-length:"); ok {
			clen = strings.TrimSpace(v)
		}
	}
	if clen != "2" {
		t.Fatalf("HEAD Content-Length = %q, want 2 (len of /h)", clen)
	}
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != "/h" {
		t.Fatalf("GET after HEAD: %d %q — HEAD leaked body bytes", code, body)
	}
}

// TestMaxRequestsPerConn: the limit's final response advertises close
// and the server hangs up.
func TestMaxRequestsPerConn(t *testing.T) {
	s := start(t, Config{Workers: 2, MaxRequestsPerConn: 3})
	conn, br := dial(t, s)
	for i := 0; i < 3; i++ {
		fmt.Fprint(conn, "GET /n HTTP/1.1\r\nHost: t\r\n\r\n")
		code, headers, _ := readResponse(t, br)
		if code != 200 {
			t.Fatalf("request %d: %d", i, code)
		}
		wantClose := i == 2
		if (headers["connection"] == "close") != wantClose {
			t.Fatalf("request %d: Connection close = %v, want %v", i, !wantClose, wantClose)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after max requests: %v", err)
	}
}

// TestConnectionCloseRequest: a client's Connection: close is honored.
func TestConnectionCloseRequest(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	fmt.Fprint(conn, "GET /c HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	code, headers, _ := readResponse(t, br)
	if code != 200 || headers["connection"] != "close" {
		t.Fatalf("%d, connection %q", code, headers["connection"])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open: %v", err)
	}
}

// TestHTTP10ClosesByDefault: an HTTP/1.0 request without keep-alive is
// answered and closed.
func TestHTTP10ClosesByDefault(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	fmt.Fprint(conn, "GET /old HTTP/1.0\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != "/old" || headers["connection"] != "close" {
		t.Fatalf("%d %q %q", code, body, headers["connection"])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("HTTP/1.0 connection still open: %v", err)
	}
}

// TestIdleTimeout: a parked keep-alive connection is closed once idle
// past the limit.
func TestIdleTimeout(t *testing.T) {
	s := start(t, Config{Workers: 2, IdleTimeout: 100 * time.Millisecond})
	conn, br := dial(t, s)
	fmt.Fprint(conn, "GET /i HTTP/1.1\r\nHost: t\r\n\r\n")
	if code, _, _ := readResponse(t, br); code != 200 {
		t.Fatal("first request failed")
	}
	start := time.Now()
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: read = %v, want EOF", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("idle close took %v", waited)
	}
}

// TestIdleTimeoutBoundsStalledRequest: with only IdleTimeout set, a
// client that sends a partial request and goes silent is disconnected
// rather than pinning its worker forever — the inline worker model
// makes an unbounded mid-request read a denial of service.
func TestIdleTimeoutBoundsStalledRequest(t *testing.T) {
	s := start(t, Config{Workers: 2, IdleTimeout: 100 * time.Millisecond})
	conn, br := dial(t, s)
	if _, err := fmt.Fprint(conn, "GET /stalled HTTP"); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("stalled request: read = %v, want EOF", err)
	}
	if waited := time.Since(begin); waited > 5*time.Second {
		t.Fatalf("stalled-request close took %v", waited)
	}
	// The worker is free again: a well-behaved request still serves.
	conn2, br2 := dial(t, s)
	fmt.Fprint(conn2, "GET /ok HTTP/1.1\r\nHost: t\r\n\r\n")
	if code, _, _ := readResponse(t, br2); code != 200 {
		t.Fatal("server wedged after a stalled client")
	}
}

// TestProtocolErrors maps malformed input to the right status, each on
// a fresh connection since all of them are close-delimited.
func TestProtocolErrors(t *testing.T) {
	s := start(t, Config{Workers: 2, MaxHeaderBytes: 256})
	cases := []struct {
		name string
		raw  string
		want int
	}{
		{"malformed request line", "GARBAGE\r\n\r\n", 400},
		{"bad version", "GET / HTTP/2.0\r\n\r\n", 505},
		{"chunked not implemented", "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
		{"bad content length", "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400},
		{"negative content length", "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
		{"overflowing content length", "POST / HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\n", 400},
		{"duplicate content length",
			"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nabcd", 400},
		{"headers too large", "GET / HTTP/1.1\r\nX-Big: " + strings.Repeat("x", 512) + "\r\n\r\n", 431},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, br := dial(t, s)
			if _, err := conn.Write([]byte(tc.raw)); err != nil {
				t.Fatal(err)
			}
			code, headers, _ := readResponse(t, br)
			if code != tc.want {
				t.Fatalf("status %d, want %d", code, tc.want)
			}
			if headers["connection"] != "close" {
				t.Fatalf("error response must close, got %q", headers["connection"])
			}
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("connection open after protocol error: %v", err)
			}
		})
	}
}

// TestGracefulDrain: Shutdown closes parked keep-alive connections (the
// client sees EOF, not a hang) and completes in bounded time.
func TestGracefulDrain(t *testing.T) {
	s := start(t, Config{Workers: 2})
	conn, br := dial(t, s)
	fmt.Fprint(conn, "GET /d HTTP/1.1\r\nHost: t\r\n\r\n")
	if code, _, _ := readResponse(t, br); code != 200 {
		t.Fatal("request failed")
	}
	// Wait for the park.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Requeued == 0; {
		if time.Now().After(deadline) {
			t.Fatal("connection never parked")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("parked connection after shutdown: %v", err)
	}
}

// TestWorkerLocalPoolReuse is the tentpole's proof obligation in unit
// form: after warmup, virtually every handler pass acquires its context
// from the serving worker's own free list.
func TestWorkerLocalPoolReuse(t *testing.T) {
	s := start(t, Config{Workers: 2})
	const conns, reqs = 4, 25
	for c := 0; c < conns; c++ {
		conn, br := dial(t, s)
		for i := 0; i < reqs; i++ {
			fmt.Fprint(conn, "GET /w HTTP/1.1\r\nHost: t\r\n\r\n")
			if code, _, _ := readResponse(t, br); code != 200 {
				t.Fatalf("conn %d req %d failed", c, i)
			}
		}
		conn.Close()
	}
	st := s.Stats()
	if st.Pool.Gets() < conns*reqs {
		t.Fatalf("pool gets = %d, want >= %d (one per handler pass)", st.Pool.Gets(), conns*reqs)
	}
	if pct := st.Pool.ReusePct(); pct < 90 {
		t.Fatalf("pool reuse = %.1f%%, want >= 90%% (misses: %d)", pct, st.Pool.Misses)
	}
	// The per-worker split must add up to the aggregate.
	var sum uint64
	for _, w := range st.Workers {
		sum += w.Pool.Gets()
	}
	if sum != st.Pool.Gets() {
		t.Fatalf("per-worker pool gets sum %d != aggregate %d", sum, st.Pool.Gets())
	}
}

// TestMigrationComposesWithKeepAlive runs the paper's §3.3.2 skewed
// workload through the HTTP layer: long-lived keep-alive connections
// all hashing into worker 0's flow groups, with per-request service
// time so one worker cannot keep up. Migration must engage (nonzero
// migrations), and — the httpaff-specific claim — pool reuse stays warm
// even though connections are switching workers, because each pass uses
// the serving worker's own arena.
func TestMigrationComposesWithKeepAlive(t *testing.T) {
	const (
		workers = 4
		groups  = 16
		conns   = 24
		window  = 400 * time.Millisecond
	)
	s := start(t, Config{
		Workers:         workers,
		FlowGroups:      groups,
		MigrateInterval: 2 * time.Millisecond,
		Backlog:         workers * 64,
		HighPct:         20,
		LowPct:          5,
		Handler: func(ctx *RequestCtx) {
			time.Sleep(200 * time.Microsecond)
			ctx.Write(ctx.Path())
		},
	})

	base := loadgen.PortBase(groups)
	var hot []int
	for g := 0; g < s.FlowGroups(); g++ {
		if s.OwnerOf(uint16(base+g)) == 0 {
			hot = append(hot, g)
		}
	}
	if len(hot) == 0 {
		t.Fatal("worker 0 owns no groups")
	}

	stop := time.Now().Add(window)
	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		conn, err := loadgen.DialGroup(s.Addr().String(), hot[i%len(hot)], groups)
		if err != nil {
			t.Fatal(err)
		}
		go func(conn net.Conn) {
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			br := bufio.NewReader(conn)
			for time.Now().Before(stop) {
				if _, err := fmt.Fprint(conn, "GET /m HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
					done <- err
					return
				}
				if _, err := br.ReadString('\n'); err != nil {
					done <- err
					return
				}
				// Drain the rest of the response.
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						done <- err
						return
					}
					if strings.TrimSpace(line) == "" {
						break
					}
				}
				if _, err := io.ReadFull(br, make([]byte, 2)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(conn)
	}
	for i := 0; i < conns; i++ {
		if err := <-done; err != nil {
			t.Fatalf("client: %v", err)
		}
	}

	st := s.Stats()
	if st.Migrations == 0 {
		t.Error("no flow-group migrations under the skewed keep-alive HTTP workload")
	}
	if st.Requeued == 0 {
		t.Error("no requeues — the keep-alive path never parked")
	}
	if pct := st.Pool.ReusePct(); pct < 90 {
		t.Errorf("pool reuse %.1f%% with migration on, want >= 90%%", pct)
	}
}

// TestTakeoverSeesOneConn: a hijacked connection is one value for life.
// What RequestCtx.NetConn returned to the upgrading handler is what the
// takeover is handed on its first pass (which replays the byte the
// client pipelined behind its upgrade request) and on every pass after
// a park.
func TestTakeoverSeesOneConn(t *testing.T) {
	var mu sync.Mutex
	var views []net.Conn
	note := func(nc net.Conn) {
		mu.Lock()
		views = append(views, nc)
		mu.Unlock()
	}
	s := start(t, Config{Workers: 2, Handler: func(ctx *RequestCtx) {
		ctx.BeginRawResponse()
		ctx.RawWriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: echo\r\nContent-Length: 0\r\n\r\n")
		note(ctx.NetConn())
		ctx.Hijack(func(_ int, nc net.Conn) bool {
			note(nc)
			var b [1]byte
			if _, err := io.ReadFull(nc, b[:]); err != nil {
				nc.Close()
				return false
			}
			if _, err := nc.Write(b[:]); err != nil {
				nc.Close()
				return false
			}
			return true
		})
	}})
	conn, br := dial(t, s)
	if _, err := io.WriteString(conn, "GET /up HTTP/1.1\r\nHost: t\r\nConnection: Upgrade\r\nUpgrade: echo\r\n\r\nr"); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := readResponse(t, br); code != 101 {
		t.Fatalf("upgrade answered %d, want 101", code)
	}
	for i, want := range []byte("rxy") {
		if i > 0 {
			testutil.WaitFor(t, 5*time.Second, func() bool { return s.Stats().Parked == 1 }, "takeover never parked")
			if _, err := conn.Write([]byte{want}); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := br.ReadByte(); err != nil || got != want {
			t.Fatalf("echo %d = %q, %v; want %q", i, got, err, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(views) != 4 {
		t.Fatalf("recorded %d views, want the handler's and three passes'", len(views))
	}
	for i, v := range views {
		if v != views[0] {
			t.Errorf("view %d is %p, the upgrading handler saw %p", i, v, views[0])
		}
	}
}

// TestStartedServerGoroutines pins what a started server runs: an
// acceptor per listener, a worker and an event loop per worker, and the
// migration loop. The Date header comes from each worker's own clock,
// so no ticker goroutine keeps a second copy of the time.
func TestStartedServerGoroutines(t *testing.T) {
	const workers = 3
	s, err := New(Config{Workers: workers, Handler: echoPath})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s.Start()
	got := runtime.NumGoroutine() - before
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	listeners := 1
	if s.Sharded() {
		listeners = workers
	}
	if want := listeners + 2*workers + 1; got != want {
		t.Errorf("Start launched %d goroutines, want %d (%d listeners + 2 x %d workers + 1 migration loop)",
			got, want, listeners, workers)
	}
}

// TestDateFromWorkerClock checks the Date header on every worker: it
// parses as http.TimeFormat and is within 2 s of the client's clock.
func TestDateFromWorkerClock(t *testing.T) {
	const workers = 4
	s := start(t, Config{Workers: workers, Handler: func(ctx *RequestCtx) { fmt.Fprint(ctx, ctx.Worker()) }})
	seen := map[string]bool{}
	for i := 0; i < 400 && len(seen) < workers; i++ {
		conn, br := dial(t, s)
		fmt.Fprint(conn, "GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
		_, headers, body := readResponse(t, br)
		conn.Close()
		date, err := time.Parse(http.TimeFormat, headers["date"])
		if err != nil {
			t.Fatalf("worker %s: Date %q: %v", body, headers["date"], err)
		}
		if d := time.Since(date); d < -2*time.Second || d > 2*time.Second {
			t.Fatalf("worker %s: Date %q is %v off the client clock", body, headers["date"], d)
		}
		seen[string(body)] = true
	}
	if len(seen) < workers {
		t.Fatalf("only workers %v served a request", seen)
	}
}
