package proxyaff

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"affinityaccept/httpaff"
)

// startBackend runs an httpaff origin server named name. Its handler
// reports which backend served (/whoami), echoes bodies (/echo), shows
// the headers it received (/headers), serves n bytes (/bytes?n=...) and
// 404s elsewhere.
func startBackend(t *testing.T, name string) *httpaff.Server {
	t.Helper()
	r := httpaff.NewRouter()
	r.Handle("/whoami", func(ctx *httpaff.RequestCtx) {
		ctx.WriteString(name)
	})
	r.Handle("/echo", func(ctx *httpaff.RequestCtx) {
		ctx.Write(ctx.Body())
	})
	r.Handle("/headers", func(ctx *httpaff.RequestCtx) {
		for i := 0; i < ctx.HeaderCount(); i++ {
			k, _ := ctx.HeaderAt(i)
			ctx.Write(k)
			ctx.WriteString("\n")
		}
	})
	r.Handle("/slow", func(ctx *httpaff.RequestCtx) {
		time.Sleep(20 * time.Millisecond)
		ctx.WriteString("slow")
	})
	r.Handle("/big", func(ctx *httpaff.RequestCtx) {
		n, _ := strconv.Atoi(string(ctx.Query()))
		ctx.SetHeader("X-Origin", name)
		for written := 0; written < n; {
			chunk := min(n-written, 4096)
			for i := 0; i < chunk; i++ {
				ctx.Write([]byte{'a' + byte((written+i)%26)})
			}
			written += chunk
		}
	})
	s, err := httpaff.New(httpaff.Config{Workers: 2, Handler: r.Serve, ServerName: name})
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

// startEdge runs the proxy in front of the given backends and returns
// the front server plus the proxy. Zero-value cfg fields get defaults;
// cfg.Backends is overwritten.
func startEdge(t *testing.T, cfg Config, backends ...*httpaff.Server) (*httpaff.Server, *Proxy) {
	t.Helper()
	cfg.Backends = cfg.Backends[:0]
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.Addr().String())
	}
	const workers = 2
	cfg.Workers = workers
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front, err := httpaff.New(httpaff.Config{
		Workers:        workers,
		Handler:        p.Serve,
		WorkerUpstream: p.PoolSnapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	front.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
		p.Close()
	})
	return front, p
}

// startFront runs an httpaff server fronted by p, sized to p's worker
// count, with the upstream-pool stats hook wired.
func startFront(t *testing.T, p *Proxy) *httpaff.Server {
	t.Helper()
	front, err := httpaff.New(httpaff.Config{
		Workers:        p.cfg.Workers,
		Handler:        p.Serve,
		WorkerUpstream: p.PoolSnapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	front.Start()
	t.Cleanup(func() {
		stopServer(t, front)
		p.Close()
	})
	return front
}

func stopServer(t *testing.T, s *httpaff.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Logf("shutdown: %v", err)
	}
}

func dialFront(t *testing.T, s *httpaff.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// readResponse parses one response: code, headers (lowercased keys),
// body (Content-Length-framed, or read-to-EOF when absent).
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
	if cl, ok := headers["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil {
			t.Fatalf("bad Content-Length %q", cl)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("read body: %v", err)
		}
		return code, headers, body
	}
	body, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("read close-delimited body: %v", err)
	}
	return code, headers, body
}

// TestProxyBasic: a request relays through with status, body and
// app headers intact, and the backend's identity headers survive.
func TestProxyBasic(t *testing.T) {
	backend := startBackend(t, "origin-a")
	front, _ := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != "origin-a" {
		t.Fatalf("proxied GET: %d %q", code, body)
	}
	if headers["server"] != "origin-a" {
		t.Fatalf("backend Server header not relayed: %q", headers["server"])
	}
	if headers["connection"] == "close" {
		t.Fatal("keep-alive proxied response advertised close")
	}

	// 404s relay too.
	fmt.Fprint(conn, "GET /absent HTTP/1.1\r\nHost: edge\r\n\r\n")
	code, _, _ = readResponse(t, br)
	if code != 404 {
		t.Fatalf("backend 404 arrived as %d", code)
	}
}

// TestProxyPostBody: request bodies forward upstream with framing
// intact.
func TestProxyPostBody(t *testing.T) {
	backend := startBackend(t, "origin")
	front, _ := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	payload := strings.Repeat("payload!", 100)
	fmt.Fprintf(conn, "POST /echo HTTP/1.1\r\nHost: edge\r\nContent-Length: %d\r\n\r\n%s", len(payload), payload)
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != payload {
		t.Fatalf("POST through proxy: %d, body %d bytes want %d", code, len(body), len(payload))
	}
}

// TestProxyKeepAliveReuse is the tentpole's proof in unit form: across
// many sequential requests on one client connection, the worker checks
// its upstream connection out of its own pool — reuse, not redial.
func TestProxyKeepAliveReuse(t *testing.T) {
	backend := startBackend(t, "origin")
	front, p := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	const reqs = 40
	for i := 0; i < reqs; i++ {
		fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
		if code, _, _ := readResponse(t, br); code != 200 {
			t.Fatalf("request %d: %d", i, code)
		}
	}
	st := p.Stats()
	if st.Pool.Gets() < reqs {
		t.Fatalf("upstream gets = %d, want >= %d", st.Pool.Gets(), reqs)
	}
	if pct := st.Pool.ReusePct(); pct < 90 {
		t.Fatalf("upstream reuse = %.1f%% (misses %d of %d), want >= 90%%",
			pct, st.Pool.Misses, st.Pool.Gets())
	}
	// The same counters must surface through the transport snapshot.
	fst := front.Stats()
	if fst.Upstream != st.Pool {
		t.Fatalf("serve.Stats.Upstream %+v != proxy pool %+v", fst.Upstream, st.Pool)
	}
	var sum uint64
	for _, wkr := range fst.Workers {
		sum += wkr.Upstream.Gets()
	}
	if sum != fst.Upstream.Gets() {
		t.Fatalf("per-worker upstream gets sum %d != aggregate %d", sum, fst.Upstream.Gets())
	}
}

// TestProxyPolicies: one client connection stays on one worker, so
// worker-pinned policy must answer from a single backend while
// round-robin alternates.
func TestProxyPolicies(t *testing.T) {
	a := startBackend(t, "origin-a")
	b := startBackend(t, "origin-b")

	ask := func(front *httpaff.Server, n int) map[string]int {
		conn, br := dialFront(t, front)
		got := map[string]int{}
		for i := 0; i < n; i++ {
			fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
			code, _, body := readResponse(t, br)
			if code != 200 {
				t.Fatalf("request %d: %d", i, code)
			}
			got[string(body)]++
		}
		conn.Close()
		return got
	}

	pinnedFront, _ := startEdge(t, Config{Policy: WorkerPinned}, a, b)
	if got := ask(pinnedFront, 10); len(got) != 1 {
		t.Errorf("worker-pinned answers from %d backends on one connection, want 1: %v", len(got), got)
	}

	rrFront, _ := startEdge(t, Config{Policy: RoundRobin}, a, b)
	if got := ask(rrFront, 10); got["origin-a"] != 5 || got["origin-b"] != 5 {
		t.Errorf("round-robin split = %v, want 5/5", got)
	}
}

// TestProxyLargeBodyStreams relays a body big enough to cross the
// mid-stream flush threshold several times and verifies every byte.
func TestProxyLargeBodyStreams(t *testing.T) {
	backend := startBackend(t, "origin")
	front, _ := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	const size = 256 << 10 // 8x the flush threshold
	fmt.Fprintf(conn, "GET /big?%d HTTP/1.1\r\nHost: edge\r\n\r\n", size)
	code, headers, body := readResponse(t, br)
	if code != 200 || len(body) != size {
		t.Fatalf("big body: %d, %d bytes want %d", code, len(body), size)
	}
	if headers["x-origin"] != "origin" {
		t.Fatalf("app header lost on streamed response: %q", headers["x-origin"])
	}
	for i, c := range body {
		if c != 'a'+byte(i%26) {
			t.Fatalf("body corrupted at byte %d: %q", i, c)
		}
	}
	// A keep-alive request must still work on the same connection:
	// framing survived the streamed relay.
	fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
	if code, _, body := readResponse(t, br); code != 200 || string(body) != "origin" {
		t.Fatalf("request after streamed body: %d %q", code, body)
	}
}

// TestProxyHopByHopFiltering: connection-scoped request headers stop at
// the proxy; end-to-end ones pass.
func TestProxyHopByHopFiltering(t *testing.T) {
	backend := startBackend(t, "origin")
	front, _ := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /headers HTTP/1.1\r\nHost: edge\r\n"+
		"X-App: yes\r\nProxy-Connection: keep-alive\r\nUpgrade: h2c\r\nTrailer: Expires\r\n\r\n")
	code, _, body := readResponse(t, br)
	if code != 200 {
		t.Fatalf("headers probe: %d", code)
	}
	seen := string(body)
	if !strings.Contains(seen, "X-App") || !strings.Contains(seen, "Host") {
		t.Errorf("end-to-end headers dropped; backend saw:\n%s", seen)
	}
	for _, hop := range []string{"Proxy-Connection", "Upgrade", "Trailer"} {
		if strings.Contains(seen, hop) {
			t.Errorf("hop-by-hop header %s forwarded; backend saw:\n%s", hop, seen)
		}
	}

	// Headers nominated by the client's Connection header are
	// connection-scoped too (RFC 9110 §7.6.1) and must stop here.
	fmt.Fprint(conn, "GET /headers HTTP/1.1\r\nHost: edge\r\n"+
		"Connection: x-internal-token\r\nX-Internal-Token: secret\r\nX-Public: 1\r\n\r\n")
	code, _, body = readResponse(t, br)
	if code != 200 {
		t.Fatalf("nominated-header probe: %d", code)
	}
	seen = string(body)
	if strings.Contains(seen, "X-Internal-Token") {
		t.Errorf("Connection-nominated header forwarded; backend saw:\n%s", seen)
	}
	if !strings.Contains(seen, "X-Public") {
		t.Errorf("non-nominated header dropped; backend saw:\n%s", seen)
	}
}

// TestProxyClientClose: a client's Connection: close makes the proxied
// response advertise close and the front connection hang up, while the
// upstream connection stays pooled for the next client.
func TestProxyClientClose(t *testing.T) {
	backend := startBackend(t, "origin")
	front, p := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n")
	code, headers, body := readResponse(t, br)
	if code != 200 || string(body) != "origin" {
		t.Fatalf("%d %q", code, body)
	}
	if headers["connection"] != "close" {
		t.Fatalf("Connection header %q, want close", headers["connection"])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("front connection still open: %v", err)
	}
	// The upstream conns must not have been burned with the client
	// conn: across many short client connections each worker dials at
	// most once and reuses thereafter.
	const conns = 8
	for i := 0; i < conns; i++ {
		c, r := dialFront(t, front)
		fmt.Fprint(c, "GET /whoami HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n")
		if code, _, _ := readResponse(t, r); code != 200 {
			t.Fatalf("follow-up connection %d failed", i)
		}
		c.Close()
	}
	if st := p.Stats(); st.Pool.Misses > uint64(front.Workers()) {
		t.Errorf("upstream pool dialed %d times for %d workers — client closes burned pooled conns: %+v",
			st.Pool.Misses, front.Workers(), st.Pool)
	}
}

// TestProxyHead: HEAD relays the Content-Length without body bytes, and
// the upstream connection survives.
func TestProxyHead(t *testing.T) {
	backend := startBackend(t, "origin")
	front, _ := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	// Pipeline a GET right behind the HEAD: any leaked body bytes would
	// corrupt the second response.
	fmt.Fprint(conn, "HEAD /whoami HTTP/1.1\r\nHost: edge\r\n\r\nGET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
	statusLine, err := br.ReadString('\n')
	if err != nil || !strings.Contains(statusLine, "200") {
		t.Fatalf("HEAD status %q: %v", statusLine, err)
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
	if clen != strconv.Itoa(len("origin")) {
		t.Fatalf("HEAD Content-Length %q, want %d", clen, len("origin"))
	}
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != "origin" {
		t.Fatalf("GET after HEAD: %d %q — HEAD leaked body bytes", code, body)
	}
}

// TestProxyWorkerMismatch: a proxy sized for fewer workers than the
// serving server answers 500 rather than racing another worker's pool.
func TestProxyWorkerMismatch(t *testing.T) {
	backend := startBackend(t, "origin")
	p, err := New(Config{Backends: []string{backend.Addr().String()}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	front, err := httpaff.New(httpaff.Config{Workers: 2, Handler: p.Serve})
	if err != nil {
		t.Fatal(err)
	}
	front.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
		p.Close()
	}()

	saw := map[int]bool{}
	for i := 0; i < 20 && len(saw) < 2; i++ {
		conn, err := net.Dial("tcp", front.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n")
		code, _, _ := readResponse(t, bufio.NewReader(conn))
		saw[code] = true
		conn.Close()
	}
	if !saw[500] {
		t.Skip("every connection landed on worker 0; cannot observe the mismatch")
	}
	if saw[200] && !saw[500] {
		t.Fatal("worker 1 requests should answer 500")
	}
}

// TestConfigValidation pins the constructor's error cases.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty Backends accepted")
	}
	if _, err := New(Config{Backends: []string{""}}); err == nil {
		t.Error("empty backend address accepted")
	}
	if _, err := New(Config{Backends: []string{"h:1"}, Policy: Policy(9)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if p, err := New(Config{Backends: []string{"h:1"}, ExchangeTimeout: -1}); err != nil || p.cfg.ExchangeTimeout != 0 {
		t.Errorf("negative ExchangeTimeout should mean no deadline, got %v (err %v)", p.cfg.ExchangeTimeout, err)
	}
	p, err := New(Config{Backends: []string{"h:1"}})
	if err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if p.cfg.MaxConnsPerBackend <= 0 || p.cfg.EjectAfter <= 0 {
		t.Error("defaults not applied")
	}
}
