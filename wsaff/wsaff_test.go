package wsaff

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/testutil"
)

// startWS builds an httpaff server with a /ws upgrade route on a WS
// with the given config (OnMessage defaults to echo).
func startWS(t *testing.T, cfg Config, httpCfg httpaff.Config) (*httpaff.Server, *WS) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.OnMessage == nil {
		cfg.OnMessage = func(c *Conn, op Op, payload []byte) { c.Send(op, payload) }
	}
	ws, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws.Start()
	r := httpaff.NewRouter()
	r.Handle("/ws", func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	r.Handle("/plain", func(ctx *httpaff.RequestCtx) { ctx.WriteString("http still works") })
	httpCfg.Workers = cfg.Workers
	httpCfg.Handler = r.Serve
	srv, err := httpaff.New(httpCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		ws.Close()
	})
	return srv, ws
}

const testKey = "dGhlIHNhbXBsZSBub25jZQ=="

func upgradeRequest(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: ws.test\r\nUpgrade: websocket\r\n" +
		"Connection: Upgrade\r\nSec-WebSocket-Key: " + testKey + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
}

// wsClient is a minimal RFC 6455 client for driving the server.
type wsClient struct {
	conn net.Conn
	br   *bufio.Reader
	key  [4]byte
}

// dialWS connects (optionally from a specific conn) and upgrades.
func dialWS(t *testing.T, addr string) *wsClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return upgradeClient(t, conn)
}

func upgradeClient(t *testing.T, conn net.Conn) *wsClient {
	t.Helper()
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	c := &wsClient{conn: conn, br: bufio.NewReader(conn), key: [4]byte{0x12, 0x34, 0x56, 0x78}}
	if _, err := conn.Write([]byte(upgradeRequest("/ws"))); err != nil {
		t.Fatal(err)
	}
	status, headers := c.readResponseHead(t)
	if !strings.Contains(status, "101") {
		t.Fatalf("upgrade status %q", status)
	}
	want := string(appendAcceptKey(nil, []byte(testKey)))
	if headers["sec-websocket-accept"] != want {
		t.Fatalf("accept key %q, want %q", headers["sec-websocket-accept"], want)
	}
	return c
}

func (c *wsClient) readResponseHead(t *testing.T) (status string, headers map[string]string) {
	t.Helper()
	status, err := c.br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	headers = make(map[string]string)
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			return status, headers
		}
		k, v, _ := strings.Cut(line, ":")
		headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
}

func (c *wsClient) send(t *testing.T, fin bool, op Op, payload []byte) {
	t.Helper()
	frame := appendMaskedFrame(nil, fin, op, c.key, payload)
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads one server frame (servers never mask).
func (c *wsClient) readFrame(t *testing.T) (header, []byte) {
	t.Helper()
	buf := make([]byte, 2, maxHeaderBytes)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		t.Fatal(err)
	}
	for {
		h, n, err := decodeHeader(buf)
		if err != nil {
			t.Fatalf("server sent bad header % x: %v", buf, err)
		}
		if n > 0 {
			payload := make([]byte, h.length)
			if _, err := io.ReadFull(c.br, payload); err != nil {
				t.Fatal(err)
			}
			return h, payload
		}
		buf = append(buf, 0)
		if _, err := io.ReadFull(c.br, buf[len(buf)-1:]); err != nil {
			t.Fatal(err)
		}
	}
}

func (c *wsClient) expectMessage(t *testing.T, op Op, payload string) {
	t.Helper()
	h, got := c.readFrame(t)
	if h.op != op || !h.fin || string(got) != payload {
		t.Fatalf("got frame op=%d fin=%v %q, want op=%d %q", h.op, h.fin, got, op, payload)
	}
}

func (c *wsClient) expectClose(t *testing.T, code uint16) {
	t.Helper()
	h, payload := c.readFrame(t)
	if h.op != OpClose {
		t.Fatalf("got frame op=%d %q, want close", h.op, payload)
	}
	got := CloseNoStatus
	if len(payload) >= 2 {
		got = uint16(payload[0])<<8 | uint16(payload[1])
	}
	if got != code {
		t.Fatalf("close code %d, want %d", got, code)
	}
}

func TestUpgradeHandshake(t *testing.T) {
	srv, ws := startWS(t, Config{}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String()) // asserts 101 + accept key
	c.send(t, true, OpText, []byte("hello"))
	c.expectMessage(t, OpText, "hello")
	if st := ws.Stats(); st.Open != 1 {
		t.Errorf("open = %d, want 1", st.Open)
	}

	// A non-upgrade request on the same server still speaks HTTP.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprint(conn, "GET /plain HTTP/1.1\r\nHost: t\r\n\r\n")
	cl := &wsClient{conn: conn, br: bufio.NewReader(conn)}
	status, _ := cl.readResponseHead(t)
	if !strings.Contains(status, "200") {
		t.Fatalf("plain route status %q", status)
	}

	// The upgrade option may arrive in any of several Connection fields.
	split, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer split.Close()
	split.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprint(split, "GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: keep-alive\r\n"+
		"Connection: Upgrade\r\nSec-WebSocket-Key: "+testKey+"\r\nSec-WebSocket-Version: 13\r\n\r\n")
	cl = &wsClient{conn: split, br: bufio.NewReader(split)}
	if status, _ := cl.readResponseHead(t); !strings.Contains(status, "101") {
		t.Fatalf("upgrade in the second Connection field: status %q, want 101", status)
	}
}

func TestUpgradeRejections(t *testing.T) {
	srv, _ := startWS(t, Config{}, httpaff.Config{})
	cases := []struct {
		name, req string
		wantCode  string
	}{
		{"wrong version", "GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: " + testKey + "\r\nSec-WebSocket-Version: 8\r\n\r\n", "426"},
		{"missing key", "GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Version: 13\r\n\r\n", "400"},
		{"no upgrade header", "GET /ws HTTP/1.1\r\nHost: t\r\n\r\n", "400"},
		{"post", "POST /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: " + testKey + "\r\nSec-WebSocket-Version: 13\r\n\r\n", "400"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write([]byte(tc.req)); err != nil {
				t.Fatal(err)
			}
			cl := &wsClient{conn: conn, br: bufio.NewReader(conn)}
			status, headers := cl.readResponseHead(t)
			if !strings.Contains(status, tc.wantCode) {
				t.Fatalf("status %q, want %s", status, tc.wantCode)
			}
			if tc.wantCode == "426" && headers["sec-websocket-version"] != "13" {
				t.Errorf("426 must advertise Sec-WebSocket-Version: 13, got %q", headers["sec-websocket-version"])
			}
		})
	}
}

// TestEchoAcrossParks round-trips messages with idle gaps: every
// message after the first wakes a parked connection, so each round trip
// exercises park → flow-table route → pass.
func TestEchoAcrossParks(t *testing.T) {
	srv, ws := startWS(t, Config{}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	for i := 0; i < 5; i++ {
		msg := fmt.Sprintf("message %d", i)
		c.send(t, true, OpText, []byte(msg))
		c.expectMessage(t, OpText, msg)
	}
	waitUntil(t, 5*time.Second, func() bool { return srv.Stats().Requeued >= 5 }, "connection never parked between messages")
	if st := ws.Stats(); st.MessagesIn != 5 || st.FramesIn != 5 {
		t.Errorf("messages %d frames %d, want 5/5", st.MessagesIn, st.FramesIn)
	}
}

// TestResidualFramesAfterUpgrade pipelines frames in the same TCP
// segment as the upgrade request: they must replay to the takeover on
// the upgrade pass itself, without waiting for fresh input.
func TestResidualFramesAfterUpgrade(t *testing.T) {
	srv, _ := startWS(t, Config{}, httpaff.Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	key := [4]byte{9, 9, 9, 9}
	blob := []byte(upgradeRequest("/ws"))
	blob = appendMaskedFrame(blob, true, OpText, key, []byte("first"))
	blob = appendMaskedFrame(blob, true, OpText, key, []byte("second"))
	if _, err := conn.Write(blob); err != nil {
		t.Fatal(err)
	}
	c := &wsClient{conn: conn, br: bufio.NewReader(conn), key: key}
	status, _ := c.readResponseHead(t)
	if !strings.Contains(status, "101") {
		t.Fatalf("status %q", status)
	}
	c.expectMessage(t, OpText, "first")
	c.expectMessage(t, OpText, "second")
}

func TestFragmentedMessageWithInterleavedPing(t *testing.T) {
	srv, ws := startWS(t, Config{}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	c.send(t, false, OpText, []byte("frag"))
	c.send(t, true, OpPing, []byte("mid")) // control frames interleave legally
	c.send(t, false, OpContinuation, []byte("mented "))
	c.send(t, true, OpContinuation, []byte("message"))
	c.expectMessage(t, OpPong, "mid")
	c.expectMessage(t, OpText, "fragmented message")
	if st := ws.Stats(); st.MessagesIn != 1 {
		t.Errorf("messages = %d, want 1 (reassembled)", st.MessagesIn)
	}
}

func TestCloseHandshake(t *testing.T) {
	var closed atomic.Int64
	var code atomic.Int64
	srv, ws := startWS(t, Config{
		OnClose: func(c *Conn, cc uint16) { code.Store(int64(cc)); closed.Add(1) },
	}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	payload := []byte{byte(CloseNormal >> 8), byte(CloseNormal & 0xFF)}
	c.send(t, true, OpClose, payload)
	c.expectClose(t, CloseNormal)
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("transport open after close handshake: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool { return closed.Load() == 1 }, "OnClose never fired")
	if got := uint16(code.Load()); got != CloseNormal {
		t.Errorf("OnClose code %d, want %d", got, CloseNormal)
	}
	waitUntil(t, 5*time.Second, func() bool { return ws.Stats().Open == 0 }, "open gauge never returned to 0")
}

func TestProtocolErrorCloses(t *testing.T) {
	srv, _ := startWS(t, Config{}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	// Unmasked client frame: 1002.
	if _, err := c.conn.Write(appendFrame(nil, OpText, []byte("bare"))); err != nil {
		t.Fatal(err)
	}
	c.expectClose(t, CloseProtocolError)

	// Continuation with no message in flight: 1002.
	c2 := dialWS(t, srv.Addr().String())
	c2.send(t, true, OpContinuation, []byte("orphan"))
	c2.expectClose(t, CloseProtocolError)
}

func TestMessageTooBigCloses(t *testing.T) {
	srv, _ := startWS(t, Config{MaxMessageBytes: 64}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	c.send(t, true, OpBinary, bytes.Repeat([]byte("x"), 65))
	c.expectClose(t, CloseTooBig)

	// The cap also bounds fragmented reassembly.
	c2 := dialWS(t, srv.Addr().String())
	c2.send(t, false, OpBinary, bytes.Repeat([]byte("x"), 60))
	c2.send(t, true, OpContinuation, bytes.Repeat([]byte("x"), 60))
	c2.expectClose(t, CloseTooBig)
}

// TestServerPingKeepAlive: a silent client is pinged by the timer
// wheel; its pong rides the park→route→pass path and keeps it alive.
func TestServerPingKeepAlive(t *testing.T) {
	srv, ws := startWS(t, Config{PingInterval: 50 * time.Millisecond, IdleTimeout: 5 * time.Second}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	c.send(t, true, OpText, []byte("hi")) // open the conn's first pass
	c.expectMessage(t, OpText, "hi")
	h, _ := c.readFrame(t) // wheel ping arrives while we idle
	if h.op != OpPing {
		t.Fatalf("expected ping, got op %d", h.op)
	}
	c.send(t, true, OpPong, nil)
	waitUntil(t, 5*time.Second, func() bool { return ws.Stats().PongsReceived >= 1 }, "pong never processed")
	st := ws.Stats()
	if st.PingsSent == 0 {
		t.Error("no pings counted")
	}
	if st.Open != 1 {
		t.Errorf("responsive conn was reaped: open = %d", st.Open)
	}
	// The pong wake is a served pass: keep-alive traffic itself flows
	// through the affinity machinery.
	if srv.Stats().Requeued == 0 {
		t.Error("pong pass did not ride the requeue path")
	}
}

// TestIdleTimeoutReapsSilentPeer: with a short idle timeout and a peer
// that never pongs, the park deadline fires, the worker's event-loop
// sweep closes the socket, and OnParkClose reports OnClose(1006).
func TestIdleTimeoutReapsSilentPeer(t *testing.T) {
	var closed atomic.Int64
	srv, ws := startWS(t, Config{
		PingInterval: 30 * time.Millisecond,
		IdleTimeout:  90 * time.Millisecond,
		OnClose:      func(c *Conn, code uint16) { closed.Store(int64(code)) },
	}, httpaff.Config{})
	c := dialWS(t, srv.Addr().String())
	c.send(t, true, OpText, []byte("only message"))
	c.expectMessage(t, OpText, "only message")
	// Swallow pings, never pong, never send again.
	waitUntil(t, 10*time.Second, func() bool { return ws.Stats().Open == 0 }, "silent peer never reaped")
	waitUntil(t, 5*time.Second, func() bool { return closed.Load() == int64(CloseAbnormal) }, "OnClose(1006) never fired")
	_ = srv
}

func TestBroadcastFanOut(t *testing.T) {
	done := make(chan struct{})
	srv, ws := startWS(t, Config{
		OnOpen: func(c *Conn) { c.Subscribe() },
		OnMessage: func(c *Conn, op Op, payload []byte) {
			if string(payload) == "leave" {
				c.Unsubscribe()
				close(done)
				return
			}
			c.Send(op, payload)
		},
	}, httpaff.Config{})
	const n = 8
	clients := make([]*wsClient, n)
	for i := range clients {
		clients[i] = dialWS(t, srv.Addr().String())
		clients[i].send(t, true, OpText, []byte("join")) // force the first pass (OnOpen)
		clients[i].expectMessage(t, OpText, "join")
	}
	waitUntil(t, 5*time.Second, func() bool { return ws.Stats().Subscribers == n }, "subscriptions never registered")

	ws.Broadcast(OpText, []byte("to everyone"))
	for i, c := range clients {
		h, payload := c.readFrame(t)
		if h.op != OpText || string(payload) != "to everyone" {
			t.Fatalf("client %d got op=%d %q", i, h.op, payload)
		}
	}
	// The shard counts a delivery once its write returns, so a client can
	// read the frame before it is counted: let the count catch up.
	waitUntil(t, 5*time.Second, func() bool { return ws.Stats().Delivered >= n }, "broadcast deliveries never counted")
	st := ws.Stats()
	if st.Broadcasts != 1 || st.Delivered != n {
		t.Errorf("broadcasts %d delivered %d, want 1 and %d", st.Broadcasts, st.Delivered, n)
	}
	// Unsubscribe one; it must stop receiving. (Driven via a message so
	// the operation runs inline on the owning worker, as it would in a
	// real application.)
	clients[0].send(t, true, OpText, []byte("leave"))
	<-done
	ws.Broadcast(OpText, []byte("round two"))
	for _, c := range clients[1:] {
		h, payload := c.readFrame(t)
		if h.op != OpText || string(payload) != "round two" {
			t.Fatalf("got op=%d %q", h.op, payload)
		}
	}
	if st := ws.Stats(); st.Subscribers != n-1 {
		t.Errorf("subscribers = %d, want %d", st.Subscribers, n-1)
	}
}

// TestMigrationMovesShard drives a skewed long-lived WebSocket workload
// — every connection's flow group initially owned by worker 0 — and
// checks that §3.3.2 migration moves connections *and* their shard
// registrations to the stealing workers.
func TestMigrationMovesShard(t *testing.T) {
	const groups = 16
	var mu sync.Mutex
	workersSeen := make(map[int]bool)
	ws, err := New(Config{
		Workers: 4,
		OnOpen:  func(c *Conn) { c.Subscribe() },
		OnMessage: func(c *Conn, op Op, payload []byte) {
			time.Sleep(200 * time.Microsecond) // service time: make the skew hurt
			mu.Lock()
			workersSeen[c.Worker()] = true
			mu.Unlock()
			c.Send(op, payload)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws.Start()
	r := httpaff.NewRouter()
	r.Handle("/ws", func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	srv, err := httpaff.New(httpaff.Config{
		Workers:         4,
		Handler:         r.Serve,
		FlowGroups:      groups,
		MigrateInterval: 2 * time.Millisecond,
		Backlog:         4 * 64,
		HighPct:         20,
		LowPct:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		ws.Close()
	})

	// Groups initially owned by worker 0.
	var hot []int
	base := loadgen.PortBase(groups)
	for g := 0; g < srv.FlowGroups(); g++ {
		if srv.OwnerOf(uint16(base+g)) == 0 {
			hot = append(hot, g)
		}
	}
	if len(hot) == 0 {
		t.Fatal("worker 0 owns no groups")
	}

	const conns = 16
	var wg sync.WaitGroup
	stop := time.Now().Add(500 * time.Millisecond)
	for i := 0; i < conns; i++ {
		nc, err := loadgen.DialGroup(srv.Addr().String(), hot[i%len(hot)], groups)
		if err != nil {
			t.Fatal(err)
		}
		c := upgradeClient(t, nc)
		wg.Add(1)
		go func(c *wsClient) {
			defer wg.Done()
			for time.Now().Before(stop) {
				c.send(t, true, OpBinary, []byte("workload"))
				h, _ := c.readFrame(t)
				if h.op != OpBinary {
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Migrations == 0 {
		t.Error("no flow-group migrations under a skewed WebSocket workload")
	}
	mu.Lock()
	multi := len(workersSeen) > 1
	mu.Unlock()
	if !multi {
		t.Error("connections never moved off worker 0's shard")
	}
	t.Logf("locality %.1f%%, %d migrations, workers seen %v", st.LocalityPct(), st.Migrations, workersSeen)
}

// TestShutdownClosesHeldOpenSockets: server shutdown closes parked
// WebSocket transports and WS.Close turns them into OnClose callbacks.
func TestShutdownClosesHeldOpenSockets(t *testing.T) {
	var closes atomic.Int64
	ws, err := New(Config{
		Workers:   2,
		OnMessage: func(c *Conn, op Op, payload []byte) { c.Send(op, payload) },
		OnClose:   func(c *Conn, code uint16) { closes.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ws.Start()
	r := httpaff.NewRouter()
	r.Handle("/ws", func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	srv, err := httpaff.New(httpaff.Config{Workers: 2, Handler: r.Serve})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	const n = 4
	clients := make([]*wsClient, n)
	for i := range clients {
		clients[i] = dialWS(t, srv.Addr().String())
		clients[i].send(t, true, OpText, []byte("hold"))
		clients[i].expectMessage(t, OpText, "hold")
	}
	waitUntil(t, 5*time.Second, func() bool { return srv.Transport().Parked() == n }, "sockets never parked")
	if got := srv.Stats().Parked; got != n {
		t.Errorf("Stats.Parked = %d, want %d", got, n)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ws.Close()
	if got := closes.Load(); got != n {
		t.Errorf("OnClose fired %d times, want %d", got, n)
	}
	for _, c := range clients {
		c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.br.ReadByte(); err == nil {
			t.Error("held-open socket still readable after shutdown")
		}
	}
}

// waitUntil is testutil.WaitFor: poll instead of sleep in
// timing-sensitive tests.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	testutil.WaitFor(t, d, cond, msg)
}
