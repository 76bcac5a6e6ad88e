package wsaff

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/loadgen"
)

// holdSockets opens n upgraded WebSocket connections to addr's /ws, 64
// dials at a time, and round-trips one echo on each, so every one has
// had its first pass (OnOpen) before it goes idle. The clients run no
// goroutine of their own: a held socket is pure descriptor, and the
// process's goroutine count shows only what the server spends on it.
// Source addresses rotate through 127.0.0.0/8 every 20,000 connections,
// since one loopback address has only ~28k ephemeral ports against one
// listener; the first block dials unbound, so connect() may reuse ports
// an earlier run left in TIME_WAIT. The clients close at cleanup.
func holdSockets(t *testing.T, addr string, n int) {
	t.Helper()
	var mu sync.Mutex
	clients := make([]*Client, 0, n)
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	var firstErr atomic.Value
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64)
	for i := 0; i < n && firstErr.Load() == nil; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(src int) {
			defer wg.Done()
			defer func() { <-sem }()
			var d net.Dialer
			if src > 0 {
				d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, byte(src>>8), byte(1+src&0xff))}
			}
			nc, err := d.Dial("tcp", addr)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			nc.SetDeadline(time.Now().Add(time.Minute))
			c, err := NewClient(nc, "/ws")
			if err == nil {
				_, err = c.Echo(OpText, []byte("hold"))
			}
			if err != nil {
				nc.Close()
				firstErr.CompareAndSwap(nil, err)
				return
			}
			mu.Lock()
			clients = append(clients, c)
			mu.Unlock()
		}(i / 20000)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("held socket %d of %d: %v", len(clients)+1, n, err)
	}
}

// TestHeldSocketsWithSkewedEcho runs the WebSocket layer's whole shape
// at once: 2,000 idle subscribed sockets spread over the workers, echo
// clients whose flow groups all start on worker 0, §3.3.2 migration on,
// and broadcasts to every subscriber. The held sockets must all sit
// parked on the event loops, migration must bring the echo passes home
// to their owners, broadcasts must fan out, and the codec buffers must
// stay worker-local.
func TestHeldSocketsWithSkewedEcho(t *testing.T) {
	const (
		workers = 4
		groups  = 64
		held    = 2000
		echoes  = 24
		window  = time.Second
	)
	srv, ws := startWS(t, Config{
		Workers: workers,
		OnOpen:  func(c *Conn) { c.Subscribe() },
		OnMessage: func(c *Conn, op Op, payload []byte) {
			time.Sleep(200 * time.Microsecond) // service time: make the skew hurt
			c.Send(op, payload)
		},
	}, httpaff.Config{
		FlowGroups:      groups,
		MigrateInterval: 25 * time.Millisecond,
		Backlog:         workers * 64,
		HighPct:         20,
		LowPct:          5,
	})
	addr := srv.Addr().String()
	holdSockets(t, addr, held)
	built := srv.Stats()

	var hot []int
	base := loadgen.PortBase(groups)
	for g := 0; g < srv.FlowGroups(); g++ {
		if srv.OwnerOf(uint16(base+g)) == 0 {
			hot = append(hot, g)
		}
	}
	stop := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < echoes; i++ {
		nc, err := loadgen.DialGroup(addr, hot[i%len(hot)], groups)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(stop.Add(30 * time.Second))
		c, err := NewClient(nc, "/ws")
		if err != nil {
			nc.Close()
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			// Broadcasts are filled with 'b': Echo skips them.
			msg := bytes.Repeat([]byte{'e'}, 64)
			for time.Now().Before(stop) {
				if _, err := c.Echo(OpBinary, msg); err != nil {
					t.Errorf("echo client: %v", err)
					return
				}
			}
		}()
	}
	broadcast := bytes.Repeat([]byte{'b'}, 64)
	for time.Now().Before(stop) {
		ws.Broadcast(OpBinary, broadcast)
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()

	// The echo clients have hung up; what stays parked is the held
	// population, all of it.
	waitUntil(t, 5*time.Second, func() bool { return srv.Transport().Parked() == held },
		"the held sockets are not exactly the parked population")
	st, wst := srv.Stats(), ws.Stats()
	// Locality of the passes since the held population was built: the
	// skewed echo load is what migration has to bring home.
	locality := 100 * float64(st.ServedLocal-built.ServedLocal) / float64(st.Served-built.Served)
	t.Logf("echo-phase locality %.1f%%, %d migrations, %d broadcast deliveries, codec reuse %.1f%%",
		locality, st.Migrations, wst.Delivered, wst.Pool.ReusePct())
	if st.Migrations == 0 {
		t.Error("no flow-group migrations under the skewed echo load")
	}
	if locality < 90 {
		t.Errorf("echo-phase pass locality %.1f%%, want at least 90%% with migration", locality)
	}
	if wst.Delivered == 0 {
		t.Error("broadcasts never reached a subscriber")
	}
	if wst.Pool.ReusePct() <= 90 {
		t.Errorf("codec-buffer reuse %.1f%%, want over 90%%", wst.Pool.ReusePct())
	}
}
