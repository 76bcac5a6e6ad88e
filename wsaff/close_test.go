package wsaff

import (
	"context"
	"errors"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"affinityaccept/httpaff"
)

// closeRig is a one-worker server whose sockets idle out after
// idleTimeout, with the things the close tests watch: the opened Conns,
// the OnClose calls, and the transport's park-close hook (which the rig
// replaces with a counter — only the server closing a parked socket may
// fire it).
type closeRig struct {
	srv       *httpaff.Server
	ws        *WS
	opened    chan *Conn
	closes    atomic.Int64
	closeCode atomic.Int64
	parkHooks atomic.Int64
}

const rigIdleTimeout = 400 * time.Millisecond

func newCloseRig(t *testing.T) *closeRig {
	t.Helper()
	r := &closeRig{opened: make(chan *Conn, 4)}
	ws, err := New(Config{
		Workers:      1,
		PingInterval: 5 * time.Minute, // the wheel stays out of it
		IdleTimeout:  rigIdleTimeout,
		OnOpen: func(c *Conn) {
			c.Subscribe()
			r.opened <- c
		},
		OnMessage: func(c *Conn, op Op, payload []byte) { c.Send(op, payload) },
		OnClose: func(c *Conn, code uint16) {
			r.closeCode.Store(int64(code))
			r.closes.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws.Start()
	srv, err := httpaff.New(httpaff.Config{Workers: 1, Handler: func(ctx *httpaff.RequestCtx) {
		if ws.Upgrade(ctx) {
			ctx.NotifyParkClose(func() { r.parkHooks.Add(1) })
		}
	}})
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
	r.srv, r.ws = srv, ws
	return r
}

// open upgrades one socket and waits until it is parked, after echoes
// round trips.
func (r *closeRig) open(t *testing.T, echoes int) (*wsClient, *Conn) {
	t.Helper()
	cli := dialWS(t, r.srv.Addr().String())
	c := <-r.opened
	for i := 0; i < echoes; i++ {
		cli.send(t, true, OpText, []byte("hi"))
		cli.expectMessage(t, OpText, "hi")
	}
	waitUntil(t, 5*time.Second, func() bool { return r.srv.Stats().Parked == 1 }, "socket never parked")
	return cli, c
}

func connFD(t *testing.T, c *Conn) int {
	t.Helper()
	rc, err := c.tc.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	fd := -1
	rc.Control(func(u uintptr) { fd = int(u) })
	return fd
}

// checkClosedAndSuccessorHears is the shared second half: socket A has
// just been closed from outside a pass while parked. The server must
// have forgotten it at once; and a successor on A's recycled descriptor
// number must keep hearing its peer after A's idle deadline has come
// and gone — a stale park entry reaped then would deregister the
// successor's descriptor and leave it deaf.
func (r *closeRig) checkClosedAndSuccessorHears(t *testing.T, cliA *wsClient, fdA int, wantCode uint16) {
	t.Helper()
	waitUntil(t, 5*time.Second, func() bool { return r.srv.Stats().Parked == 0 }, "closed socket still parked")
	waitUntil(t, 5*time.Second, func() bool { return r.closes.Load() == 1 }, "OnClose never fired")
	if code := uint16(r.closeCode.Load()); code != wantCode {
		t.Errorf("OnClose code %d, want %d", code, wantCode)
	}
	// Both ends of A go, so both its descriptor numbers are free and the
	// successor's accept takes the one the server side held.
	cliA.conn.Close()
	cliB, b := r.open(t, 1)
	if fd := connFD(t, b); fd != fdA {
		t.Logf("successor got descriptor %d, not the closed socket's %d", fd, fdA)
	}
	for end := time.Now().Add(rigIdleTimeout + 1200*time.Millisecond); time.Now().Before(end); {
		cliB.send(t, true, OpText, []byte("still here"))
		cliB.expectMessage(t, OpText, "still here")
		time.Sleep(rigIdleTimeout / 4)
	}
	if got := r.closes.Load(); got != 1 {
		t.Errorf("OnClose fired %d times, want 1", got)
	}
	if got := r.parkHooks.Load(); got != 0 {
		t.Errorf("park-close hook fired %d times for closes the server did not make", got)
	}
	if st := r.srv.Stats(); st.Parked != 1 {
		t.Errorf("Parked = %d with one live socket, want 1", st.Parked)
	}
}

// TestCloseParkedSocketFromOutside: Conn.Close is documented safe from
// any goroutine. From outside a pass, on a parked socket — in its very
// first park, and in a later one — it must take the socket off its
// event loop, not just close the descriptor under it.
func TestCloseParkedSocketFromOutside(t *testing.T) {
	for name, echoes := range map[string]int{"FirstPark": 0, "LaterPark": 1} {
		t.Run(name, func(t *testing.T) {
			r := newCloseRig(t)
			cliA, a := r.open(t, echoes)
			fdA := connFD(t, a)
			a.Close(CloseNormal, "done")
			if got := r.srv.Stats().Parked; got != 0 {
				t.Errorf("Parked = %d right after Close, want 0", got)
			}
			cliA.expectClose(t, CloseNormal)
			r.checkClosedAndSuccessorHears(t, cliA, fdA, CloseNormal)
		})
	}
}

// TestShardFinishOnParkedSocket: the same, when it is a shard loop that
// gives up on a parked socket after a broadcast write fails.
func TestShardFinishOnParkedSocket(t *testing.T) {
	r := newCloseRig(t)
	cliA, a := r.open(t, 1)
	fdA := connFD(t, a)
	a.writeMu.Lock()
	a.wErr = errors.New("injected write failure")
	a.writeMu.Unlock()
	r.ws.Broadcast(OpText, []byte("anyone?"))
	r.checkClosedAndSuccessorHears(t, cliA, fdA, CloseAbnormal)
}
