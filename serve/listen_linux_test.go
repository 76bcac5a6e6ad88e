package serve

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestAcceptedConnKeepAlive pins the keep-alive an accepted connection
// carries: SO_KEEPALIVE on, TCP_KEEPIDLE 15, TCP_KEEPINTVL 15 and
// TCP_KEEPCNT 9, Go's per-connection defaults. The sharded listeners set
// them once and accepted sockets inherit them; the shared-listener
// fallback gets them from net's per-accept setsockopt calls. Both must
// read the same.
func TestAcceptedConnKeepAlive(t *testing.T) {
	want := [4]int{1, 15, 15, 9}
	for _, shared := range []bool{false, true} {
		got := make(chan [4]int, 1)
		forceSharedListener = shared
		s, err := New(Config{Workers: 2, WorkerHandler: func(_ int, conn net.Conn) {
			var opts [4]int
			rc, err := conn.(syscall.Conn).SyscallConn()
			if err == nil {
				rc.Control(func(fd uintptr) {
					for i, o := range listenKeepAlive {
						opts[i], _ = syscall.GetsockoptInt(int(fd), o.level, o.opt)
					}
				})
			}
			got <- opts
			conn.Close()
		}})
		forceSharedListener = false
		if err != nil {
			t.Fatal(err)
		}
		if !shared && !s.Sharded() {
			s.Shutdown(context.Background())
			t.Skip("SO_REUSEPORT unavailable: no sharded listeners")
		}
		s.Start()
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case opts := <-got:
			if opts != want {
				t.Errorf("shared=%v: keep-alive options %v, want %v (on, idle, interval, count)", shared, opts, want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("shared=%v: handler never ran", shared)
		}
		c.Close()
		s.Shutdown(context.Background())
	}
}
