//go:build unix

package wsaff

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"affinityaccept/httpaff"
)

// raiseFDLimit lifts the soft descriptor limit to the hard limit and
// returns the result (0 if it cannot be read).
func raiseFDLimit() uint64 {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0
	}
	if lim.Cur < lim.Max {
		lim.Cur = lim.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
		syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim)
	}
	return lim.Cur
}

// TestHeldSocketScale is the million-socket claim at 100,000: held,
// subscribed, parked WebSocket connections cost the server O(workers)
// goroutines, not O(connections), and holding them does not starve the
// worker loops, whose coarse clocks keep ticking. Both ends of every
// loopback connection live in this process, so it needs two
// descriptors per socket; it runs wherever the hard RLIMIT_NOFILE
// allows that (`prlimit --nofile=400000:400000` on Linux) and skips
// elsewhere.
func TestHeldSocketScale(t *testing.T) {
	const held = 100_000
	if need, limit := uint64(2*held+1024), raiseFDLimit(); limit < need {
		t.Skipf("RLIMIT_NOFILE %d cannot hold %d sockets at two descriptors each", limit, held)
	}
	srv, _ := startWS(t, Config{
		Workers: 4,
		OnOpen:  func(c *Conn) { c.Subscribe() },
	}, httpaff.Config{})
	holdSockets(t, srv.Addr().String(), held)

	waitUntil(t, 30*time.Second, func() bool { return srv.Transport().Parked() == held },
		"the held sockets never all parked")
	time.Sleep(100 * time.Millisecond) // long enough for a stalled clock to show
	g := runtime.NumGoroutine()
	t.Logf("%d sockets held in %d goroutines", held, g)
	if g >= held/100 {
		t.Errorf("%d goroutines for %d held sockets: parked connections cost goroutines", g, held)
	}
	for w := 0; w < srv.Workers(); w++ {
		if lag := srv.Transport().ClockLag(w); lag >= time.Second {
			t.Errorf("worker %d coarse clock %v stale: its loop is starved", w, lag)
		}
	}
}
