//go:build linux

package serve

import (
	"context"
	"net"
	"strings"
	"syscall"
)

// reusePortAvailable reports platform support for SO_REUSEPORT
// sharding; the serve package falls back to one shared listener when
// false (or when binding with it fails at runtime).
const reusePortAvailable = true

// soReusePort is SO_REUSEPORT on Linux (not exported by the syscall
// package on all architectures).
const soReusePort = 0xf

// listenKeepAlive is Go's per-connection keep-alive default (on, 15 s
// idle, 15 s interval, 9 probes), set once per listener for accepted
// sockets to inherit instead of by four setsockopt calls per accept.
var listenKeepAlive = [...]struct{ level, opt, val int }{
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
}

// listenShards opens n listeners on the same address with
// SO_REUSEPORT, giving each worker its own kernel accept queue — the
// user-space analogue of the paper's per-core clone sockets (§3.2).
// The kernel hashes each incoming connection's four-tuple to pick the
// listener, standing in for the NIC's FDir flow steering (§4).
func listenShards(network, addr string, n int) ([]net.Listener, error) {
	lc := net.ListenConfig{
		KeepAlive: -1, // the listener's own options carry keep-alive
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
				for _, o := range listenKeepAlive {
					if serr == nil && strings.HasPrefix(network, "tcp") {
						serr = syscall.SetsockoptInt(int(fd), o.level, o.opt, o.val)
					}
				}
			})
			if err != nil {
				return err
			}
			return serr
		},
	}
	listeners := make([]net.Listener, 0, n)
	first, err := lc.Listen(context.Background(), network, addr)
	if err != nil {
		return nil, err
	}
	listeners = append(listeners, first)
	// Re-bind the resolved address so ":0" shards share one port.
	bound := first.Addr().String()
	for i := 1; i < n; i++ {
		l, err := lc.Listen(context.Background(), network, bound)
		if err != nil {
			for _, prev := range listeners {
				prev.Close()
			}
			return nil, err
		}
		listeners = append(listeners, l)
	}
	return listeners, nil
}
