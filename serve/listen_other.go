//go:build !linux

package serve

import (
	"errors"
	"net"
)

// reusePortAvailable reports platform support for SO_REUSEPORT
// sharding. On non-Linux platforms the server always uses the portable
// single-shared-listener fallback; the flow table still routes every
// connection.
const reusePortAvailable = false

// listenShards is never called when reusePortAvailable is false; it
// exists so the package compiles on every platform.
func listenShards(network, addr string, n int) ([]net.Listener, error) {
	return nil, errors.New("serve: SO_REUSEPORT sharding requires linux")
}
