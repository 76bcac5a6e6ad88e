//go:build !linux

package evloop

// poller is unavailable off Linux: every loop runs portably, parking
// each handle on its persistent parker goroutine. (kqueue would slot in
// here the same way epoll does on Linux.)
type poller struct{}

func newPoller() *poller                { return nil }
func (p *poller) add(int, uint64) error { return nil }
func (p *poller) del(int)               {}
func (p *poller) wakeup()               {}
func (p *poller) close()                {}

// probeReadable has no portable non-consuming implementation, and no
// caller off Linux: only a poller-backed Arm probes.
func (h *Handle) probeReadable() bool { return false }

// Poll has nothing to drain without a platform poller. See the Linux
// build for why it still exists.
func (l *Loop) Poll() int { return 0 }

// run is never reached off Linux (l.p is always nil), but keeps the
// Loop.Start call sites platform-independent.
func (l *Loop) run() { l.runPortable() }
