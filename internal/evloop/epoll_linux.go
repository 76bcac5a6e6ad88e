//go:build linux

package evloop

import (
	"errors"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// poller is one epoll(7) instance plus a self-pipe for shutdown wakeup
// (closing an epoll descriptor does not unblock epoll_wait). Interest
// is edge-triggered EPOLLIN|EPOLLRDHUP|EPOLLET, registered once per
// connection on its first park and kept until Retire: re-parking a
// keep-alive connection costs no epoll_ctl (only Arm's one MSG_PEEK
// recvfrom), and an event for an unarmed (being-served) handle is
// simply dropped. The classic ET
// lost-wakeup hazard — input arriving while unarmed fires an edge into
// a dropped event, and no new edge comes until new bytes do — is
// closed by Arm: a re-armed registration is probed with one MSG_PEEK,
// and a fresh EPOLL_CTL_ADD gets the kernel's initial event.
//
// The loop goroutine does not block in epoll_wait. It waits on netf, a
// dup of the epoll descriptor registered with the Go runtime's
// netpoller (an epoll instance is itself pollable: it reads as readable
// while events are pending). The loop goroutine then parks like any
// other netpoller waiter, so an idle scheduler thread discovers the
// readable epfd inline in findrunnable and runs the delivery on the
// spot — no OS thread sits blocked in epoll_wait needing a kernel wake
// and an M/P handoff per batch (on GOMAXPROCS=1 that handoff halved
// throughput, CHANGES.md PR 7).
type poller struct {
	epfd  int
	wakeR int
	wakeW int

	netf *os.File        // netpolled dup of epfd; closing it closes the dup
	netc syscall.RawConn // netf's wait handle

	// evbuf is Poll's reusable event buffer. Poll has a single caller
	// by contract, so no lock guards it; run() keeps its own buffer.
	evbuf []syscall.EpollEvent
}

// newPoller returns nil when epoll is unavailable (restricted sandbox)
// or the runtime cannot netpoll an epoll descriptor; the loop then runs
// portably — the one fallback there is.
func newPoller() *poller {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil
	}
	p := &poller{epfd: epfd, wakeR: pipe[0], wakeW: pipe[1],
		evbuf: make([]syscall.EpollEvent, 64)}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		p.close()
		return nil
	}
	if !p.netpoll() {
		p.close()
		return nil
	}
	return p
}

// netpoll registers a dup of the epoll descriptor with the runtime
// netpoller, reporting whether the runtime took it. A nonblocking
// descriptor tells os.NewFile to try the poller rather than treating
// the file as blocking; SetReadDeadline succeeds only on a file the
// poller accepted.
func (p *poller) netpoll() bool {
	dupfd, err := syscall.Dup(p.epfd)
	if err != nil {
		return false
	}
	if err := syscall.SetNonblock(dupfd, true); err != nil {
		syscall.Close(dupfd)
		return false
	}
	p.netf = os.NewFile(uintptr(dupfd), "evloop-epfd")
	if p.netf.SetReadDeadline(time.Now().Add(PollInterval)) != nil {
		return false
	}
	p.netc, err = p.netf.SyscallConn()
	return err == nil
}

// epollET is EPOLLET as the positive uint32 bit; the syscall package
// spells it as a negative int constant, which won't assign to Events.
const epollET = 1 << 31

// add registers a descriptor, edge-triggered, for the connection's
// lifetime. The event stashes the registration's low-order park-
// sequence bits so a stale event for a recycled descriptor number is
// detectable at delivery. If the descriptor is already readable, the
// kernel queues an initial event at ADD time — a fresh registration
// therefore needs no race-closing probe.
func (p *poller) add(fd int, seq uint64) error {
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epollET,
		Fd:     int32(fd),
		Pad:    int32(uint32(seq)),
	}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

// del drops a descriptor from the interest set. Best-effort: a closed
// descriptor has already removed itself.
func (p *poller) del(fd int) {
	var ev syscall.EpollEvent
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, &ev)
}

// wakeup unblocks epoll_wait via the self-pipe.
func (p *poller) wakeup() {
	var b [1]byte
	syscall.Write(p.wakeW, b[:])
}

func (p *poller) close() {
	if p.netf != nil {
		p.netf.Close()
	}
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// Poll drains readiness events that are already pending, without
// blocking (an epoll_wait with a zero timeout), and reports how many it
// delivered. Nothing in the server calls it: the benchmark measured the
// worker-inline poll it was written for at 1.2–2.7 % of wakes, empty on
// ≥97 % of calls (CHANGES.md, PR 16), and serve dropped the call. It
// stays exported and tested only because bench/stages.go times it
// (evloop.poll_empty_ns) and bench/ was frozen for that PR; the next
// benchmark PR removes the stage and this function together.
//
// Contract: one caller at a time. Racing the loop goroutine is safe —
// the armed/tag check in deliver drops an event the other side handled
// — but the event buffer is deliberately unsynchronized.
func (l *Loop) Poll() int {
	p := l.p
	if p == nil || l.closedFlag.Load() {
		return 0
	}
	n, err := syscall.EpollWait(p.epfd, p.evbuf, 0)
	if err != nil || n <= 0 {
		return 0
	}
	delivered := 0
	for i := 0; i < n; i++ {
		ev := &p.evbuf[i]
		if int(ev.Fd) == p.wakeR {
			continue // shutdown signal: left unread for the loop goroutine
		}
		if l.deliver(ev.Fd, ev.Pad) {
			delivered++
		}
	}
	return delivered
}

// probeReadable reports whether the descriptor has input deliverable
// right now — data, EOF, or a pending transport error — without
// consuming anything: one non-blocking MSG_PEEK into the handle's wake
// buffer (resident in the handle, so the probe allocates nothing; the
// same idiom as proxyaff's checkout liveness peek). Only EAGAIN (open
// and quiet — the park case) and EINTR report false.
func (h *Handle) probeReadable() bool {
	n, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, uintptr(h.fd),
		uintptr(unsafe.Pointer(&h.buf[0])), 1,
		syscall.MSG_PEEK|syscall.MSG_DONTWAIT, 0, 0)
	_ = n
	return errno != syscall.EAGAIN && errno != syscall.EINTR
}

// run is the epoll loop goroutine. EPOLLERR/EPOLLHUP/EPOLLRDHUP are
// delivered as readability like EPOLLIN — the woken handler's next read
// observes the EOF or error and closes the connection on its normal
// path. The wait deadline doubles as the coarse-clock tick.
func (l *Loop) run() {
	defer close(l.done)
	p := l.p
	events := make([]syscall.EpollEvent, 128)
	// One closure for the life of the loop — allocating it (and the
	// harvest count it captures) per iteration would cost two heap
	// objects per delivery batch, which the zero-alloc gates notice.
	var n int
	harvest := func(uintptr) bool {
		// Harvest without blocking; an empty harvest parks in the
		// netpoller until the epfd reports readable again.
		n, _ = syscall.EpollWait(p.epfd, events, 0)
		return n > 0 || l.closedFlag.Load()
	}
	lastSweep := time.Now().UnixNano()
	for {
		n = 0
		p.netf.SetReadDeadline(time.Now().Add(PollInterval))
		rerr := p.netc.Read(harvest)
		now := time.Now().UnixNano()
		l.clock.Store(now)
		for i := 0; i < n; i++ {
			ev := &events[i]
			if int(ev.Fd) == p.wakeR {
				var buf [16]byte
				syscall.Read(p.wakeR, buf[:])
				continue
			}
			l.deliver(ev.Fd, ev.Pad)
		}
		if l.closedFlag.Load() {
			return
		}
		if rerr != nil && !errors.Is(rerr, os.ErrDeadlineExceeded) {
			// The netpoller wait failed on a descriptor it accepted at
			// construction. No cause is known, so fail closed rather
			// than hang every parked connection: Close refuses further
			// parks and hands the parked ones back Dead. It waits for
			// this goroutine to return, hence its own.
			go l.Close()
			return
		}
		if now-lastSweep >= int64(sweepInterval) {
			lastSweep = now
			l.sweep(now)
		}
	}
}
