package evloop

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// collector is a test Callbacks sink recording every delivery, and
// asserting (at check time) that no connection was delivered twice.
type collector struct {
	mu    sync.Mutex
	ready []net.Conn
	dead  []net.Conn
}

func (k *collector) callbacks() Callbacks {
	return Callbacks{
		Ready: func(c net.Conn) {
			k.mu.Lock()
			k.ready = append(k.ready, c)
			k.mu.Unlock()
		},
		Dead: func(c net.Conn) {
			k.mu.Lock()
			k.dead = append(k.dead, c)
			k.mu.Unlock()
		},
	}
}

func (k *collector) counts() (ready, dead int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.ready), len(k.dead)
}

// delivered reports how many times c appears across both callbacks.
func (k *collector) delivered(c net.Conn) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, x := range k.ready {
		if x == c {
			n++
		}
	}
	for _, x := range k.dead {
		if x == c {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// tcpPair returns a connected TCP pair on loopback; these have real
// descriptors, so on Linux they exercise the epoll path.
func tcpPair(t *testing.T) (server, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.c, client
}

// readWakeByte reads the single byte the peer wrote to wake a parked
// handle, honoring a fallback-consumed byte held in the handle.
func readWakeByte(t *testing.T, h *Handle) byte {
	t.Helper()
	var b [1]byte
	if n, ok := h.Replay(b[:]); ok {
		if n != 1 {
			t.Fatalf("Replay returned n=%d", n)
		}
		return b[0]
	}
	h.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := h.c.Read(b[:]); err != nil {
		t.Fatalf("reading wake byte: %v", err)
	}
	return b[0]
}

// paritySuite runs the behavioral contract against one implementation.
// The epoll path and the portable parker-goroutine path must both pass
// the identical suite — that equivalence is what lets serve treat
// Requeue as implementation-agnostic.
func paritySuite(t *testing.T, portable bool) {
	newLoop := func(t *testing.T, k *collector) *Loop {
		l := New(Config{Callbacks: k.callbacks(), ForcePortable: portable})
		l.Start()
		t.Cleanup(l.Close)
		return l
	}

	t.Run("WakeOnInput", func(t *testing.T) {
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("Arm refused on an open loop")
		}
		if l.Len() != 1 {
			t.Fatalf("Len = %d, want 1", l.Len())
		}
		if _, err := cli.Write([]byte{'x'}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "Ready delivery", func() bool { r, _ := k.counts(); return r == 1 })
		if got := readWakeByte(t, &h); got != 'x' {
			t.Fatalf("wake byte = %q, want 'x'", got)
		}
		if l.Len() != 0 {
			t.Fatalf("Len after delivery = %d, want 0", l.Len())
		}
		if _, d := k.counts(); d != 0 {
			t.Fatalf("unexpected Dead deliveries: %d", d)
		}
	})

	t.Run("RearmAfterWake", func(t *testing.T) {
		// A connection parks, wakes, and parks again many times — the
		// keep-alive lifecycle. Every wake must deliver exactly once and
		// carry the right byte (the fallback path holds a consumed byte
		// across the re-park; the epoll path leaves it in the kernel).
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		for i := 0; i < 10; i++ {
			if !l.Arm(&h, time.Time{}) {
				t.Fatalf("round %d: Arm refused", i)
			}
			want := byte('a' + i)
			if _, err := cli.Write([]byte{want}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "Ready delivery", func() bool { r, _ := k.counts(); return r == i+1 })
			if got := readWakeByte(t, &h); got != want {
				t.Fatalf("round %d: wake byte = %q, want %q", i, got, want)
			}
		}
	})

	t.Run("ArmWithInputBuffered", func(t *testing.T) {
		// Input that is already in the socket buffer when Arm runs must
		// still be delivered, exactly once: on the first park by the
		// kernel's initial EPOLL_CTL_ADD event, on a re-park by the
		// post-arm probe (its edge fired while the handle was unarmed,
		// and the wake byte was read without NoteRead). The portable
		// parker just reads it.
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		for i, want := range []byte{'f', 'r'} {
			if _, err := cli.Write([]byte{want}); err != nil {
				t.Fatal(err)
			}
			if !l.Portable() {
				waitFor(t, "input buffered", h.probeReadable)
			}
			if !l.Arm(&h, time.Time{}) {
				t.Fatalf("arm %d refused", i)
			}
			waitFor(t, "Ready delivery", func() bool { r, _ := k.counts(); return r == i+1 })
			if got := readWakeByte(t, &h); got != want {
				t.Fatalf("arm %d: wake byte = %q, want %q", i, got, want)
			}
		}
		time.Sleep(20 * time.Millisecond) // a stale event would land by now
		if r, d := k.counts(); r != 2 || d != 0 {
			t.Fatalf("ready=%d dead=%d, want 2/0", r, d)
		}
		if ready, _, _ := l.Counters(); ready != 2 {
			t.Fatalf("Counters ready = %d, want 2", ready)
		}
	})

	t.Run("DeadlineSweepReapsIdle", func(t *testing.T) {
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		if !l.Arm(&h, time.Now().Add(50*time.Millisecond)) {
			t.Fatal("Arm refused")
		}
		// No input ever arrives; the sweep must report the handle Dead.
		waitFor(t, "sweep expiry", func() bool { _, d := k.counts(); return d == 1 })
		if r, _ := k.counts(); r != 0 {
			t.Fatalf("unexpected Ready deliveries: %d", r)
		}
		if l.Len() != 0 {
			t.Fatalf("Len after expiry = %d, want 0", l.Len())
		}
	})

	t.Run("PeerCloseDelivers", func(t *testing.T) {
		// A peer disconnect while parked must surface exactly once. The
		// epoll path reports it as readability (the owner reads the EOF);
		// the fallback parker's blocking read fails, reporting Dead.
		// Either way the loop lets go of the connection.
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("Arm refused")
		}
		cli.Close()
		waitFor(t, "peer-close delivery", func() bool { r, d := k.counts(); return r+d == 1 })
		if l.Len() != 0 {
			t.Fatalf("Len after delivery = %d, want 0", l.Len())
		}
		if n := k.delivered(srv); n != 1 {
			t.Fatalf("connection delivered %d times, want 1", n)
		}
	})

	t.Run("ShedNewestIsLIFO", func(t *testing.T) {
		k := &collector{}
		l := newLoop(t, k)
		const n = 3
		conns := make([]net.Conn, n)
		handles := make([]*Handle, n)
		for i := range conns {
			srv, cli := tcpPair(t)
			defer srv.Close()
			defer cli.Close()
			conns[i] = srv
			handles[i] = &Handle{}
			handles[i].Init(srv)
			defer handles[i].Retire()
			if !l.Arm(handles[i], time.Time{}) {
				t.Fatalf("Arm %d refused", i)
			}
		}
		seq, ok := l.NewestSeq()
		if !ok || seq != handles[n-1].seq {
			t.Fatalf("NewestSeq = %d,%v, want %d,true", seq, ok, handles[n-1].seq)
		}
		for i := n - 1; i >= 0; i-- {
			c, ok := l.ShedNewest()
			if !ok {
				t.Fatalf("ShedNewest %d: empty loop", i)
			}
			if c != conns[i] {
				t.Fatalf("ShedNewest returned conn %v, want index %d", c, i)
			}
		}
		if _, ok := l.ShedNewest(); ok {
			t.Fatal("ShedNewest succeeded on an empty loop")
		}
		if r, d := k.counts(); r+d != 0 {
			t.Fatalf("shed connections were also delivered: ready=%d dead=%d", r, d)
		}
	})

	t.Run("ShedRacesWake", func(t *testing.T) {
		// Shed-while-armed: peers write wake bytes while another
		// goroutine sheds as fast as it can. Every connection must end
		// up owned exactly once — woken, reaped, or shed; never two of
		// those, never zero.
		k := &collector{}
		l := newLoop(t, k)
		const n = 32
		type ent struct {
			srv, cli net.Conn
			h        Handle
		}
		ents := make([]*ent, n)
		for i := range ents {
			srv, cli := tcpPair(t)
			defer srv.Close()
			defer cli.Close()
			e := &ent{srv: srv, cli: cli}
			e.h.Init(srv)
			defer e.h.Retire()
			ents[i] = e
			if !l.Arm(&e.h, time.Time{}) {
				t.Fatalf("Arm %d refused", i)
			}
		}
		var shed []net.Conn
		var shedMu sync.Mutex
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c, ok := l.ShedNewest(); ok {
					shedMu.Lock()
					shed = append(shed, c)
					shedMu.Unlock()
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		go func() {
			defer wg.Done()
			for _, e := range ents {
				e.cli.Write([]byte{'w'})
				time.Sleep(100 * time.Microsecond)
			}
		}()
		waitFor(t, "all connections accounted for", func() bool {
			r, d := k.counts()
			shedMu.Lock()
			s := len(shed)
			shedMu.Unlock()
			return r+d+s >= n
		})
		close(stop)
		wg.Wait()
		shedMu.Lock()
		defer shedMu.Unlock()
		seen := make(map[net.Conn]int)
		k.mu.Lock()
		for _, c := range k.ready {
			seen[c]++
		}
		for _, c := range k.dead {
			seen[c]++
		}
		k.mu.Unlock()
		for _, c := range shed {
			seen[c]++
		}
		for i, e := range ents {
			if seen[e.srv] != 1 {
				t.Fatalf("conn %d delivered %d times, want exactly 1", i, seen[e.srv])
			}
		}
	})

	t.Run("CancelUnparksOne", func(t *testing.T) {
		// Cancel takes exactly the handle named, wherever it sits in the
		// park list; the loop never delivers it afterwards, and a handle
		// that was delivered (or cancelled) already is not there to take.
		k := &collector{}
		l := newLoop(t, k)
		const n = 3
		srvs, clis := make([]net.Conn, n), make([]net.Conn, n)
		handles := make([]Handle, n)
		for i := range handles {
			srvs[i], clis[i] = tcpPair(t)
			defer srvs[i].Close()
			defer clis[i].Close()
			handles[i].Init(srvs[i])
			defer handles[i].Retire()
			if !l.Arm(&handles[i], time.Time{}) {
				t.Fatalf("Arm %d refused", i)
			}
		}
		if !l.Cancel(&handles[1]) {
			t.Fatal("Cancel missed an armed handle")
		}
		if l.Len() != n-1 {
			t.Fatalf("Len after Cancel = %d, want %d", l.Len(), n-1)
		}
		if l.Cancel(&handles[1]) {
			t.Fatal("Cancel took the same handle twice")
		}
		for _, c := range clis {
			if _, err := c.Write([]byte{'x'}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the two parked handles' wakes", func() bool { r, _ := k.counts(); return r == n-1 })
		if l.Cancel(&handles[0]) {
			t.Fatal("Cancel took a handle the loop had already delivered")
		}
		time.Sleep(20 * time.Millisecond)
		if got := k.delivered(srvs[1]); got != 0 {
			t.Fatalf("cancelled handle was delivered %d times", got)
		}
	})

	t.Run("ArmAfterCloseRefused", func(t *testing.T) {
		k := &collector{}
		l := New(Config{Callbacks: k.callbacks(), ForcePortable: portable})
		l.Start()
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		l.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		if l.Arm(&h, time.Time{}) {
			t.Fatal("Arm succeeded on a closed loop")
		}
	})

	t.Run("CloseDeliversDeadOnce", func(t *testing.T) {
		k := &collector{}
		l := New(Config{Callbacks: k.callbacks(), ForcePortable: portable})
		l.Start()
		const n = 8
		conns := make([]net.Conn, n)
		for i := range conns {
			srv, cli := tcpPair(t)
			defer srv.Close()
			defer cli.Close()
			conns[i] = srv
			h := &Handle{}
			h.Init(srv)
			defer h.Retire()
			if !l.Arm(h, time.Time{}) {
				t.Fatalf("Arm %d refused", i)
			}
		}
		l.Close()
		// Close guarantees no delivery after it returns: counts are
		// final the moment it comes back.
		r, d := k.counts()
		if r != 0 || d != n {
			t.Fatalf("after Close: ready=%d dead=%d, want 0/%d", r, d, n)
		}
		for i, c := range conns {
			if k.delivered(c) != 1 {
				t.Fatalf("conn %d delivered %d times", i, k.delivered(c))
			}
		}
	})

	t.Run("InputAfterShortReadDeliveredAtArm", func(t *testing.T) {
		// The owner's read came back short, so the queue was empty; the
		// next byte arrives while the handle is unarmed. Its edge is the
		// only one it gets, and the re-arm must deliver it: the edge the
		// loop recorded makes Arm probe.
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("Arm refused")
		}
		cli.Write([]byte{'a'})
		waitFor(t, "first wake", func() bool { r, _ := k.counts(); return r == 1 })
		buf := make([]byte, 64)
		if n := ownerRead(t, &h, buf); n != 1 || buf[0] != 'a' {
			t.Fatalf("read %q, want \"a\"", buf[:n])
		}
		cli.Write([]byte{'b'})
		if !l.Portable() {
			waitFor(t, "the unarmed edge recorded", func() bool { return missedEdge(l, &h) })
		}
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("re-Arm refused")
		}
		waitFor(t, "wake for input that came while unarmed", func() bool { r, _ := k.counts(); return r == 2 })
		if n := ownerRead(t, &h, buf); n != 1 || buf[0] != 'b' {
			t.Fatalf("read %q, want \"b\"", buf[:n])
		}
		if n := l.probes.Load(); !l.Portable() && n != 1 {
			t.Fatalf("probes = %d, want 1", n)
		}
	})

	t.Run("FullReadForcesProbe", func(t *testing.T) {
		// A read that filled its buffer may have left bytes behind, and
		// they fired their edge while the handle was armed: nothing new
		// will come. The re-arm must probe and deliver them.
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("Arm refused")
		}
		cli.Write([]byte("ab"))
		waitFor(t, "first wake", func() bool { r, _ := k.counts(); return r == 1 })
		var one [1]byte
		if n := ownerRead(t, &h, one[:]); n != 1 || one[0] != 'a' {
			t.Fatalf("read %q, want \"a\"", one[:n])
		}
		if !l.Portable() && missedEdge(l, &h) {
			t.Fatal("an edge was recorded for input that arrived while armed")
		}
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("re-Arm refused")
		}
		waitFor(t, "wake for the bytes a full read left", func() bool { r, _ := k.counts(); return r == 2 })
		if n := ownerRead(t, &h, one[:]); n != 1 || one[0] != 'b' {
			t.Fatalf("read %q, want \"b\"", one[:n])
		}
		if n := l.probes.Load(); !l.Portable() && n != 1 {
			t.Fatalf("probes = %d, want 1", n)
		}
	})

	t.Run("HangupWithLastRequestDeliveredAtArm", func(t *testing.T) {
		// The peer sends its last request and half-closes before the
		// first wake, so the one event carries both. The owner's read
		// returns the request short and leaves the EOF behind; no later
		// edge announces it, so the re-arm must probe and hand the
		// connection back (the platform poller as Ready, to read EOF;
		// the portable parker as Dead, having read it).
		k := &collector{}
		l := newLoop(t, k)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		cli.Write([]byte{'a'})
		cli.(*net.TCPConn).CloseWrite()
		time.Sleep(20 * time.Millisecond) // both in srv's queue before the first park
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("Arm refused")
		}
		waitFor(t, "first wake", func() bool { return k.delivered(srv) == 1 })
		buf := make([]byte, 64)
		if n := ownerRead(t, &h, buf); n != 1 || buf[0] != 'a' {
			t.Fatalf("read %q, want \"a\"", buf[:n])
		}
		if !l.Arm(&h, time.Time{}) {
			t.Fatal("re-Arm refused")
		}
		waitFor(t, "the hangup handed back", func() bool { return k.delivered(srv) == 2 })
		if l.Portable() {
			return
		}
		if n := l.probes.Load(); n != 1 {
			t.Fatalf("probes = %d, want 1", n)
		}
		if _, err := srv.Read(buf); err != io.EOF {
			t.Fatalf("read after the hangup wake: %v, want EOF", err)
		}
	})

	t.Run("SteadyKeepAliveNoProbe", func(t *testing.T) {
		// One request in flight, answered, parked again: the keep-alive
		// cycle. Each short read saw the queue empty and each request
		// fires its edge while armed, so no re-arm probes, and each wake
		// costs one epoll_wait (plus one per deadline tick).
		ready := make(chan net.Conn, 1)
		l := New(Config{Callbacks: Callbacks{
			Ready: func(c net.Conn) { ready <- c },
			Dead:  func(net.Conn) { t.Error("unexpected Dead delivery") },
		}, ForcePortable: portable})
		l.Start()
		t.Cleanup(l.Close)
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		var h Handle
		h.Init(srv)
		defer h.Retire()
		const rounds = 200
		buf := make([]byte, 64)
		var resp [1]byte
		start, base := time.Now(), l.harvests.Load()
		for i := 0; i < rounds; i++ {
			if !l.Arm(&h, time.Time{}) {
				t.Fatalf("round %d: Arm refused", i)
			}
			if _, err := cli.Write([]byte{'q'}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ready:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: no wake", i)
			}
			if n := ownerRead(t, &h, buf); n != 1 || buf[0] != 'q' {
				t.Fatalf("round %d: read %q, want \"q\"", i, buf[:n])
			}
			if _, err := srv.Write([]byte{'r'}); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Read(resp[:]); err != nil {
				t.Fatal(err)
			}
		}
		if n := l.probes.Load(); n != 0 {
			t.Fatalf("%d probes over %d steady re-arms, want 0", n, rounds)
		}
		if l.Portable() {
			return
		}
		ticks := uint64(time.Since(start)/PollInterval) + 2
		if n := l.harvests.Load() - base; n > rounds+rounds/4+ticks {
			t.Fatalf("%d epoll_waits for %d wakes and %d ticks, want about one per wake", n, rounds, ticks)
		}
	})

	t.Run("BurstBeyondHarvestBuffer", func(t *testing.T) {
		// More handles turn readable at once than one harvest returns
		// (128): the loop keeps harvesting while harvests come back
		// full, and every handle is delivered exactly once.
		k := &collector{}
		l := newLoop(t, k)
		const n = 300
		srvs, clis := make([]net.Conn, n), make([]net.Conn, n)
		handles := make([]Handle, n)
		for i := range handles {
			srvs[i], clis[i] = tcpPair(t)
			defer srvs[i].Close()
			defer clis[i].Close()
			handles[i].Init(srvs[i])
			defer handles[i].Retire()
			if !l.Arm(&handles[i], time.Time{}) {
				t.Fatalf("Arm %d refused", i)
			}
		}
		// Holding the loop's lock stalls delivery after at most one
		// harvest, so at least n-128 events pile up for the next one.
		l.mu.Lock()
		for _, c := range clis {
			if _, err := c.Write([]byte{'x'}); err != nil {
				l.mu.Unlock()
				t.Fatal(err)
			}
		}
		l.mu.Unlock()
		waitFor(t, "every handle's wake", func() bool { r, _ := k.counts(); return r == n })
		time.Sleep(20 * time.Millisecond) // a duplicate would land by now
		for i, c := range srvs {
			if got := k.delivered(c); got != 1 {
				t.Fatalf("handle %d delivered %d times, want 1", i, got)
			}
		}
		if l.Len() != 0 {
			t.Fatalf("Len = %d after every wake, want 0", l.Len())
		}
	})

	t.Run("CoarseClockAdvances", func(t *testing.T) {
		k := &collector{}
		l := newLoop(t, k)
		waitFor(t, "clock tick", func() bool {
			return time.Since(l.Now()) < 2*PollInterval
		})
		if lag := time.Since(l.Now()); lag < 0 || lag > 2*PollInterval {
			t.Fatalf("coarse clock lag %v outside [0, %v]", lag, 2*PollInterval)
		}
	})
}

// ownerRead reads the way serve.Conn.Read does: replay a held wake byte,
// or read the transport and note whether the read came back short.
func ownerRead(t *testing.T, h *Handle, b []byte) int {
	t.Helper()
	if n, ok := h.Replay(b); ok {
		return n
	}
	h.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := h.c.Read(b)
	if err != nil {
		t.Fatalf("owner read: %v", err)
	}
	h.NoteRead(n < len(b))
	return n
}

// missedEdge reports whether the loop has recorded an edge for the
// unarmed handle.
func missedEdge(l *Loop, h *Handle) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return h.missed
}

func TestEvloop(t *testing.T) {
	t.Run("platform", func(t *testing.T) { paritySuite(t, false) })
	t.Run("portable", func(t *testing.T) { paritySuite(t, true) })
}

// TestPipeConnFallsBack proves a descriptor-less connection (net.Pipe)
// parks on the fallback path even when the platform poller exists, and
// still wakes correctly.
func TestPipeConnFallsBack(t *testing.T) {
	k := &collector{}
	l := New(Config{Callbacks: k.callbacks()})
	l.Start()
	defer l.Close()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var h Handle
	h.Init(a)
	defer h.Retire()
	if h.fd >= 0 {
		t.Fatalf("net.Pipe resolved fd %d, want -1", h.fd)
	}
	if !l.Arm(&h, time.Time{}) {
		t.Fatal("Arm refused")
	}
	go b.Write([]byte{'p'})
	waitFor(t, "Ready via fallback", func() bool { r, _ := k.counts(); return r == 1 })
	if !h.fallback {
		t.Fatal("handle did not mark itself fallback")
	}
	if got := readWakeByte(t, &h); got != 'p' {
		t.Fatalf("wake byte = %q, want 'p'", got)
	}
}

// TestCtlFailureDegradesSticky forces every poller registration to fail
// (as EMFILE on the interest list would) and checks the handle degrades
// to the fallback parker, wakes correctly, and stays on the fallback
// path for later arms even after registrations start succeeding again.
func TestCtlFailureDegradesSticky(t *testing.T) {
	k := &collector{}
	l := New(Config{Callbacks: k.callbacks()})
	l.Start()
	defer l.Close()
	if l.Portable() {
		t.Skip("no platform poller on this OS")
	}
	srv, cli := tcpPair(t)
	defer srv.Close()
	defer cli.Close()
	var h Handle
	h.Init(srv)
	defer h.Retire()

	testForceCtlError.Store(true)
	armed := l.Arm(&h, time.Time{})
	testForceCtlError.Store(false)
	if !armed {
		t.Fatal("Arm refused under ctl failure — must degrade, not refuse")
	}
	if !h.fallback || h.registered {
		t.Fatalf("fallback=%v registered=%v, want true/false", h.fallback, h.registered)
	}
	if _, err := cli.Write([]byte{'1'}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Ready via degraded path", func() bool { r, _ := k.counts(); return r == 1 })
	if got := readWakeByte(t, &h); got != '1' {
		t.Fatalf("wake byte = %q, want '1'", got)
	}

	// Re-arm with registrations healthy again: the handle must remain
	// on the fallback (sticky), never flip-flopping implementations.
	if !l.Arm(&h, time.Time{}) {
		t.Fatal("re-Arm refused")
	}
	if h.registered {
		t.Fatal("degraded handle re-registered with the poller")
	}
	if _, err := cli.Write([]byte{'2'}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Ready on re-arm", func() bool { r, _ := k.counts(); return r == 2 })
	if got := readWakeByte(t, &h); got != '2' {
		t.Fatalf("wake byte = %q, want '2'", got)
	}
}

// TestManyHandlesOneLoop parks a few hundred connections on one loop and
// wakes them all: the O(connections)-goroutines regression guard at unit
// scale (CI's bench job asserts it at 100k).
func TestManyHandlesOneLoop(t *testing.T) {
	k := &collector{}
	l := New(Config{Callbacks: k.callbacks()})
	l.Start()
	defer l.Close()
	const n = 200
	clis := make([]net.Conn, n)
	for i := 0; i < n; i++ {
		srv, cli := tcpPair(t)
		defer srv.Close()
		defer cli.Close()
		clis[i] = cli
		h := &Handle{}
		h.Init(srv)
		defer h.Retire()
		if !l.Arm(h, time.Time{}) {
			t.Fatalf("Arm %d refused", i)
		}
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for _, cli := range clis {
		if _, err := cli.Write([]byte{'m'}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all wakes", func() bool { r, d := k.counts(); return r+d == n })
	r, d := k.counts()
	if r != n || d != 0 {
		t.Fatalf("ready=%d dead=%d, want %d/0", r, d, n)
	}
}

// TestHandleClockWithoutLoop covers the pre-first-park case: a handle
// that has never been armed reports real time, not a zero clock.
func TestHandleClockWithoutLoop(t *testing.T) {
	var h Handle
	if d := time.Since(h.Clock()); d < 0 || d > time.Second {
		t.Fatalf("unparked handle clock drift %v", d)
	}
}

// TestStress arms/wakes/sheds/expires concurrently under -race. No
// assertion beyond "accounted exactly once" — the race detector is the
// real check.
func TestStress(t *testing.T) {
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			k := &collector{}
			l := New(Config{Callbacks: k.callbacks(), ForcePortable: portable})
			l.Start()
			const n = 48
			var shedCount int64
			var shedMu sync.Mutex
			type ent struct {
				srv, cli net.Conn
				h        Handle
			}
			ents := make([]*ent, n)
			for i := range ents {
				srv, cli := tcpPair(t)
				defer srv.Close()
				defer cli.Close()
				e := &ent{srv: srv, cli: cli}
				e.h.Init(srv)
				ents[i] = e
				var dl time.Time
				if i%3 == 0 {
					dl = time.Now().Add(100 * time.Millisecond)
				}
				if !l.Arm(&e.h, dl) {
					t.Fatalf("Arm %d refused", i)
				}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, ok := l.ShedNewest(); ok {
						shedMu.Lock()
						shedCount++
						shedMu.Unlock()
					}
					time.Sleep(300 * time.Microsecond)
				}
			}()
			go func() {
				defer wg.Done()
				for i, e := range ents {
					if i%2 == 0 {
						e.cli.Write([]byte{'s'})
					}
					time.Sleep(150 * time.Microsecond)
				}
			}()
			time.Sleep(300 * time.Millisecond)
			close(stop)
			wg.Wait()
			l.Close()
			for _, e := range ents {
				e.h.Retire()
			}
			r, d := k.counts()
			shedMu.Lock()
			s := shedCount
			shedMu.Unlock()
			if int64(r+d)+s != n {
				t.Fatalf("deliveries %d + sheds %d != %d conns", r+d, s, n)
			}
		})
	}
}
