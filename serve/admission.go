package serve

import (
	"errors"
	"syscall"

	"affinityaccept/internal/evloop"
	"affinityaccept/internal/obs"
)

// fdPressureSheds is how many parked connections one EMFILE/ENFILE
// accept failure reclaims. More than one, because descriptor exhaustion
// is a global condition and a single freed fd would be re-consumed by
// the very next accept; a small batch gives the acceptor headroom.
const fdPressureSheds = 8

// isFDPressure reports whether an accept error means the process (or
// system) descriptor table is full — the condition shedding can fix.
func isFDPressure(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE)
}

// admitBudget charges one accepted connection to the budget, reporting
// whether it fits. If the budget is exhausted it sheds the newest
// parked connection — closing it synchronously, so the descriptor and
// budget slot are free before this accept proceeds — and only refuses
// the newcomer when nothing is parked (every slot is doing work;
// shedding an *active* connection is never on the table). The charge is
// released by the connection's Close.
func (s *Server) admitBudget() bool {
	n := s.live.Add(1)
	if n > int64(s.cfg.MaxConns) {
		if !s.shedNewestParked() {
			s.live.Add(-1)
			s.budgetRejected.Add(1)
			return false
		}
		s.shedParked.Add(1)
	}
	s.notePeak()
	return true
}

// notePeak folds the current live count into livePeak. Called after
// admission has settled, so the peak records budget-enforced reality:
// it can never exceed MaxConns.
func (s *Server) notePeak() {
	n := s.live.Load()
	for {
		peak := s.livePeak.Load()
		if n <= peak || s.livePeak.CompareAndSwap(peak, n) {
			return
		}
	}
}

// shedParkedConns closes up to n of the newest parked connections
// (LIFO) and reports how many it closed. The accept loop calls it on
// descriptor exhaustion; each close runs synchronously so the freed
// descriptors are available to the retried accept.
func (s *Server) shedParkedConns(n int) int {
	shed := 0
	for ; shed < n; shed++ {
		if !s.shedNewestParked() {
			break
		}
	}
	s.shedParked.Add(uint64(shed))
	return shed
}

// shedNewestParked closes the most recently parked connection in the
// whole server — the global LIFO victim. Park order is a monotonic
// sequence across the per-worker loops, so the victim is simply the
// loop head with the largest sequence: O(workers) per shed, against the
// old design's single global lock on every park. The close is
// synchronous (the caller gets the descriptor back before its next
// accept) and fires the victim's OnParkClose.
func (s *Server) shedNewestParked() bool {
	// Two attempts: between reading the heads and detaching, the chosen
	// loop's head can wake and drain; rescan once before giving up.
	for attempt := 0; attempt < 2; attempt++ {
		var best *evloop.Loop
		var bestWorker int
		var bestSeq uint64
		for i, l := range s.loops {
			if seq, ok := l.NewestSeq(); ok && (best == nil || seq > bestSeq) {
				best, bestWorker, bestSeq = l, i, seq
			}
		}
		if best == nil {
			return false
		}
		if nc, ok := best.ShedNewest(); ok {
			c := nc.(*Conn)
			// Sheds are rare, high-value decisions: control ring, where
			// park/wake churn can't overwrite them.
			s.recordControl(bestWorker, obs.KindShed, c.group, c.port, 0, 0)
			s.closeHeld(c)
			return true
		}
	}
	return false
}

// ChargeConn charges (delta > 0) or releases (delta < 0) descriptors
// the accept path cannot see against the connection budget — a reverse
// proxy's upstream tunnel leg is the motivating case: one CONNECT-style
// tunnel holds two descriptors but only the downstream one was counted
// at accept. Over-budget charges shed parked connections to make room
// but never fail: the descriptor already exists, so the budget adapts
// rather than lying. No-op when MaxConns is 0.
func (s *Server) ChargeConn(delta int) {
	if s.cfg.MaxConns == 0 || delta == 0 {
		return
	}
	n := s.live.Add(int64(delta))
	if delta < 0 {
		return
	}
	for over := n - int64(s.cfg.MaxConns); over > 0; over-- {
		if !s.shedNewestParked() {
			break
		}
		s.shedParked.Add(1)
	}
	s.notePeak()
}

// Overloaded reports whether every worker is over its §3.3.1 busy
// watermark — the saturation signal application layers use to shed
// fresh connections with backpressure (httpaff's 503-with-Retry-After)
// while established flows keep their workers. One lock acquisition;
// callers gate it to new-connection setup, not the per-request path.
func (s *Server) Overloaded() bool { return s.bal.AllBusy() }

// Live reports connections currently charged against the budget
// (0 when MaxConns is unset — budget accounting is off).
func (s *Server) Live() int64 { return s.live.Load() }

// LivePeak reports the high-water mark of Live. Budget enforcement
// happens before the peak is recorded, so LivePeak ≤ MaxConns is the
// server's no-overrun invariant, checkable from outside.
func (s *Server) LivePeak() int64 { return s.livePeak.Load() }
