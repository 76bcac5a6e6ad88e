package obs

import (
	"sort"
	"sync/atomic"
)

// DefaultRingSize is the per-ring slot count every server uses (and
// what a zero size selects): 1024 events per worker keeps minutes of
// control-plane history (migrations, sheds, ratelimits are rare) and a
// second or two of park/wake churn under load, at 64KiB per ring.
const DefaultRingSize = 1024

// Event is one control-plane decision, as drained from a ring. Seq is
// a recorder-global sequence — events from different workers' rings
// interleave into one timeline by Seq. TS is coarse wall time (unix
// nanoseconds from the worker's event-loop clock, ~50ms resolution).
// A, B, C are Kind-specific operands; see the Kind constants.
//
// Group and Hop are the flow-journey tags: Group is the flow group the
// event belongs to (-1 for events outside any flow journey, e.g. a
// ratelimit refusal), and Hop is the group's monotonic hop counter at
// record time — assigned by one atomic increment per group, so however
// the per-worker rings interleave, sorting a group's events by Hop
// reconstructs the causal order of decisions about that group. See
// Stitch.
type Event struct {
	Seq    uint64 `json:"seq"`
	TS     int64  `json:"ts"`
	Kind   Kind   `json:"kind"`
	Worker int32  `json:"worker"`
	Group  int32  `json:"group"`
	Hop    uint32 `json:"hop,omitempty"`
	A      int64  `json:"a"`
	B      int64  `json:"b,omitempty"`
	C      int64  `json:"c,omitempty"`
}

// slot is one ring entry. Every field is atomic so concurrent
// record/drain is race-detector clean; the marker is a per-slot seqlock
// making torn drains detectable: 0 = never written, odd = a writer is
// mid-publish, even nonzero = published (value 2*pos+2 for the slot's
// pos'th occupant, so a reader that loads the same even marker before
// and after copying the fields got a consistent event).
type slot struct {
	marker atomic.Uint64
	seq    atomic.Uint64
	ts     atomic.Int64
	kw     atomic.Uint64 // kind<<32 | uint32(worker)
	gh     atomic.Uint64 // uint32(group)<<32 | hop — the flow-journey tag
	a, b   atomic.Int64
	c      atomic.Int64
}

// ring is one lock-free single-producer-ish event buffer. Writers are
// usually one worker, but the path is safe for any number: a slot is
// claimed by CAS on its marker, and the (astronomically unlikely) case
// of two writers lapping the whole ring onto the same slot drops the
// loser's event rather than tearing the winner's.
type ring struct {
	mask  uint64
	pos   atomic.Uint64
	drops atomic.Uint64
	slots []slot
}

func (r *ring) record(ev Event) {
	i := r.pos.Add(1) - 1
	s := &r.slots[i&r.mask]
	m := s.marker.Load()
	if m&1 == 1 || !s.marker.CompareAndSwap(m, 2*i+1) {
		// Another writer holds this slot mid-publish — it lapped the
		// ring while we were here. Lossy by design: drop ours.
		r.drops.Add(1)
		return
	}
	s.seq.Store(ev.Seq)
	s.ts.Store(ev.TS)
	s.kw.Store(uint64(ev.Kind)<<32 | uint64(uint32(ev.Worker)))
	s.gh.Store(uint64(uint32(ev.Group))<<32 | uint64(ev.Hop))
	s.a.Store(ev.A)
	s.b.Store(ev.B)
	s.c.Store(ev.C)
	s.marker.Store(2*i + 2)
}

// snapshot appends every consistently published event to into. A slot
// whose marker changes between the two loads was being rewritten; it is
// skipped (its previous occupant is lost — the ring already wrapped
// past it).
func (r *ring) snapshot(into []Event) []Event {
	for i := range r.slots {
		s := &r.slots[i]
		m := s.marker.Load()
		if m == 0 || m&1 == 1 {
			continue
		}
		ev := Event{
			Seq: s.seq.Load(),
			TS:  s.ts.Load(),
			A:   s.a.Load(),
			B:   s.b.Load(),
			C:   s.c.Load(),
		}
		kw := s.kw.Load()
		ev.Kind = Kind(kw >> 32)
		ev.Worker = int32(uint32(kw))
		gh := s.gh.Load()
		ev.Group = int32(uint32(gh >> 32))
		ev.Hop = uint32(gh)
		if s.marker.Load() != m {
			continue
		}
		into = append(into, ev)
	}
	return into
}

// Rings is a group of event rings sharing one sequence counter —
// typically one ring per worker plus one control ring, so high-churn
// per-worker events (park, wake, accept) can never evict the rare
// control-plane events (migrate, shed) a post-hoc "why did this flow
// move" question needs. The shared sequence makes a merged drain a
// single ordered timeline.
type Rings struct {
	seq   atomic.Uint64
	rings []ring
}

// NewRings creates n rings of the given size (0 = DefaultRingSize;
// sizes round up to a power of two).
func NewRings(n, size int) *Rings {
	if size <= 0 {
		size = DefaultRingSize
	}
	sz := 1
	for sz < size {
		sz <<= 1
	}
	g := &Rings{rings: make([]ring, n)}
	for i := range g.rings {
		g.rings[i].mask = uint64(sz - 1)
		g.rings[i].slots = make([]slot, sz)
	}
	return g
}

// Record publishes one event onto ring r, outside any flow journey
// (Group -1, Hop 0). Zero allocations; a handful of atomic stores.
// Out-of-range rings are dropped silently so callers don't need bounds
// logic on the hot path.
func (g *Rings) Record(r int, k Kind, worker int, ts, a, b, c int64) {
	g.RecordGroup(r, k, worker, ts, -1, 0, a, b, c)
}

// RecordGroup publishes one flow-journey event onto ring r, tagged with
// the flow group it belongs to and the group's hop counter. The caller
// owns hop assignment (one atomic increment per group, see the serve
// layer) so that hops are monotonic per group across all workers' rings.
// Zero allocations.
func (g *Rings) RecordGroup(r int, k Kind, worker int, ts int64, group int32, hop uint32, a, b, c int64) {
	if r < 0 || r >= len(g.rings) {
		return
	}
	g.rings[r].record(Event{
		Seq:    g.seq.Add(1),
		TS:     ts,
		Kind:   k,
		Worker: int32(worker),
		Group:  group,
		Hop:    hop,
		A:      a,
		B:      b,
		C:      c,
	})
}

// Events drains every ring into one slice ordered by Seq — the merged
// control-plane timeline. Diagnostic path: allocates.
func (g *Rings) Events() []Event {
	return g.EventsSince(0)
}

// EventsSince drains every ring like Events but keeps only events with
// Seq > since — the incremental-poll cursor behind /debug/events?since=.
// A poller that passes the largest Seq it has seen receives each event
// exactly once (events older than the cursor are filtered; events that
// wrapped out of a ring between polls are gone either way), so repeated
// polls never double-deliver. Diagnostic path: allocates.
func (g *Rings) EventsSince(since uint64) []Event {
	var evs []Event
	for i := range g.rings {
		evs = g.rings[i].snapshot(evs)
	}
	if since > 0 {
		kept := evs[:0]
		for _, ev := range evs {
			if ev.Seq > since {
				kept = append(kept, ev)
			}
		}
		evs = kept
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// Recorded reports how many events have been published across all
// rings since creation (including ones since overwritten).
func (g *Rings) Recorded() uint64 { return g.seq.Load() }

// Dropped reports events lost to writer collisions on a lapped slot —
// nonzero only under pathological event rates; ring overwrites of old
// events are not drops.
func (g *Rings) Dropped() uint64 {
	var n uint64
	for i := range g.rings {
		n += g.rings[i].drops.Load()
	}
	return n
}
