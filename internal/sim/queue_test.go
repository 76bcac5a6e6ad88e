package sim

import (
	"math/rand"
	"testing"
)

// TestQueueDispatchesInAtSeqOrder schedules random interleavings of At,
// After and OnCore, from outside and from inside handlers, on a handful
// of timestamps so most events tie, and checks that dispatch follows
// (time, scheduling order) exactly.
func TestQueueDispatchesInAtSeqOrder(t *testing.T) {
	type key struct {
		at  Time
		seq int
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(3)
		var got []key
		seq, budget := 0, 400
		var schedule func()
		schedule = func() {
			seq++
			my := seq
			h := func(en *Engine, _ *Core) {
				got = append(got, key{en.Now(), my})
				for n := rng.Intn(3); n > 0 && budget > 0; n-- {
					budget--
					schedule()
				}
			}
			at := Time(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				e.At(at, h)
			case 1:
				e.After(Cycles(rng.Intn(3)), h)
			default:
				e.OnCore(rng.Intn(3), at, h)
			}
		}
		for i := 0; i < 100; i++ {
			schedule()
		}
		e.Run(1 << 20)
		if len(got) != seq {
			t.Fatalf("seed %d: dispatched %d of %d events", seed, len(got), seq)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || a.at == b.at && a.seq > b.seq {
				t.Fatalf("seed %d: event %v dispatched before %v", seed, a, b)
			}
		}
	}
}

// TestScheduleDispatchAllocatesNothing checks that, once the queue has
// grown, scheduling and dispatching a reused handler value allocates 0.
func TestScheduleDispatchAllocatesNothing(t *testing.T) {
	e := newTestEngine(2)
	h := func(*Engine, *Core) {}
	for i := 0; i < 8; i++ {
		e.At(0, h)
	}
	e.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		now := e.Now()
		e.At(now+1, h)
		e.After(2, h)
		e.OnCore(1, now+1, h)
		e.Run(now + 2)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per schedule-and-dispatch, want 0", allocs)
	}
}
