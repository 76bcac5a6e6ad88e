package core

import (
	"testing"
	"testing/quick"
)

func qcfg(cores, backlog int) Config { return Config{Cores: cores, Backlog: backlog} }

func TestConfigDefaults(t *testing.T) {
	q := NewQueues[int](Config{Cores: 4})
	if q.MaxLocalLen() != DefaultBacklogPerCore {
		t.Fatalf("default max local = %d", q.MaxLocalLen())
	}
	high, low := q.Watermarks()
	if high != float64(DefaultBacklogPerCore)*0.75 || low != float64(DefaultBacklogPerCore)*0.10 {
		t.Fatalf("watermarks %v/%v", high, low)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Cores: 0},
		{Cores: 2, HighPct: 10, LowPct: 50},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", bad)
				}
			}()
			NewQueues[int](bad)
		}()
	}
}

func TestPushPopFIFO(t *testing.T) {
	q := NewQueues[int](qcfg(2, 16))
	for i := 0; i < 5; i++ {
		if ok, _ := q.Push(0, i); !ok {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < 5; i++ {
		v, from, ok := q.Pop(0)
		if !ok || v != i || from != 0 {
			t.Fatalf("pop %d: got v=%d from=%d ok=%v", i, v, from, ok)
		}
	}
	if _, _, ok := q.Pop(0); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestOverflowDropsAndMarksBusy(t *testing.T) {
	q := NewQueues[int](qcfg(2, 8)) // 4 per core
	for i := 0; i < 4; i++ {
		if ok, _ := q.Push(0, i); !ok {
			t.Fatalf("push %d rejected early", i)
		}
	}
	ok, busy := q.Push(0, 99)
	if ok {
		t.Fatal("overflow push accepted")
	}
	if busy != q.Busy(0) {
		t.Fatalf("Push reported busy=%v, Busy says %v", busy, q.Busy(0))
	}
	if q.Drops != 1 {
		t.Fatalf("drops = %d", q.Drops)
	}
	if !q.Busy(0) {
		t.Fatal("overflowed core not marked busy")
	}
}

func TestHighWatermarkMarksBusy(t *testing.T) {
	q := NewQueues[int](qcfg(1, 100)) // maxLocal 100, high 75
	for i := 0; i < 75; i++ {
		q.Push(0, i)
	}
	if q.Busy(0) {
		t.Fatal("busy before crossing high watermark")
	}
	_, busy := q.Push(0, 75) // length 76 > 75
	if !q.Busy(0) {
		t.Fatal("not busy after crossing high watermark")
	}
	if busy != q.Busy(0) {
		t.Fatalf("Push reported busy=%v, Busy says %v", busy, q.Busy(0))
	}
}

func TestBusyClearsOnlyWhenEWMALow(t *testing.T) {
	q := NewQueues[int](qcfg(2, 200)) // 100/core, high 75, low 10
	for i := 0; i < 80; i++ {
		q.Push(0, i)
	}
	if !q.Busy(0) {
		t.Fatal("core should be busy")
	}
	// Drain fully; instantaneous length is 0 but EWMA is still high, so a
	// single check must not clear busy.
	for {
		if _, _, ok := q.Pop(0); !ok {
			break
		}
	}
	if !q.Busy(0) {
		t.Fatal("busy cleared while EWMA still above low watermark")
	}
	// Push/pop one connection at a time: queue stays near empty, EWMA
	// decays below low, then busy clears.
	for i := 0; i < 2000 && q.Busy(0); i++ {
		q.Push(0, i)
		q.Pop(0)
	}
	if q.Busy(0) {
		t.Fatalf("busy never cleared; EWMA=%v low=%v", q.EWMAValue(0), 10.0)
	}
}

func TestBusyVectorSnapshot(t *testing.T) {
	q := NewQueues[int](qcfg(70, 70)) // 1 per core
	q.Push(3, 1)
	q.Push(3, 2) // overflow -> busy
	q.Push(69, 1)
	q.Push(69, 2)
	v := q.BusyVector()
	if v[0]&(1<<3) == 0 || v[1]&(1<<5) == 0 {
		t.Fatalf("busy vector wrong: %x", v)
	}
}

func TestStealOnlyFromBusy(t *testing.T) {
	q := NewQueues[int](qcfg(2, 40)) // 20/core
	// Core 1 has connections but is NOT busy: its own thread is about
	// to serve them, so core 0 must leave them alone.
	q.Push(1, 42)
	if _, _, ok := q.Pop(0); ok {
		t.Fatal("stole from a non-busy core")
	}
	// Once core 1 is marked busy (overflow), stealing is allowed.
	for i := 0; i < 25; i++ {
		q.Push(1, i)
	}
	if !q.Busy(1) {
		t.Fatal("expected busy after overflow")
	}
	if _, from, ok := q.Pop(0); !ok || from != 1 {
		t.Fatalf("expected steal from busy core 1: from=%d ok=%v", from, ok)
	}
}

func TestBusyCoresNeverSteal(t *testing.T) {
	q := NewQueues[int](qcfg(2, 4)) // 2/core
	// Make core 0 busy via overflow.
	q.Push(0, 1)
	q.Push(0, 2)
	q.Push(0, 3) // dropped, busy set
	// Core 1 also busy with queued work.
	q.Push(1, 10)
	q.Push(1, 11)
	q.Push(1, 12)
	// Drain core 0's local queue.
	q.Pop(0)
	q.Pop(0)
	// Core 0 is still busy (EWMA high): it must not steal from core 1.
	if _, _, ok := q.Pop(0); ok {
		t.Fatal("busy core stole a connection")
	}
}

func TestProportionalShareRatio(t *testing.T) {
	q := NewQueues[int](qcfg(2, 200))
	// Make core 1 permanently busy with a deep queue.
	for i := 0; i < 90; i++ {
		q.Push(1, i)
	}
	if !q.Busy(1) {
		t.Fatal("victim not busy")
	}
	locals, steals := 0, 0
	for i := 0; i < 600; i++ {
		// Keep core 0 supplied and core 1 topped up so both choices are
		// always available ("when both types are available").
		if q.Len(0) < 5 {
			q.Push(0, 1000+i)
		}
		if q.Len(1) < 85 {
			q.Push(1, 2000+i)
		}
		_, from, ok := q.Pop(0)
		if !ok {
			t.Fatal("pop failed with both queues non-empty")
		}
		if from == 0 {
			locals++
		} else {
			steals++
		}
	}
	if steals == 0 {
		t.Fatal("no steals despite busy remote")
	}
	ratio := float64(locals) / float64(steals)
	if ratio < 4 || ratio > 6.5 {
		t.Fatalf("local:remote ratio = %.2f, want ~5", ratio)
	}
}

func TestRoundRobinVictims(t *testing.T) {
	q := NewQueues[int](Config{Cores: 4, Backlog: 16, StealRatio: 1})
	// Cores 1, 2, 3 all busy with work.
	for _, v := range []int{1, 2, 3} {
		for i := 0; i < 4; i++ {
			q.Push(v, v*100+i)
		}
		q.Push(v, 999) // overflow -> busy
	}
	victims := map[int]int{}
	for i := 0; i < 9; i++ {
		q.Push(0, i) // keep one local accept between steals
		_, from, ok := q.Pop(0)
		if !ok {
			t.Fatal("pop failed")
		}
		if from != 0 {
			victims[from]++
		}
	}
	if len(victims) < 2 {
		t.Fatalf("steals not spread round-robin: %v", victims)
	}
}

func TestPopScanPrefersBusyRemotes(t *testing.T) {
	q := NewQueues[int](qcfg(3, 12)) // 4/core
	// Core 1: non-busy with work; core 2: busy with work.
	q.Push(1, 100)
	for i := 0; i < 4; i++ {
		q.Push(2, 200+i)
	}
	q.Push(2, 999) // overflow -> busy
	_, from, ok := q.Pop(0)
	if !ok || from != 2 {
		t.Fatalf("expected steal from busy core 2, got from=%d", from)
	}
}

func TestStolenFromAndReset(t *testing.T) {
	q := NewQueues[int](Config{Cores: 2, Backlog: 8, StealRatio: 1})
	for i := 0; i < 4; i++ {
		q.Push(1, i)
	}
	q.Push(1, 9) // busy
	q.Push(0, 7)
	q.Pop(0) // local
	q.Pop(0) // steal due
	counts := q.StolenFrom(0)
	if counts[1] != 1 {
		t.Fatalf("stolenFrom = %v", counts)
	}
	q.ResetSteals(0)
	if q.StolenFrom(0)[1] != 0 {
		t.Fatal("reset failed")
	}
}

// Property: no connection is ever lost or duplicated through any mix of
// pushes and pops across cores.
func TestConservationProperty(t *testing.T) {
	type op struct {
		Core uint8
		Push bool
		Val  uint16
	}
	f := func(ops []op) bool {
		const cores = 4
		q := NewQueues[uint16](Config{Cores: cores, Backlog: 32})
		pushed := map[uint16]int{}
		popped := map[uint16]int{}
		for _, o := range ops {
			c := int(o.Core) % cores
			if o.Push {
				if ok, _ := q.Push(c, o.Val); ok {
					pushed[o.Val]++
				}
			} else if v, _, ok := q.Pop(c); ok {
				popped[v]++
			}
		}
		// Drain everything left.
		for c := 0; c < cores; c++ {
			for {
				v, _, ok := q.Pop(c)
				if !ok {
					break
				}
				popped[v]++
			}
		}
		// Some connections may remain when all cores are busy and queues
		// non-empty... but the drain above uses Pop on each core which
		// pops locally first, so local queues always drain.
		for v, n := range pushed {
			if popped[v] != n {
				return false
			}
		}
		for v, n := range popped {
			if pushed[v] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue length never exceeds capacity, busy bit always set
// whenever instantaneous length is above the high watermark.
func TestInvariantsProperty(t *testing.T) {
	type op struct {
		Core uint8
		Push bool
	}
	f := func(ops []op) bool {
		const cores = 3
		q := NewQueues[int](Config{Cores: cores, Backlog: 30}) // 10/core
		high, _ := q.Watermarks()
		for i, o := range ops {
			c := int(o.Core) % cores
			if o.Push {
				q.Push(c, i)
			} else {
				q.Pop(c)
			}
			for k := 0; k < cores; k++ {
				if q.Len(k) > q.MaxLocalLen() {
					return false
				}
				if float64(q.Len(k)) > high && !q.Busy(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersConsistent(t *testing.T) {
	q := NewQueues[int](qcfg(2, 8))
	for i := 0; i < 10; i++ {
		q.Push(i%2, i)
	}
	for {
		if _, _, ok := q.Pop(0); !ok {
			break
		}
	}
	for {
		if _, _, ok := q.Pop(1); !ok {
			break
		}
	}
	if q.Locals+q.Steals+uint64(q.TotalLen()) != q.Pushes-q.Drops {
		t.Fatalf("counter identity violated: locals=%d steals=%d drops=%d pushes=%d left=%d",
			q.Locals, q.Steals, q.Drops, q.Pushes, q.TotalLen())
	}
}
