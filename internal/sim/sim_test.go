package sim

import (
	"testing"
	"testing/quick"
)

func newTestEngine(cores int) *Engine {
	return New(Config{Cores: cores, CoresPerChip: 6, Seed: 1})
}

func TestEventOrdering(t *testing.T) {
	e := newTestEngine(1)
	var order []int
	e.At(300, func(*Engine, *Core) { order = append(order, 3) })
	e.At(100, func(*Engine, *Core) { order = append(order, 1) })
	e.At(200, func(*Engine, *Core) { order = append(order, 2) })
	e.Run(1000)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := newTestEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func(*Engine, *Core) { order = append(order, i) })
	}
	e.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCoreQueueingDelaysWork(t *testing.T) {
	e := newTestEngine(1)
	var secondStart Time
	e.OnCore(0, 100, func(_ *Engine, c *Core) { c.Charge(500) })
	e.OnCore(0, 200, func(_ *Engine, c *Core) { secondStart = c.Now() })
	e.Run(10_000)
	if secondStart != 600 {
		t.Fatalf("second event started at %d, want 600 (after first's work)", secondStart)
	}
}

func TestIdleAccounting(t *testing.T) {
	e := newTestEngine(1)
	e.OnCore(0, 100, func(_ *Engine, c *Core) { c.Charge(50) })
	e.OnCore(0, 1000, func(_ *Engine, c *Core) { c.Charge(10) })
	e.Run(10_000)
	c := e.Cores[0]
	// Idle: 0->100 (100) plus 150->1000 (850).
	if c.IdleCycles() != 950 {
		t.Fatalf("idle = %d, want 950", c.IdleCycles())
	}
	if c.BusyCycles() != 60 {
		t.Fatalf("busy = %d, want 60", c.BusyCycles())
	}
}

func TestRunHorizonPausesAndResumes(t *testing.T) {
	e := newTestEngine(1)
	fired := 0
	e.At(500, func(*Engine, *Core) { fired++ })
	if got := e.Run(400); got != 400 {
		t.Fatalf("Run returned %d, want horizon 400", got)
	}
	if fired != 0 {
		t.Fatal("event fired before horizon")
	}
	e.Run(1000)
	if fired != 1 {
		t.Fatal("event lost across Run calls")
	}
	e.Run(2000)
	if fired != 1 {
		t.Fatalf("event dispatched %d times, want once", fired)
	}
}

func TestStop(t *testing.T) {
	e := newTestEngine(1)
	count := 0
	e.At(1, func(en *Engine, _ *Core) { count++; en.Stop() })
	e.At(2, func(*Engine, *Core) { count++ })
	e.Run(100)
	if count != 1 {
		t.Fatalf("Stop did not halt dispatch: count=%d", count)
	}
	// A later Run picks the remaining event back up.
	e.Run(100)
	if count != 2 {
		t.Fatal("remaining event lost after Stop")
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	e := newTestEngine(2)
	hops := 0
	var hop func(en *Engine, c *Core)
	hop = func(en *Engine, c *Core) {
		hops++
		if hops < 5 {
			en.OnCore((c.ID+1)%2, c.Now()+10, hop)
		}
	}
	e.OnCore(0, 0, hop)
	e.Run(1000)
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	e := newTestEngine(1)
	var at Time
	e.At(100, func(en *Engine, _ *Core) {
		en.At(50, func(en2 *Engine, _ *Core) { at = en2.Now() }) // in the past
	})
	e.Run(1000)
	if at != 100 {
		t.Fatalf("past event ran at %d, want clamped to 100", at)
	}
}

func TestSetNowNeverRewinds(t *testing.T) {
	e := newTestEngine(1)
	e.OnCore(0, 100, func(_ *Engine, c *Core) {
		c.Charge(10)
		c.SetNow(50) // earlier: must be ignored
		if c.Now() != 110 {
			t.Errorf("SetNow rewound the clock to %d", c.Now())
		}
		c.SetNow(200)
		if c.Now() != 200 {
			t.Errorf("SetNow failed to advance: %d", c.Now())
		}
	})
	e.Run(1000)
}

func TestUnitConversions(t *testing.T) {
	e := newTestEngine(1)
	if e.CyclesOf(1) != Time(DefaultFreq) {
		t.Fatal("1 second should be Freq cycles")
	}
	if e.Millis(1) != Time(DefaultFreq/1000) {
		t.Fatal("1 ms wrong")
	}
	if e.Micros(1) != Time(DefaultFreq/1_000_000) {
		t.Fatal("1 us wrong")
	}
	if got := e.Seconds(Time(DefaultFreq)); got != 1 {
		t.Fatalf("Seconds(Freq) = %v", got)
	}
}

func TestChipAssignment(t *testing.T) {
	e := New(Config{Cores: 12, CoresPerChip: 6, Seed: 0})
	if e.Cores[0].Chip != 0 || e.Cores[5].Chip != 0 || e.Cores[6].Chip != 1 {
		t.Fatal("chip layout wrong")
	}
}

func TestTotalIdleIncludesTrailing(t *testing.T) {
	e := newTestEngine(2)
	e.OnCore(0, 0, func(_ *Engine, c *Core) { c.Charge(100) })
	e.Run(1000)
	// Core 0: trailing idle 900. Core 1: fully idle 1000.
	if got := e.TotalIdle(1000); got != 1900 {
		t.Fatalf("TotalIdle = %d, want 1900", got)
	}
}

// Property: for any batch of events, dispatch observes global time order.
func TestDispatchMonotonicProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := newTestEngine(4)
		var seen []Time
		for i, raw := range times {
			tm := Time(raw)
			core := i % 4
			e.OnCore(core, tm, func(en *Engine, _ *Core) {
				seen = append(seen, en.Now())
			})
		}
		e.Run(1 << 30)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: busy + idle accounting never loses cycles on a single core:
// busyUntil == sum of charged work + idle gaps.
func TestTimelineConservation(t *testing.T) {
	f := func(gaps []uint8) bool {
		e := newTestEngine(1)
		var at Time
		for _, g := range gaps {
			at += Time(g)
			work := Cycles(10)
			e.OnCore(0, at, func(_ *Engine, c *Core) { c.Charge(work) })
		}
		e.Run(1 << 40)
		c := e.Cores[0]
		return c.BusyUntil() == c.BusyCycles()+c.IdleCycles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnCoreBadCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestEngine(1).OnCore(7, 0, func(*Engine, *Core) {})
}

func BenchmarkEventDispatch(b *testing.B) {
	e := newTestEngine(8)
	var pump func(en *Engine, c *Core)
	n := 0
	pump = func(en *Engine, c *Core) {
		n++
		if n < b.N {
			en.OnCore(n%8, c.Now()+100, pump)
		}
	}
	b.ResetTimer()
	e.OnCore(0, 0, pump)
	e.Run(1 << 62)
}
