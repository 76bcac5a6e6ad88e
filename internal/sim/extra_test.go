package sim

import "testing"

func TestSleepAndStallAccounting(t *testing.T) {
	e := newTestEngine(1)
	e.OnCore(0, 0, func(_ *Engine, c *Core) {
		c.Charge(100)
		c.Sleep(50)
		c.AddIdle(5)
		if c.Now() != 150 {
			t.Errorf("clock %d", c.Now())
		}
		if c.BusyCycles() != 100 || c.IdleCycles() != 55 {
			t.Errorf("busy=%d idle=%d", c.BusyCycles(), c.IdleCycles())
		}
	})
	e.Run(1000)
}

func TestGlobalNowTracksDispatch(t *testing.T) {
	e := newTestEngine(1)
	e.OnCore(0, 123, func(_ *Engine, c *Core) {
		c.Charge(10_000) // local clock runs ahead
		if c.GlobalNow() != 123 {
			t.Errorf("global now %d, want dispatch time 123", c.GlobalNow())
		}
	})
	e.Run(1000_000)
	// Without an engine the fallback is the local clock.
	orphan := &Core{now: 7}
	if orphan.GlobalNow() != 7 {
		t.Error("orphan core fallback wrong")
	}
}

func TestDeferUserAccumulates(t *testing.T) {
	e := newTestEngine(1)
	c := e.Cores[0]
	c.UserShare = 0.5
	e.OnCore(0, 0, func(_ *Engine, c *Core) {
		s1 := c.Now()
		c.Charge(100)
		first := c.DeferUser(s1)
		s2 := c.Now()
		c.Charge(100)
		second := c.DeferUser(s2)
		// Debt accumulates across turns.
		if second <= first {
			t.Errorf("debt did not accumulate: %d then %d", first, second)
		}
	})
	e.Run(1 << 30)
}

func TestEventsCounter(t *testing.T) {
	e := newTestEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func(*Engine, *Core) {})
	}
	e.Run(100)
	if e.Events() != 5 {
		t.Fatalf("events = %d", e.Events())
	}
}
