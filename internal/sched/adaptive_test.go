package sched

import (
	"testing"
	"time"

	"affinityaccept/internal/core"
)

// tick is one Advance call's inputs plus the assertions to run on its
// Report (zero-valued assertion fields are skipped).
type tick struct {
	local, stolen uint64
	moves         []core.Migration

	wantInterval time.Duration
	wantFrozen   []int // groups newly frozen this tick
	wantUnfrozen []int // groups unfrozen this tick
}

func mv(group, from, to int) core.Migration {
	return core.Migration{Group: group, From: from, To: to}
}

// TestControllerStateMachine drives the adaptive controller through the
// state transitions the tentpole promises: poor locality keeps it
// aggressive, sustained convergence backs it off, a shift snaps it
// back, and a ping-ponging group is frozen then unfrozen after its
// cooldown.
func TestControllerStateMachine(t *testing.T) {
	const base = 100 * time.Millisecond
	cfg := core.ControllerConfig{BaseInterval: base, FreezeTicks: 4}
	cases := []struct {
		name  string
		ticks []tick
	}{
		{
			// 60% locality is far below AggressiveLocality: every tick
			// stays at the base interval no matter how many pass.
			name: "poor locality stays aggressive",
			ticks: []tick{
				{local: 60, stolen: 40, wantInterval: base},
				{local: 60, stolen: 40, wantInterval: base},
				{local: 60, stolen: 40, wantInterval: base},
				{local: 60, stolen: 40, wantInterval: base},
				{local: 60, stolen: 40, wantInterval: base},
			},
		},
		{
			// Perfect locality and a quiet balancer: every ConvergedTicks
			// the interval doubles, saturating at MaxInterval.
			name: "converged backs off to max",
			ticks: []tick{
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: 2 * base},
				{local: 100, wantInterval: 2 * base},
				{local: 100, wantInterval: 2 * base},
				{local: 100, wantInterval: 4 * base},
				{local: 100, wantInterval: 4 * base},
				{local: 100, wantInterval: 4 * base},
				{local: 100, wantInterval: 8 * base},
				{local: 100, wantInterval: 8 * base},
				{local: 100, wantInterval: 8 * base},
				{local: 100, wantInterval: 8 * base}, // capped
			},
		},
		{
			// An idle server (no accepts at all) counts as quiet: the
			// interval backs off rather than churning the NIC table.
			name: "idle ticks back off",
			ticks: []tick{
				{wantInterval: base},
				{wantInterval: base},
				{wantInterval: 2 * base},
			},
		},
		{
			// Back off first, then the workload shifts (migrations fire,
			// locality craters): one tick snaps back to base.
			name: "shift snaps back to aggressive",
			ticks: []tick{
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: 2 * base},
				{local: 20, stolen: 80, moves: []core.Migration{mv(7, 0, 1)}, wantInterval: base},
				{local: 20, stolen: 80, wantInterval: base},
			},
		},
		{
			// A migration alone — locality still fine — also resets the
			// back-off: the balancer acting means not yet converged.
			name: "moves reset good-tick credit",
			ticks: []tick{
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: base},
				{local: 100, moves: []core.Migration{mv(3, 2, 0)}, wantInterval: base},
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: base},
				{local: 100, wantInterval: 2 * base},
			},
		},
		{
			// Group 9 bounces 1→0→1: the third move completes the
			// [X, Y, X] pattern and freezes it for FreezeTicks; the
			// cooldown expiring unfreezes it.
			name: "oscillating group frozen then unfrozen",
			ticks: []tick{
				{local: 50, stolen: 50, moves: []core.Migration{mv(9, 0, 1)}, wantInterval: base},
				{local: 50, stolen: 50, moves: []core.Migration{mv(9, 1, 0)}, wantInterval: base},
				{local: 50, stolen: 50, moves: []core.Migration{mv(9, 0, 1)}, wantFrozen: []int{9}},
				{local: 50, stolen: 50},
				{local: 50, stolen: 50},
				{local: 50, stolen: 50},
				{local: 50, stolen: 50, wantUnfrozen: []int{9}}, // tick 7 = freeze tick 3 + 4
			},
		},
		{
			// The same [X, Y, X] owners spread over more ticks than
			// PingPongWindow is genuine re-balancing, not oscillation.
			name: "slow alternation outside window is not frozen",
			ticks: []tick{
				{local: 90, stolen: 10, moves: []core.Migration{mv(5, 0, 1)}},
				{local: 100}, {local: 100}, {local: 100},
				{local: 90, stolen: 10, moves: []core.Migration{mv(5, 1, 0)}},
				{local: 100}, {local: 100}, {local: 100},
				{local: 90, stolen: 10, moves: []core.Migration{mv(5, 0, 1)}, wantFrozen: nil},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewController(cfg)
			for i, tk := range tc.ticks {
				rep := c.Advance(tk.local, tk.stolen, tk.moves)
				if tk.wantInterval != 0 && rep.Interval != tk.wantInterval {
					t.Fatalf("tick %d: interval %v, want %v", i, rep.Interval, tk.wantInterval)
				}
				if tk.wantFrozen != nil && !equalInts(rep.NewlyFrozen, tk.wantFrozen) {
					t.Fatalf("tick %d: newly frozen %v, want %v", i, rep.NewlyFrozen, tk.wantFrozen)
				}
				if len(tk.wantFrozen) == 0 && len(rep.NewlyFrozen) > 0 {
					t.Fatalf("tick %d: unexpected freeze %v", i, rep.NewlyFrozen)
				}
				if tk.wantUnfrozen != nil && !equalInts(rep.Unfrozen, tk.wantUnfrozen) {
					t.Fatalf("tick %d: unfrozen %v, want %v", i, rep.Unfrozen, tk.wantUnfrozen)
				}
				for _, g := range tk.wantFrozen {
					if c.GroupOK(g) {
						t.Fatalf("tick %d: group %d frozen but GroupOK true", i, g)
					}
				}
				for _, g := range tk.wantUnfrozen {
					if !c.GroupOK(g) {
						t.Fatalf("tick %d: group %d unfrozen but GroupOK false", i, g)
					}
				}
			}
		})
	}
}

// TestControllerFreezeVetoIsScoped checks the freeze only vetoes the
// frozen group: the rest of the table keeps balancing, and the thawed
// group's cleared history means its next move does not instantly
// re-freeze it.
func TestControllerFreezeVetoIsScoped(t *testing.T) {
	c := core.NewController(core.ControllerConfig{FreezeTicks: 2})
	c.Advance(50, 50, []core.Migration{mv(1, 0, 1)})
	c.Advance(50, 50, []core.Migration{mv(1, 1, 0)})
	rep := c.Advance(50, 50, []core.Migration{mv(1, 0, 1)})
	if !equalInts(rep.NewlyFrozen, []int{1}) {
		t.Fatalf("group 1 not frozen: %+v", rep)
	}
	if c.GroupOK(1) || !c.GroupOK(2) {
		t.Fatal("freeze veto leaked beyond group 1")
	}
	if c.FrozenCount() != 1 {
		t.Fatalf("FrozenCount = %d, want 1", c.FrozenCount())
	}
	c.Advance(50, 50, nil)
	rep = c.Advance(50, 50, nil) // cooldown expires
	if !equalInts(rep.Unfrozen, []int{1}) {
		t.Fatalf("group 1 not unfrozen: %+v", rep)
	}
	// Two fresh moves after the thaw: only one alternation in the ring,
	// so no re-freeze.
	c.Advance(50, 50, []core.Migration{mv(1, 0, 1)})
	rep = c.Advance(50, 50, []core.Migration{mv(1, 1, 0)})
	if len(rep.NewlyFrozen) != 0 {
		t.Fatalf("thawed group re-frozen from stale history: %+v", rep)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
