package sched

import (
	"math/rand"
	"testing"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/sim"
)

// randomTopology draws a machine with 1–8 chips and an uneven worker
// spread: every chip gets at least one core, the rest land at random —
// shapes no real SKU ships.
func randomTopology(rng *rand.Rand, cores int) core.Topology {
	chips := 1 + rng.Intn(8)
	if chips > cores {
		chips = cores
	}
	t := core.Topology{Chips: chips, Chip: make([]int, cores)}
	perm := rng.Perm(cores)
	for i := 0; i < chips; i++ {
		t.Chip[perm[i]] = i // every chip occupied
	}
	for i := chips; i < cores; i++ {
		t.Chip[perm[i]] = rng.Intn(chips)
	}
	return t
}

// groupsOwnedBy returns the first n flow groups initially steered to
// core under the diagonal spread, so scenarios can aim traffic at a
// chosen owner.
func groupsOwnedBy(t *testing.T, table *core.FlowTable, owner, n int) []int {
	t.Helper()
	var out []int
	for g := 0; g < table.Groups() && len(out) < n; g++ {
		if table.CoreOf(g) == owner {
			out = append(out, g)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d groups initially on core %d", len(out), n, owner)
	}
	return out
}

const msCycles = sim.Cycles(2_400_000) // 1 ms at the default 2.4 GHz

// TestHarnessSkewedConvergence replays the tentpole's canonical
// scenario: every connection aimed at groups homed on one overloaded
// core of a 2-chip machine. The real policy must (a) never steal from a
// farther victim while a closer one is stealable, (b) migrate the hot
// groups out until locality converges, and (c) back the adaptive
// interval off once it has.
func TestHarnessSkewedConvergence(t *testing.T) {
	h := NewHarness(HarnessConfig{
		Topology:     core.Regular(6, 2),
		Seed:         1,
		MigrateEvery: time.Millisecond,
		Adaptive:     true,
	})
	hot := groupsOwnedBy(t, h.Table, 0, 6)
	res := h.Run([]Phase{{Until: 40 * msCycles, ArrivalGap: 20_000, Port: PortForGroups(hot)}})

	if res.OrderViolations != 0 {
		t.Fatalf("%d steal-order violations", res.OrderViolations)
	}
	if res.Steals == 0 || res.Migrations == 0 {
		t.Fatalf("scenario did not exercise the policy: steals=%d migrations=%d", res.Steals, res.Migrations)
	}
	n := len(res.TickLocality)
	early := LocalityOver(res.TickLocality, 0, n/4)
	late := LocalityOver(res.TickLocality, 3*n/4, n)
	if late <= early {
		t.Fatalf("locality did not converge: early %.3f, late %.3f", early, late)
	}
	if late < 0.9 {
		t.Fatalf("late-window locality %.3f, want >= 0.9", late)
	}
	final := res.Reports[len(res.Reports)-1]
	if !final.Converged {
		t.Fatalf("adaptive interval never backed off: final %v", final.Interval)
	}
}

// TestHarnessShiftingWorkloadReconverges shifts the skew to the other
// chip mid-run: the controller must snap back from its backed-off
// interval to the aggressive base, then re-converge.
func TestHarnessShiftingWorkloadReconverges(t *testing.T) {
	h := NewHarness(HarnessConfig{
		Topology:     core.Regular(6, 2),
		Seed:         2,
		MigrateEvery: time.Millisecond,
		Adaptive:     true,
	})
	hotA := groupsOwnedBy(t, h.Table, 0, 4) // chip 0 owner
	hotB := groupsOwnedBy(t, h.Table, 3, 4) // chip 1 owner
	res := h.Run([]Phase{
		{Until: 40 * msCycles, ArrivalGap: 20_000, Port: PortForGroups(hotA)},
		{Until: 80 * msCycles, ArrivalGap: 20_000, Port: PortForGroups(hotB)},
	})

	if res.OrderViolations != 0 {
		t.Fatalf("%d steal-order violations", res.OrderViolations)
	}
	// The controller converged at some tick, then a later tick snapped
	// back to the base interval when the skew moved.
	snapped := false
	seenConverged := false
	for _, rep := range res.Reports {
		if rep.Converged {
			seenConverged = true
		} else if seenConverged {
			snapped = true
			break
		}
	}
	if !seenConverged {
		t.Fatal("controller never converged in phase A")
	}
	if !snapped {
		t.Fatal("controller never snapped back to aggressive after the shift")
	}
	n := len(res.TickLocality)
	if late := LocalityOver(res.TickLocality, 3*n/4, n); late < 0.9 {
		t.Fatalf("did not re-converge after shift: late-window locality %.3f", late)
	}
}

// TestHarnessOscillationFreeze replays the adversarial scenario: one
// group hot enough to overload any single owner on a 3-core machine.
// Under the real §3.3.2 policy the two idle cores alternate as top
// thief, so the group ping-pongs; the controller must freeze it, the
// frozen group must not move during its cooldown, and it must thaw
// afterwards. The freeze must also strictly reduce how often the hot
// group moves versus the non-adaptive baseline.
func TestHarnessOscillationFreeze(t *testing.T) {
	run := func(adaptive bool) (Result, int) {
		h := NewHarness(HarnessConfig{
			Topology:     core.Regular(3, 1),
			Seed:         3,
			MigrateEvery: time.Millisecond,
			Adaptive:     adaptive,
			Controller:   core.ControllerConfig{FreezeTicks: 5},
		})
		hot := groupsOwnedBy(t, h.Table, 0, 1)
		res := h.Run([]Phase{{Until: 40 * msCycles, ArrivalGap: 15_000, Port: PortForGroups(hot)}})
		hotMoves := 0
		for _, moves := range res.TickMoves {
			for _, m := range moves {
				if m.Group == hot[0] {
					hotMoves++
				}
			}
		}
		return res, hotMoves
	}

	res, hotMoves := run(true)
	if res.OrderViolations != 0 {
		t.Fatalf("%d steal-order violations", res.OrderViolations)
	}
	if !res.Frozen() {
		t.Fatal("ping-ponging group was never frozen")
	}
	if !res.Unfroze() {
		t.Fatal("frozen group never thawed after cooldown")
	}
	// While frozen, the hot group must not move. Walk the report/tick
	// pairs: from the tick after a freeze until the tick that reports
	// the thaw, no move may touch a frozen group.
	frozen := map[int]bool{}
	for i, rep := range res.Reports {
		for _, m := range res.TickMoves[i] {
			if frozen[m.Group] {
				t.Fatalf("tick %d moved frozen group %d", i, m.Group)
			}
		}
		for _, g := range rep.Unfrozen {
			delete(frozen, g)
		}
		for _, g := range rep.NewlyFrozen {
			frozen[g] = true
		}
	}

	_, baselineMoves := run(false)
	if hotMoves >= baselineMoves {
		t.Fatalf("freeze did not reduce churn: hot group moved %d times adaptive vs %d baseline",
			hotMoves, baselineMoves)
	}
}

// TestHarnessDistanceAwareReducesCrossChipSteals is the simulated A/B
// behind the bench gate: identical seed and workload — one overloaded
// owner per chip — with the only difference being whether the steal
// scan sees the topology. Distance-aware must strictly reduce both the
// cross-chip steal share and the Table 1-priced per-steal cost, without
// serving fewer connections.
func TestHarnessDistanceAwareReducesCrossChipSteals(t *testing.T) {
	run := func(blind bool) Result {
		h := NewHarness(HarnessConfig{
			Topology:      core.Regular(6, 2),
			Seed:          4,
			MigrateEvery:  time.Second, // no migrations: isolate stealing
			PollGap:       100_000,     // coarse polling keeps the idle tail cheap
			DistanceBlind: blind,
		})
		hot := append(groupsOwnedBy(t, h.Table, 0, 1), groupsOwnedBy(t, h.Table, 3, 1)...)
		return h.Run([]Phase{{Until: 40 * msCycles, ArrivalGap: 10_000, Port: PortForGroups(hot)}})
	}
	aware, blind := run(false), run(true)

	if aware.OrderViolations != 0 {
		t.Fatalf("%d steal-order violations", aware.OrderViolations)
	}
	if aware.Steals == 0 || blind.Steals == 0 {
		t.Fatalf("A/B did not steal: aware=%d blind=%d", aware.Steals, blind.Steals)
	}
	awareShare := float64(aware.CrossChipSteals) / float64(aware.Steals)
	blindShare := float64(blind.CrossChipSteals) / float64(blind.Steals)
	if awareShare >= blindShare {
		t.Fatalf("cross-chip steal share not reduced: aware %.3f vs blind %.3f", awareShare, blindShare)
	}
	awareCost := float64(aware.EstStealCycles) / float64(aware.Steals)
	blindCost := float64(blind.EstStealCycles) / float64(blind.Steals)
	if awareCost >= blindCost {
		t.Fatalf("per-steal cost not reduced: aware %.1f vs blind %.1f cycles", awareCost, blindCost)
	}
	if float64(aware.Served) < 0.97*float64(blind.Served) {
		t.Fatalf("distance awareness cost throughput: served %d vs %d", aware.Served, blind.Served)
	}
}

// TestHarnessRandomTopologies sweeps seeded random uneven topologies
// through a skewed workload and holds the tentpole's core invariant on
// every one: zero steal-order violations, with the policy genuinely
// exercised.
func TestHarnessRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		top := randomTopology(rng, 3+rng.Intn(8))
		h := NewHarness(HarnessConfig{
			Topology:     top,
			Seed:         int64(100 + i),
			MigrateEvery: time.Millisecond,
			Adaptive:     true,
		})
		owner := rng.Intn(top.Cores())
		hot := groupsOwnedBy(t, h.Table, owner, 2)
		res := h.Run([]Phase{{Until: 20 * msCycles, ArrivalGap: 15_000, Port: PortForGroups(hot)}})
		if res.OrderViolations != 0 {
			t.Fatalf("topology %d (%d cores, %d chips): %d steal-order violations",
				i, top.Cores(), top.Chips, res.OrderViolations)
		}
		if res.Served == 0 {
			t.Fatalf("topology %d served nothing", i)
		}
		if top.Cores() > 1 && res.Steals == 0 {
			t.Fatalf("topology %d: skewed workload produced no steals", i)
		}
	}
}
