package sched

import (
	"math/rand"
	"testing"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/sim"
)

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

// TestHarnessSkewedConvergence replays §3.3.2's canonical scenario:
// every connection aimed at groups homed on one overloaded core of six.
// The real policy must steal, then migrate the hot groups out until
// locality converges.
func TestHarnessSkewedConvergence(t *testing.T) {
	h := NewHarness(HarnessConfig{Cores: 6, Seed: 1, MigrateEvery: time.Millisecond})
	hot := groupsOwnedBy(t, h.Table, 0, 6)
	res := h.Run([]Phase{{Until: 40 * msCycles, ArrivalGap: 20_000, Port: PortForGroups(hot)}})

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
}

// TestHarnessShiftingWorkloadReconverges moves the skew to another
// owner mid-run: the fixed balancing tick must re-converge.
func TestHarnessShiftingWorkloadReconverges(t *testing.T) {
	h := NewHarness(HarnessConfig{Cores: 6, Seed: 2, MigrateEvery: time.Millisecond})
	hotA := groupsOwnedBy(t, h.Table, 0, 4)
	hotB := groupsOwnedBy(t, h.Table, 3, 4)
	res := h.Run([]Phase{
		{Until: 40 * msCycles, ArrivalGap: 20_000, Port: PortForGroups(hotA)},
		{Until: 80 * msCycles, ArrivalGap: 20_000, Port: PortForGroups(hotB)},
	})

	n := len(res.TickLocality)
	if late := LocalityOver(res.TickLocality, 3*n/4, n); late < 0.9 {
		t.Fatalf("did not re-converge after shift: late-window locality %.3f", late)
	}
}

// TestHarnessRandomCoreCounts sweeps seeded random core counts through
// a skewed workload: every run serves, and the skew makes idle cores
// steal.
func TestHarnessRandomCoreCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		cores := 3 + rng.Intn(8)
		h := NewHarness(HarnessConfig{Cores: cores, Seed: int64(100 + i), MigrateEvery: time.Millisecond})
		owner := rng.Intn(cores)
		hot := groupsOwnedBy(t, h.Table, owner, 2)
		res := h.Run([]Phase{{Until: 20 * msCycles, ArrivalGap: 15_000, Port: PortForGroups(hot)}})
		if res.Served == 0 {
			t.Fatalf("run %d (%d cores) served nothing", i, cores)
		}
		if res.Steals == 0 {
			t.Fatalf("run %d (%d cores): skewed workload produced no steals", i, cores)
		}
	}
}
