package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkTableInvariants asserts the structural flow-table properties
// that must hold at every instant: every group owned by exactly one
// in-range core (sum of per-core counts equals the group count — a
// group can be neither lost nor double-owned), and no group steered to
// a core outside [0, cores).
func checkTableInvariants(t *testing.T, counts []int, groups, cores int, context string) {
	t.Helper()
	if len(counts) != cores {
		t.Fatalf("%s: GroupCount over %d cores, want %d", context, len(counts), cores)
	}
	sum := 0
	for c, n := range counts {
		if n < 0 {
			t.Fatalf("%s: core %d owns %d groups", context, c, n)
		}
		sum += n
	}
	if sum != groups {
		t.Fatalf("%s: %d groups accounted for, want %d (a group was lost or double-owned)", context, sum, groups)
	}
}

// TestFlowTablePropertyRandomInterleavings drives random interleavings
// of the operations a live server performs against the flow table —
// accept/requeue routing (Route), queue pressure and stealing
// (Push/Pop), and §3.3.2 balance ticks with a random subset of workers
// marked dead (ineligible) — and asserts after every step that no group
// is lost or double-owned, routing never targets an out-of-range
// worker, and migration never claims a group for a dead worker.
func TestFlowTablePropertyRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cores := 2 + rng.Intn(6)
			groups := 1 << (1 + rng.Intn(6))
			q := NewQueues[int](Config{Cores: cores, Backlog: cores * 16, HighPct: 20, LowPct: 5})
			tbl := NewFlowTable(groups, cores)
			groups = tbl.Groups()

			// A random minority of workers is dead: their queues never
			// pop and balance must never migrate a group to them.
			dead := make([]bool, cores)
			for c := range dead {
				if c > 0 && rng.Intn(4) == 0 {
					dead[c] = true
				}
			}
			eligible := func(c int) bool { return !dead[c] }

			deadGroups := func(counts []int) int {
				n := 0
				for c, owned := range counts {
					if dead[c] {
						n += owned
					}
				}
				return n
			}
			// Dead workers start with their diagonal share of groups;
			// they may only ever lose them.
			maxDead := deadGroups(tbl.GroupCount())

			for step := 0; step < 4000; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // accept/requeue routing
					port := uint16(rng.Intn(1 << 16))
					g := tbl.GroupOf(port)
					c := tbl.CoreOf(g)
					if g < 0 || g >= groups {
						t.Fatalf("step %d: port %d routed to group %d of %d", step, port, g, groups)
					}
					if c < 0 || c >= cores {
						t.Fatalf("step %d: group %d routed to worker %d of %d", step, g, c, cores)
					}
					tbl.ObserveLoad(g, 1)
					q.Push(c, step)
				case 4, 5, 6: // live workers pop (and steal)
					c := rng.Intn(cores)
					if !dead[c] {
						q.Pop(c)
					}
				case 7: // idle decay on a live worker
					c := rng.Intn(cores)
					if !dead[c] {
						q.ObserveIdle(c, 1+rng.Intn(20))
					}
				case 8, 9: // §3.3.2 balance tick
					moves := Balance(tbl, q, eligible, nil)
					for _, m := range moves {
						if m.To < 0 || m.To >= cores {
							t.Fatalf("step %d: migration %+v targets out-of-range worker", step, m)
						}
						if dead[m.To] {
							t.Fatalf("step %d: migration %+v targets dead worker", step, m)
						}
						if m.Group < 0 || m.Group >= groups {
							t.Fatalf("step %d: migration %+v of nonexistent group", step, m)
						}
						if got := tbl.CoreOf(m.Group); got != m.To {
							t.Fatalf("step %d: migration %+v not applied (owner %d)", step, m, got)
						}
					}
				}
				counts := tbl.GroupCount()
				checkTableInvariants(t, counts, groups, cores, fmt.Sprintf("step %d", step))
				if n := deadGroups(counts); n > maxDead {
					t.Fatalf("step %d: dead workers own %d groups, up from %d — a group migrated to a dead worker", step, n, maxDead)
				} else {
					maxDead = n
				}
			}
		})
	}
}

// TestGuardedFlowTablePropertyConcurrent is the same contract under
// real concurrency, shaped like the serve package's use: acceptor
// goroutines route and charge load, worker goroutines push/pop, and a
// migration goroutine runs balance ticks through the nested-lock
// BalanceTable path — all while a reader snapshots. Run under -race
// this is the proof the lock protocol covers every table access; the
// assertions are the same no-lost-groups / in-range-owner invariants.
func TestGuardedFlowTablePropertyConcurrent(t *testing.T) {
	const (
		cores  = 4
		groups = 32
		dur    = 200 * time.Millisecond
	)
	g := NewGuarded[int](Config{Cores: cores, Backlog: cores * 16, HighPct: 20, LowPct: 5})
	tbl := NewGuardedFlowTable(groups, cores)
	eligible := func(c int) bool { return c != 3 } // worker 3 is dead

	var stop atomic.Bool
	var bad atomic.Value // first invariant violation, reported after join
	fail := func(msg string) {
		if bad.CompareAndSwap(nil, msg) {
			stop.Store(true)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // acceptors
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				_, worker := tbl.Route(uint16(rng.Intn(1<<16)), 1)
				if worker < 0 || worker >= cores {
					fail(fmt.Sprintf("Route returned worker %d of %d", worker, cores))
					return
				}
				g.Push(worker, 1)
			}
		}(int64(i + 100))
	}
	for c := 0; c < cores; c++ { // workers (the dead one never pops)
		if c == 3 {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				if _, _, ok := g.Pop(c); !ok {
					g.ObserveIdle(c, 5)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // migration loop
		defer wg.Done()
		for !stop.Load() {
			for _, m := range g.BalanceTable(tbl, eligible) {
				if m.To == 3 || m.To < 0 || m.To >= cores {
					fail(fmt.Sprintf("migration %+v targets dead/out-of-range worker", m))
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // stats reader
		defer wg.Done()
		for !stop.Load() {
			counts := tbl.GroupCount()
			sum := 0
			for _, n := range counts {
				sum += n
			}
			if sum != tbl.Groups() {
				fail(fmt.Sprintf("snapshot accounts for %d of %d groups", sum, tbl.Groups()))
				return
			}
			tbl.Migrations()
		}
	}()

	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	checkTableInvariants(t, tbl.GroupCount(), tbl.Groups(), cores, "final")
}
