package core

import (
	"math/rand"
	"testing"
)

// randomChipOf assigns each of n cores a random chip out of 1–8 chips —
// deliberately uneven (some chips crowded, some possibly empty), the
// worker spreads a real deployment's cgroup masks produce.
func randomChipOf(rng *rand.Rand, n int) (func(int) int, int) {
	chips := 1 + rng.Intn(8)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(chips)
	}
	return func(c int) int { return assign[c] }, chips
}

// stealable mirrors stealFrom's victim test: the victim has queued work
// and its busy bit survives the low-watermark check the scan applies.
func stealable[T any](q *Queues[T], victim int) bool {
	if q.Len(victim) == 0 || !q.Busy(victim) {
		return false
	}
	_, low := q.Watermarks()
	return q.EWMAValue(victim) >= low
}

// TestStealOrderPropertyRandomTopologies is the distance-ordering
// property over random topologies and busy masks: for every core, the
// victim scan order is sorted by non-decreasing chip distance and
// covers every other core exactly once; and every actual steal picks a
// victim at the minimum distance among the cores stealable at that
// moment. CI runs it 50x under -race.
func TestStealOrderPropertyRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(11) // 2–12 cores
		chipOf, chips := randomChipOf(rng, n)
		q := NewQueues[int](Config{
			Cores:   n,
			Backlog: 8 * n, // maxLocal 8, high 6, low 0.8
			ChipOf:  chipOf,
		})

		// Structural invariant: order sorted, complete, tiers consistent.
		for c := 0; c < n; c++ {
			order := q.VictimOrder(c)
			if len(order) != n-1 {
				t.Fatalf("iter %d (%d cores, %d chips): core %d order has %d victims, want %d",
					iter, n, chips, c, len(order), n-1)
			}
			seen := make(map[int]bool, n)
			prev := -1
			for _, v := range order {
				if v == c || seen[v] {
					t.Fatalf("iter %d: core %d order %v repeats or includes self", iter, c, order)
				}
				seen[v] = true
				d := q.Distance(c, v)
				if d < prev {
					t.Fatalf("iter %d: core %d order %v not sorted by distance (%d after %d)",
						iter, c, order, d, prev)
				}
				prev = d
			}
			tiers := q.VictimTiers(c)
			if len(tiers) == 0 || tiers[len(tiers)-1] != n-1 {
				t.Fatalf("iter %d: core %d tiers %v do not cover order of %d", iter, c, tiers, n-1)
			}
			start := 0
			for _, end := range tiers {
				if end <= start {
					t.Fatalf("iter %d: core %d empty tier in %v", iter, c, tiers)
				}
				d0 := q.Distance(c, order[start])
				for i := start; i < end; i++ {
					if q.Distance(c, order[i]) != d0 {
						t.Fatalf("iter %d: core %d tier %v mixes distances", iter, c, order[start:end])
					}
				}
				start = end
			}
		}

		// Behavioral invariant: random busy mask, then steals from a
		// random non-busy thief always hit the nearest stealable tier.
		busyMask := 1 + rng.Intn(1<<(n-1)) // at least one victim busy
		thief := rng.Intn(n)
		for v := 0; v < n; v++ {
			if v == thief || busyMask&(1<<v) == 0 {
				continue
			}
			for i := 0; i < 7; i++ { // cross the high watermark: busy
				q.Push(v, v*100+i)
			}
		}
		for step := 0; step < 10; step++ {
			minDist := -1
			for v := 0; v < n; v++ {
				if v == thief || !stealable(q, v) {
					continue
				}
				if d := q.Distance(thief, v); minDist < 0 || d < minDist {
					minDist = d
				}
			}
			_, from, ok := q.Pop(thief)
			if !ok || from == thief {
				break // nothing stealable left (or a local pop)
			}
			if d := q.Distance(thief, from); d != minDist {
				t.Fatalf("iter %d (%d cores, %d chips): thief %d stole from %d at distance %d, nearest stealable was %d",
					iter, n, chips, thief, from, d, minDist)
			}
		}
	}
}

// TestStealShareWithinTier asserts the paper's 5:1 proportional share
// survives distance ordering: a non-busy core with local work steals
// exactly once per StealRatio local accepts, and each of those steals
// comes from the same-chip victim while one is stealable — the far
// victim is touched only once the near tier is dry.
func TestStealShareWithinTier(t *testing.T) {
	// 3 cores: thief 0 and victim 1 on chip 0, victim 2 on chip 1.
	chip := []int{0, 0, 1}
	q := NewQueues[int](Config{
		Cores:   3,
		Backlog: 24, // maxLocal 8, high 6
		ChipOf:  func(c int) int { return chip[c] },
	})
	const ratio = DefaultStealRatio
	// Keep the thief supplied with local work and both victims busy.
	for i := 0; i < 7; i++ {
		q.Push(1, 100+i)
		q.Push(2, 200+i)
	}
	nearAvail := 7
	localSince := 0
	var nearSteals, farSteals, locals int
	for step := 0; step < 40; step++ {
		if q.Len(0) < 2 {
			q.Push(0, step) // top up local work without crossing busy
		}
		v, from, ok := q.Pop(0)
		if !ok {
			t.Fatalf("step %d: pop failed with work queued", step)
		}
		switch from {
		case 0:
			locals++
			localSince++
			if localSince > ratio {
				t.Fatalf("step %d: %d local accepts without a steal (ratio %d) while victims busy",
					step, localSince, ratio)
			}
		case 1:
			nearSteals++
			nearAvail--
			localSince = 0
		case 2:
			farSteals++
			localSince = 0
			if nearAvail > 0 && stealable(q, 1) {
				t.Fatalf("step %d: stole %d from far victim 2 while same-chip victim 1 still stealable", step, v)
			}
		}
	}
	if nearSteals == 0 {
		t.Fatal("same-chip victim was never stolen from")
	}
	if locals < ratio*nearSteals {
		t.Fatalf("proportional share broken: %d locals for %d near steals (want >= %d)",
			locals, nearSteals, ratio*nearSteals)
	}
}

// TestEmptyPopLeavesNothingStealable pins the invariant that makes a
// second scan in Pop dead code: over random topologies and random
// Push/Pop/ObserveIdle schedules, a Pop by a non-busy core that comes
// back empty leaves no other core busy with queued connections — the
// steal scan has already visited every one.
func TestEmptyPopLeavesNothingStealable(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	exercised := 0 // empty pops beside a core that still had connections queued
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(11) // 2–12 cores
		chipOf, chips := randomChipOf(rng, n)
		q := NewQueues[int](Config{Cores: n, Backlog: 8 * n, HighPct: 20 + 60*rng.Float64(), LowPct: 15, ChipOf: chipOf})
		hot := rng.Intn(n) // half the pushes pile onto one core so it turns busy
		for step := 0; step < 400; step++ {
			c := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				q.Push(hot, step)
			case 1:
				q.Push(c, step)
			case 2:
				q.ObserveIdle(c, rng.Intn(20))
			case 3:
				busy := q.Busy(c)
				if _, _, ok := q.Pop(c); ok || busy {
					continue
				}
				for v := 0; v < n; v++ {
					if v == c || q.Len(v) == 0 {
						continue
					}
					exercised++
					if q.Busy(v) {
						t.Fatalf("iter %d (%d cores, %d chips) step %d: core %d popped nothing while core %d is busy with %d queued",
							iter, n, chips, step, c, v, q.Len(v))
					}
				}
			}
		}
	}
	if exercised == 0 {
		t.Fatal("no empty Pop ever ran beside queued connections: the schedule tests nothing")
	}
}
