package core

import "sort"

// This file holds the NUMA-distance machinery behind Config.ChipOf: the
// paper's stealing policy treats all cores as equidistant, but its own
// Table 1 prices a same-chip cache-line transfer at ~28 cycles (L3)
// versus ~460 to the farthest chip (RemoteL3). Ordering the victim scan
// by chip distance closes that gap without touching the 5:1
// proportional-share policy itself.

// Topology is an explicit core→chip assignment. Unlike the regular
// cores-per-chip layout of the paper's testbeds (Table 1), a Topology
// may be arbitrarily uneven — the shape a pinned deployment gets when
// its cgroup mask hands it a ragged subset of a machine.
type Topology struct {
	Chips int
	// Chip maps each core (by index) to its chip number.
	Chip []int
}

// Cores reports the number of cores in the topology.
func (t Topology) Cores() int { return len(t.Chip) }

// ChipOf returns the core→chip function the distance-aware steal path
// consumes (Config.ChipOf).
func (t Topology) ChipOf(core int) int { return t.Chip[core] }

// Regular builds the even layout of the paper's machines: cores filled
// chip by chip, ceil(cores/chips) on each.
func Regular(cores, chips int) Topology {
	if chips <= 0 {
		chips = 1
	}
	perChip := (cores + chips - 1) / chips
	t := Topology{Chips: chips, Chip: make([]int, cores)}
	for i := range t.Chip {
		t.Chip[i] = i / perChip
	}
	return t
}

// ChipDistance is the steal-ordering distance between two chips: the
// absolute difference of their chip numbers, modeling chips laid out
// along the interconnect (Table 1's "remote" latencies are measured
// between the two chips farthest apart). Same chip is distance 0.
func ChipDistance(chipA, chipB int) int {
	if chipA > chipB {
		return chipA - chipB
	}
	return chipB - chipA
}

// victimOrder builds core's steal-scan order: every other core sorted
// by non-decreasing chip distance, ties broken by wraparound core
// number from core+1 so a flat topology (chipOf == nil, or all cores on
// one chip) reproduces the original round-robin scan exactly. tierEnd
// holds the exclusive end index of each distance tier within order.
func victimOrder(core, n int, chipOf func(int) int) (order, tierEnd []int32) {
	if n <= 1 {
		return nil, nil
	}
	order = make([]int32, 0, n-1)
	for i := 1; i < n; i++ {
		order = append(order, int32((core+i)%n))
	}
	dist := func(v int32) int {
		if chipOf == nil {
			return 0
		}
		return ChipDistance(chipOf(core), chipOf(int(v)))
	}
	// Stable sort keeps the wraparound tie-break inside each tier.
	sort.SliceStable(order, func(i, j int) bool {
		return dist(order[i]) < dist(order[j])
	})
	for i := 1; i < len(order); i++ {
		if dist(order[i]) != dist(order[i-1]) {
			tierEnd = append(tierEnd, int32(i))
		}
	}
	tierEnd = append(tierEnd, int32(len(order)))
	return order, tierEnd
}

// VictimOrder returns a copy of core's steal-scan order: every other
// core sorted by non-decreasing chip distance under the configured
// topology. Tests assert the distance-ordering invariant against it.
func (q *Queues[T]) VictimOrder(core int) []int {
	st := &q.cores[core]
	out := make([]int, len(st.order))
	for i, v := range st.order {
		out[i] = int(v)
	}
	return out
}

// VictimTiers returns the exclusive end index of each distance tier in
// core's VictimOrder — victims order[tierEnd[i-1]:tierEnd[i]] are all
// at the same chip distance, and tiers appear in increasing distance.
func (q *Queues[T]) VictimTiers(core int) []int {
	st := &q.cores[core]
	out := make([]int, len(st.tierEnd))
	for i, v := range st.tierEnd {
		out[i] = int(v)
	}
	return out
}

// Distance reports the steal-ordering chip distance between two cores
// under the configured topology (0 on a flat machine).
func (q *Queues[T]) Distance(a, b int) int {
	if q.cfg.ChipOf == nil {
		return 0
	}
	return ChipDistance(q.cfg.ChipOf(a), q.cfg.ChipOf(b))
}
