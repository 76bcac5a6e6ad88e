// Package mem models the memory system of the paper's evaluation
// machines (§2): cache-line coherence between cores, the latency
// hierarchy of Table 1, a slab allocator with per-core pools and
// remote-free penalties, and the per-type sharing statistics that DProf
// reports in Table 4 (§2.1). This is the cost model that makes
// off-core connection processing expensive, which is the paper's whole
// case for connection affinity.
//
// The simulator does not store application data; an Object is purely a
// coherence shadow — a set of cache lines with owner/sharer metadata.
// Substrates declare the layout of kernel structures (tcp_sock, sk_buff,
// …) as TypeInfos with named byte-range fields, and every simulated
// kernel operation touches the fields it would touch in Linux. The model
// charges the access latency implied by where the line currently lives.
package mem

import "affinityaccept/internal/sim"

// CacheLineSize is the coherence granularity of both machines.
const CacheLineSize = 64

// MaxCores bounds the sharer bitmask width.
const MaxCores = 128

// Latencies holds access times in cycles to each level of the memory
// hierarchy (the paper's Table 1). Remote values are between the two
// chips farthest apart on the interconnect.
type Latencies struct {
	L1, L2, L3, RAM     sim.Cycles
	RemoteL3, RemoteRAM sim.Cycles
}

// Machine describes one of the evaluation hosts.
type Machine struct {
	Name         string
	Chips        int
	CoresPerChip int
	Freq         uint64
	Lat          Latencies
}

// Cores reports the machine's total core count.
func (m Machine) Cores() int { return m.Chips * m.CoresPerChip }

// Chip reports which chip a core belongs to.
func (m *Machine) Chip(core int) int { return core / m.CoresPerChip }

// SameChip reports whether two cores share an L3.
func (m *Machine) SameChip(a, b int) bool { return m.Chip(a) == m.Chip(b) }

// WithCores returns a copy of the machine restricted to n cores, keeping
// the chip topology (used for core-count sweeps in Figures 2/3/5/6).
func (m Machine) WithCores(n int) Machine {
	c := m
	if n < m.Cores() {
		// Keep cores-per-chip; the sweep enables whole cores in order,
		// matching how the paper onlines CPUs.
		c.Chips = (n + m.CoresPerChip - 1) / m.CoresPerChip
	}
	return c
}

// AMD48 is the paper's 48-core machine: eight 6-core 2.4 GHz AMD Opteron
// 8431 chips. Latencies are Table 1's AMD row.
func AMD48() Machine {
	return Machine{
		Name:         "AMD48",
		Chips:        8,
		CoresPerChip: 6,
		Freq:         sim.DefaultFreq,
		Lat: Latencies{
			L1: 3, L2: 14, L3: 28, RAM: 120,
			RemoteL3: 460, RemoteRAM: 500,
		},
	}
}

// Intel80 is the paper's 80-core machine: eight 10-core 2.4 GHz Intel
// Xeon E7 8870 chips. Latencies are Table 1's Intel row.
func Intel80() Machine {
	return Machine{
		Name:         "Intel80",
		Chips:        8,
		CoresPerChip: 10,
		Freq:         sim.DefaultFreq,
		Lat: Latencies{
			L1: 4, L2: 12, L3: 24, RAM: 90,
			RemoteL3: 200, RemoteRAM: 280,
		},
	}
}
