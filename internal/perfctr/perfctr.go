// Package perfctr attributes simulated cycles, instruction counts and L2
// misses to kernel entry points, reproducing the profiling methodology
// of §2.1 behind the paper's Table 3 ("we instrumented the kernel to
// record a number of performance counter events during each type of
// system call and interrupt").
package perfctr

import (
	"fmt"
	"sort"

	"affinityaccept/internal/sim"
)

// Entry identifies a kernel entry point.
type Entry int

// The kernel entry points of Table 3, in the paper's order.
const (
	SoftirqNetRX Entry = iota
	SysRead
	Schedule
	SysAccept4
	SysWritev
	SysPoll
	SysShutdown
	SysFutex
	SysClose
	SoftirqRCU
	SysFcntl
	SysGetsockname
	SysEpollWait
	numEntries
)

var entryNames = [...]string{
	SoftirqNetRX:   "softirq_net_rx",
	SysRead:        "sys_read",
	Schedule:       "schedule",
	SysAccept4:     "sys_accept4",
	SysWritev:      "sys_writev",
	SysPoll:        "sys_poll",
	SysShutdown:    "sys_shutdown",
	SysFutex:       "sys_futex",
	SysClose:       "sys_close",
	SoftirqRCU:     "softirq_rcu",
	SysFcntl:       "sys_fcntl",
	SysGetsockname: "sys_getsockname",
	SysEpollWait:   "sys_epoll_wait",
}

// String names the entry as the paper prints it.
func (e Entry) String() string {
	if e < 0 || int(e) >= len(entryNames) {
		return fmt.Sprintf("entry(%d)", int(e))
	}
	return entryNames[e]
}

// Entries lists all entry points in presentation order.
func Entries() []Entry {
	out := make([]Entry, numEntries)
	for i := range out {
		out[i] = Entry(i)
	}
	return out
}

// Counters holds the three performance counters for one entry point.
type Counters struct {
	Cycles       uint64
	Instructions uint64
	L2Misses     uint64
	Calls        uint64
}

// Set accumulates counters for every entry point.
type Set struct {
	c [numEntries]Counters
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{} }

// Add charges cycles and instructions to an entry.
func (s *Set) Add(e Entry, cycles sim.Cycles, instructions uint64) {
	s.c[e].Cycles += uint64(cycles)
	s.c[e].Instructions += instructions
}

// AddMiss records an L2 miss for an entry.
func (s *Set) AddMiss(e Entry) { s.c[e].L2Misses++ }

// AddCall records one invocation of an entry.
func (s *Set) AddCall(e Entry) { s.c[e].Calls++ }

// Get returns the counters of one entry.
func (s *Set) Get(e Entry) Counters { return s.c[e] }

// TotalCycles sums cycles across all entries.
func (s *Set) TotalCycles() uint64 {
	var t uint64
	for i := range s.c {
		t += s.c[i].Cycles
	}
	return t
}

// PerRequest divides every counter by the request count, yielding the
// per-HTTP-request normalization of Table 3.
func (s *Set) PerRequest(requests uint64) map[Entry]Counters {
	out := make(map[Entry]Counters, numEntries)
	if requests == 0 {
		return out
	}
	for i := range s.c {
		out[Entry(i)] = Counters{
			Cycles:       s.c[i].Cycles / requests,
			Instructions: s.c[i].Instructions / requests,
			L2Misses:     s.c[i].L2Misses / requests,
			Calls:        s.c[i].Calls / requests,
		}
	}
	return out
}

// Table3Row is one line of the paper's Table 3: per-request counters for
// two kernels (Fine-Accept and Affinity-Accept) and their difference.
type Table3Row struct {
	Entry                Entry
	FineCycles           uint64
	AffinityCycles       uint64
	FineInstructions     uint64
	AffinityInstructions uint64
	FineL2Misses         uint64
	AffinityL2Misses     uint64
}

// DeltaCycles reports Fine minus Affinity cycles (positive = Affinity wins).
func (r Table3Row) DeltaCycles() int64 {
	return int64(r.FineCycles) - int64(r.AffinityCycles)
}

// DeltaInstructions reports the instruction difference.
func (r Table3Row) DeltaInstructions() int64 {
	return int64(r.FineInstructions) - int64(r.AffinityInstructions)
}

// DeltaL2 reports the L2-miss difference.
func (r Table3Row) DeltaL2() int64 {
	return int64(r.FineL2Misses) - int64(r.AffinityL2Misses)
}

// BuildTable3 normalizes two counter sets per request and pairs them up,
// sorted by descending Fine cycles (the paper's order).
func BuildTable3(fine, affinity *Set, fineReqs, affinityReqs uint64) []Table3Row {
	f := fine.PerRequest(fineReqs)
	a := affinity.PerRequest(affinityReqs)
	rows := make([]Table3Row, 0, numEntries)
	for _, e := range Entries() {
		rows = append(rows, Table3Row{
			Entry:                e,
			FineCycles:           f[e].Cycles,
			AffinityCycles:       a[e].Cycles,
			FineInstructions:     f[e].Instructions,
			AffinityInstructions: a[e].Instructions,
			FineL2Misses:         f[e].L2Misses,
			AffinityL2Misses:     a[e].L2Misses,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].FineCycles > rows[j].FineCycles })
	return rows
}
