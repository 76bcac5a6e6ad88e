package mem

import (
	"slices"
	"sort"

	"affinityaccept/internal/sim"
)

// AccessResult reports what one memory access cost and where it hit.
type AccessResult struct {
	Cycles sim.Cycles
	// Miss is true when the access missed the core's private L1/L2 and
	// had to reach the shared L3, a remote cache, or DRAM. These are the
	// "L2 misses" of the paper's Table 3.
	Miss bool
	// Shared is true when the line was touched by more than one core
	// over the object's lifetime (DProf's sharing criterion).
	Shared bool
}

// typeStats is the model's record of one type: its allocator state and
// its DProf statistics.
type typeStats struct {
	info *TypeInfo

	// free is the type's free list; pool[core] is the coherence line of
	// a per-core slab pool head, so remote frees touch a remote pool
	// head and pay for it.
	free *Object
	pool []Line

	objects      uint64
	linesTotal   uint64
	linesShared  uint64
	sharedCycles uint64 // cycles of accesses landing on shared lines
	accesses     uint64

	// byte accounting, accumulated when profiled objects are released
	bytesTotal    uint64
	bytesShared   uint64
	bytesSharedRW uint64

	// latency samples on shared lines (Figure 4)
	latencies *Histogram

	// fieldMultiReader marks fields observed with >1 reader in some
	// object; SharedFields exports it so a later run can watch exactly
	// the accesses that were shared in this run (DProf's methodology:
	// "we instrument the set of instructions collected from running
	// DProf on Fine-Accept").
	fieldMultiReader []bool

	// watch marks fields whose accesses are accumulated regardless of
	// current sharing, with their own cycle counter and latency samples.
	watch         []bool
	watchedCycles uint64
	watchLat      *Histogram
}

// Model is the machine-wide memory system: coherence directory, slab
// allocator and DProf aggregation.
type Model struct {
	Machine Machine

	// Profiling enables per-object field mask tracking (Table 4 byte
	// columns and the Figure 4 latency CDF). Costs memory; leave off
	// for throughput sweeps.
	Profiling bool

	// Clock, when set, provides the engine's monotone global time so
	// DRAM accesses can queue on their chip's memory controller. Nil
	// disables contention modelling.
	Clock func() sim.Time
	// IssueNow is the issuing core's local clock, set by callers before
	// accesses. Sequential misses from one core are naturally spaced by
	// the DRAM latency itself, so anchoring issues at the core's time
	// (rather than the event's start) keeps a single core from queueing
	// against itself; the controller then only models cross-core
	// contention.
	IssueNow sim.Time
	// EvictHits models finite private caches: a line found "still owned"
	// by the accessing core costs a local-DRAM refill instead of an
	// L1/L2 hit, because the thousands of connections processed between
	// two touches of the same line evict it. Repeat accesses within one
	// operation (AccessRepeat) still hit L1. This is what makes even the
	// fully-local Affinity-Accept configuration take ~180 memory misses
	// per request, as the paper's Table 3 counters show; the Fine
	// configuration pays remote-cache latencies on the same accesses.
	EvictHits bool

	// CtlService is the memory controller's per-line service time; the
	// default models random-access DRAM on the paper's era of hardware.
	CtlService sim.Cycles
	ctlFree    []sim.Time

	// CtlDelays accumulates queueing delay cycles for diagnostics.
	CtlDelays uint64

	// types is indexed by TypeInfo.id; nil for types this model never saw.
	types []*typeStats

	// Counters
	Allocs, Frees, RemoteFrees uint64
}

// NewModel creates a memory model for a machine.
func NewModel(m Machine) *Model {
	return &Model{
		Machine:    m,
		CtlService: 36,
		ctlFree:    make([]sim.Time, m.Chips),
	}
}

// dramDelay reserves one line transfer on a chip's memory controller at
// the given issue time and returns the queueing delay in front of it.
// The queue is bounded (a controller can only have so many outstanding
// requests).
func (m *Model) dramDelay(chip int, issue sim.Time) sim.Cycles {
	if m.Clock == nil || chip >= len(m.ctlFree) {
		return 0
	}
	if g := m.Clock(); issue < g {
		issue = g
	}
	const queueBound = 20_000
	free := m.ctlFree[chip]
	if free > issue+queueBound {
		free = issue + queueBound
	}
	start := issue
	if free > start {
		start = free
	}
	m.ctlFree[chip] = start + m.CtlService
	d := sim.Cycles(start - issue)
	m.CtlDelays += uint64(d)
	return d
}

func (m *Model) statsOf(t *TypeInfo) *typeStats {
	for len(m.types) <= t.id {
		m.types = append(m.types, nil)
	}
	ts := m.types[t.id]
	if ts == nil {
		ts = &typeStats{info: t, latencies: NewLatencyHistogram(),
			pool: make([]Line, m.Machine.Cores())}
		for i := range ts.pool {
			ts.pool[i] = Line{owner: -1, last: -1}
		}
		m.types[t.id] = ts
	}
	return ts
}

// Alloc returns a fresh object of type t allocated from core's pool.
// The returned cost covers allocator bookkeeping (pool head touch).
func (m *Model) Alloc(core int, t *TypeInfo) (*Object, sim.Cycles) {
	m.Allocs++
	ts := m.statsOf(t)
	o := ts.free
	if o != nil {
		ts.free = o.nextFree
		o.nextFree = nil
	} else {
		o = &Object{Type: t, lines: make([]Line, t.Lines())}
	}
	o.reset(int16(core), m.Profiling)
	ts.objects++
	ts.linesTotal += uint64(t.LinesFull())
	ts.bytesTotal += uint64(t.Size)
	return o, m.poolTouch(core, ts)
}

// Free releases an object from the given core. Freeing on a core other
// than the allocating core pays the remote-pool penalty the paper
// describes for packet buffers (§2.2).
func (m *Model) Free(core int, o *Object) sim.Cycles {
	m.Frees++
	ts := m.statsOf(o.Type)
	m.harvest(ts, o)
	cost := m.poolTouch(int(o.AllocCore), ts)
	if int(o.AllocCore) != core {
		m.RemoteFrees++
		// The free itself executes on `core` but manipulates the remote
		// pool head: pay a remote transfer in addition to the touch.
		cost += m.remotePenalty(core, int(o.AllocCore))
	}
	o.nextFree = ts.free
	ts.free = o
	return cost
}

// poolTouch models a write to the per-core slab pool head line.
func (m *Model) poolTouch(core int, ts *typeStats) sim.Cycles {
	if core >= len(ts.pool) {
		return m.Machine.Lat.L1
	}
	cyc, _, _ := m.lineAccess(&ts.pool[core], core, true, -1)
	return cyc
}

func (m *Model) remotePenalty(from, to int) sim.Cycles {
	if m.Machine.SameChip(from, to) {
		return m.Machine.Lat.L3
	}
	return m.Machine.Lat.RemoteL3
}

// lineAccess performs the coherence transition for one line access and
// returns (cycles, missedPrivate, sharedLine). home is the chip holding
// the line's backing DRAM, or -1 for "local to accessor".
func (m *Model) lineAccess(l *Line, core int, write bool, homeChip int) (sim.Cycles, bool, bool) {
	lat := &m.Machine.Lat
	var cost sim.Cycles
	miss := false

	switch {
	case int(l.last) == core && (l.sharers.has(core) || l.last == l.owner):
		// Same core touched this line last. With finite caches the line
		// has been evicted by intervening work and refills from local
		// memory; with infinite caches it is an L1 hit.
		if m.EvictHits {
			cost = lat.RAM + m.dramDelay(m.Machine.Chip(core), m.IssueNow)
			miss = true
		} else {
			cost = lat.L1
		}
	case l.sharers.has(core) && (!l.dirty || int(l.owner) == core):
		// Valid copy in this core's private cache, a bit colder.
		if m.EvictHits {
			cost = lat.RAM + m.dramDelay(m.Machine.Chip(core), m.IssueNow)
			miss = true
		} else {
			cost = lat.L2
		}
	default:
		miss = true
		switch {
		case l.dirty && l.owner >= 0 && int(l.owner) != core:
			// Modified in another core's cache: cache-to-cache transfer.
			if m.Machine.SameChip(core, int(l.owner)) {
				cost = lat.L3
			} else {
				cost = lat.RemoteL3
			}
		case l.last >= 0 && m.chipHasSharer(l, core):
			// Clean copy somewhere on this chip: serve from shared L3.
			cost = lat.L3
		default:
			// Serve from DRAM at the line's home node, queueing on that
			// node's memory controller.
			home := homeChip
			if home < 0 {
				home = m.Machine.Chip(core)
			}
			if home == m.Machine.Chip(core) {
				cost = lat.RAM
			} else {
				cost = lat.RemoteRAM
			}
			cost += m.dramDelay(home, m.IssueNow)
		}
	}

	if l.last >= 0 && int(l.last) != core {
		l.shared = true
	}
	if write {
		// Invalidate all other copies; this core becomes exclusive owner.
		l.sharers.clear()
		l.sharers.set(core)
		l.owner = int16(core)
		l.dirty = true
	} else {
		l.sharers.set(core)
	}
	l.last = int16(core)
	return cost, miss, l.shared
}

func (m *Model) chipHasSharer(l *Line, core int) bool {
	chip := m.Machine.Chip(core)
	lo := chip * m.Machine.CoresPerChip
	hi := lo + m.Machine.CoresPerChip
	return l.sharers.anyInRange(lo, hi)
}

// Access touches one field of an object from a core and returns the cost.
func (m *Model) Access(core int, o *Object, f FieldID, write bool) AccessResult {
	return m.access(core, o, f, write, false)
}

// ColdMisses charges n capacity misses from the core's local DRAM: the
// working-set accesses (request buffers, application heap, log and
// stat structures) that fall out of real, finite caches between
// requests. The coherence directory models infinite caches, so without
// this the simulator would undercount misses by the large factor the
// paper's Table 3 counters reveal.
func (m *Model) ColdMisses(core, n int) AccessResult {
	if n <= 0 {
		return AccessResult{}
	}
	chip := m.Machine.Chip(core)
	issue := m.IssueNow
	var total sim.Cycles
	for i := 0; i < n; i++ {
		step := m.Machine.Lat.RAM + m.dramDelay(chip, issue)
		total += step
		issue += step
	}
	return AccessResult{Cycles: total, Miss: true}
}

// AccessInit performs initialization writes: the coherence transitions
// and costs of a write, without registering the core as a sharing writer
// (DProf does not count the allocator populating a fresh object).
func (m *Model) AccessInit(core int, o *Object, f FieldID) AccessResult {
	return m.access(core, o, f, true, true)
}

func (m *Model) access(core int, o *Object, f FieldID, write, init bool) AccessResult {
	t := o.Type
	homeChip := m.Machine.Chip(int(o.AllocCore))
	ts := m.statsOf(t)
	var res AccessResult
	watched := len(ts.watch) > 0 && ts.watch[f]
	for li := t.firstLine[f]; li <= t.lastLine[f]; li++ {
		l := &o.lines[li]
		cyc, miss, shared := m.lineAccess(l, core, write, homeChip)
		res.Cycles += cyc
		res.Miss = res.Miss || miss
		res.Shared = res.Shared || shared
		ts.accesses++
		if shared {
			ts.sharedCycles += uint64(cyc)
			if m.Profiling {
				ts.latencies.Observe(float64(cyc))
			}
		}
		if watched {
			ts.watchedCycles += uint64(cyc)
			if ts.watchLat != nil {
				ts.watchLat.Observe(float64(cyc))
			}
		}
	}
	if m.Profiling && o.prof != nil && !init {
		if write {
			o.prof.writers[f].set(core)
		}
		o.prof.readers[f].set(core)
	}
	return res
}

// AccessRepeat models n back-to-back touches of the same field from the
// same core: the first access pays the full coherence cost, the rest hit
// L1. It exists because Linux touches hot socket fields many times per
// packet; simulating each touch through the directory would be wasted
// work once the line is local.
func (m *Model) AccessRepeat(core int, o *Object, f FieldID, write bool, n int) AccessResult {
	if n <= 0 {
		return AccessResult{}
	}
	res := m.access(core, o, f, write, false)
	if n > 1 {
		extra := sim.Cycles(uint64(n-1)) * m.Machine.Lat.L1
		res.Cycles += extra
		ts := m.statsOf(o.Type)
		ts.accesses += uint64(n - 1)
		if res.Shared {
			ts.sharedCycles += uint64(extra)
		}
	}
	return res
}

// WatchFields arms watched-access accounting for the given fields of a
// type (used to measure, under Affinity-Accept, the cost of accessing
// the bytes that Fine-Accept shared).
func (m *Model) WatchFields(t *TypeInfo, fields []FieldID) {
	ts := m.statsOf(t)
	ts.watch = make([]bool, len(t.Fields))
	for _, f := range fields {
		ts.watch[f] = true
	}
	ts.watchLat = NewLatencyHistogram()
}

// SharedFields reports, per type, the fields that were observed with
// more than one reader (requires Profiling; call after the run).
func (m *Model) SharedFields() map[*TypeInfo][]FieldID {
	out := make(map[*TypeInfo][]FieldID)
	for _, ts := range m.types {
		if ts == nil {
			continue
		}
		for fi, shared := range ts.fieldMultiReader {
			if shared {
				out[ts.info] = append(out[ts.info], FieldID(fi))
			}
		}
	}
	return out
}

// WatchedCycles reports accumulated watched-access cycles for a type.
func (m *Model) WatchedCycles(t *TypeInfo) uint64 {
	return m.statsOf(t).watchedCycles
}

// WatchedLatencies merges watched-access latency histograms of the named
// types (or all types when none are named).
func (m *Model) WatchedLatencies(names ...string) *Histogram {
	h := NewLatencyHistogram()
	for _, ts := range m.types {
		if ts != nil && ts.watchLat != nil && (len(names) == 0 || slices.Contains(names, ts.info.Name)) {
			h.Merge(ts.watchLat)
		}
	}
	return h
}

// harvest folds a dying object's sharing state into its type statistics.
func (m *Model) harvest(ts *typeStats, o *Object) {
	for i := range o.lines {
		if o.lines[i].shared {
			ts.linesShared++
		}
	}
	if o.prof != nil {
		t := o.Type
		if ts.fieldMultiReader == nil {
			ts.fieldMultiReader = make([]bool, len(t.Fields))
		}
		// Byte accounting: a field's bytes are shared when more than one
		// core accessed the field; shared RW when additionally some core
		// wrote it after initialization.
		for fi, f := range t.Fields {
			readers := o.prof.readers[fi]
			writers := o.prof.writers[fi]
			if readers.count() > 1 {
				ts.bytesShared += uint64(f.Len)
				ts.fieldMultiReader[fi] = true
				if writers.count() > 0 {
					ts.bytesSharedRW += uint64(f.Len)
				}
			}
		}
	}
}

// HarvestLive folds still-allocated objects into statistics at the end of
// a run (connections still open when measurement stops).
func (m *Model) HarvestLive(objs []*Object) {
	for _, o := range objs {
		m.harvest(m.statsOf(o.Type), o)
	}
}

// TypeReport is one row of the paper's Table 4.
type TypeReport struct {
	Name             string
	Size             int
	PctLinesShared   float64
	PctBytesShared   float64
	PctBytesSharedRW float64
	// SharedCycles is the total cycle cost of accesses to shared lines;
	// the experiment divides by HTTP request count for the table's last
	// column.
	SharedCycles uint64
	Accesses     uint64
	Objects      uint64
	// Latencies holds shared-access latency samples (Figure 4).
	Latencies *Histogram
}

// Report produces DProf rows for all tracked types, sorted by shared
// cycles descending (the paper's presentation order).
func (m *Model) Report() []TypeReport {
	var rows []TypeReport
	for _, ts := range m.types {
		if ts == nil {
			continue
		}
		r := TypeReport{
			Name:         ts.info.Name,
			Size:         ts.info.Size,
			SharedCycles: ts.sharedCycles,
			Accesses:     ts.accesses,
			Objects:      ts.objects,
			Latencies:    ts.latencies,
		}
		if ts.linesTotal > 0 {
			r.PctLinesShared = 100 * float64(ts.linesShared) / float64(ts.linesTotal)
		}
		if ts.bytesTotal > 0 {
			r.PctBytesShared = 100 * float64(ts.bytesShared) / float64(ts.bytesTotal)
			r.PctBytesSharedRW = 100 * float64(ts.bytesSharedRW) / float64(ts.bytesTotal)
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SharedCycles > rows[j].SharedCycles })
	return rows
}

// SharedLatencies merges the shared-access latency histograms of the
// given type names (Figure 4 plots the union of the top shared types).
func (m *Model) SharedLatencies(names ...string) *Histogram {
	h := NewLatencyHistogram()
	for _, ts := range m.types {
		if ts != nil && (len(names) == 0 || slices.Contains(names, ts.info.Name)) {
			h.Merge(ts.latencies)
		}
	}
	return h
}
