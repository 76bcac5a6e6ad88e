package core

import (
	"fmt"
	"time"
)

// DefaultFlowGroups is the paper's flow-group count: the NIC hashes the
// low 12 bits of the source port, yielding 4,096 groups (§3.1).
const DefaultFlowGroups = 4096

// DefaultMigrateInterval is how often each non-busy core considers
// migrating one flow group to itself (§3.3.2).
const DefaultMigrateInterval = 100 * time.Millisecond

// FlowTable maps flow groups to cores, mirroring the FDir hash table the
// kernel programs into the NIC. Migrating a group re-points one entry.
type FlowTable struct {
	groupOf []int32  // group -> core
	load    []uint64 // group -> recent routing activity (decayed each tick)
	nCores  int
	mask    uint32

	// Migrations counts applied flow-group migrations.
	Migrations uint64
}

// InitialOwner is the core a group is steered to before any migration:
// a diagonal (latin-square) spread that is exactly balanced like
// round-robin but decorrelated from the group number's low bits. Plain
// `group % cores` would alias the client's source-port parity onto the
// core choice (Linux hands connect() odd ephemeral ports, so with an
// even core count every client would land on an odd core); offsetting
// each block of `cores` groups by one breaks that resonance.
func InitialOwner(group, cores int) int {
	return (group + group/cores) % cores
}

// NewFlowTable builds a table of nGroups groups (rounded up to a power
// of two) spread evenly over cores, as the driver initializes FDir.
func NewFlowTable(nGroups, cores int) *FlowTable {
	if cores <= 0 {
		panic("core: FlowTable needs at least one core")
	}
	size := 1
	for size < nGroups {
		size <<= 1
	}
	t := &FlowTable{
		groupOf: make([]int32, size),
		load:    make([]uint64, size),
		nCores:  cores,
		mask:    uint32(size - 1),
	}
	for g := range t.groupOf {
		t.groupOf[g] = int32(InitialOwner(g, cores))
	}
	return t
}

// Groups reports the number of flow groups.
func (t *FlowTable) Groups() int { return len(t.groupOf) }

// GroupOf maps a source port to its flow group: the low bits of the
// source port, per §3.1.
func (t *FlowTable) GroupOf(srcPort uint16) int {
	return int(uint32(srcPort) & t.mask)
}

// CoreOf reports which core (RX DMA ring) a group is steered to.
func (t *FlowTable) CoreOf(group int) int { return int(t.groupOf[group]) }

// CoreForPort composes GroupOf and CoreOf.
func (t *FlowTable) CoreForPort(srcPort uint16) int {
	return t.CoreOf(t.GroupOf(srcPort))
}

// Migrate re-points one flow group to a new core.
func (t *FlowTable) Migrate(group, toCore int) {
	if toCore < 0 || toCore >= t.nCores {
		panic(fmt.Sprintf("core: migrate to invalid core %d", toCore))
	}
	if int(t.groupOf[group]) != toCore {
		t.groupOf[group] = int32(toCore)
		t.Migrations++
	}
}

// GroupCount reports how many groups are currently steered to each core.
func (t *FlowTable) GroupCount() []int {
	counts := make([]int, t.nCores)
	for _, c := range t.groupOf {
		counts[c]++
	}
	return counts
}

// ObserveLoad charges n units of routing activity to a group. Real
// servers call it once per connection routed through the group, so the
// migration policy can move the *hottest* group rather than an
// arbitrary one.
func (t *FlowTable) ObserveLoad(group int, n uint64) { t.load[group] += n }

// LoadOf reports a group's accumulated (decayed) routing activity.
func (t *FlowTable) LoadOf(group int) uint64 { return t.load[group] }

// hottestGroupOn returns the victim's group with the highest recent
// load, or -1 when the victim owns none. With no load data (the
// simulator never observes load) every group ties at zero and the
// lowest-numbered group wins, matching the original arbitrary pick.
// The optional groupOK veto excludes groups (the adaptive controller's
// oscillation freeze); a vetoed group is skipped, not counted.
func (t *FlowTable) hottestGroupOn(core int, groupOK func(group int) bool) int {
	best, bestLoad := -1, uint64(0)
	for g, c := range t.groupOf {
		if int(c) != core {
			continue
		}
		if groupOK != nil && !groupOK(g) {
			continue
		}
		if best < 0 || t.load[g] > bestLoad {
			best, bestLoad = g, t.load[g]
		}
	}
	return best
}

// decayLoads halves every group's activity counter, so hotness reflects
// the recent balancing intervals rather than all time.
func (t *FlowTable) decayLoads() {
	for g := range t.load {
		t.load[g] >>= 1
	}
}

// PickMigration implements the §3.3.2 policy for one non-busy core at
// the end of a balancing interval: choose the victim core from which
// `core` stole the most connections, and select the victim's hottest
// flow group to migrate to `core`. It returns ok=false when the core
// stole nothing, is itself the top victim, or the victim has no groups
// left. Groups for which the optional groupOK veto returns false are
// never selected: the migration controller passes its oscillation-freeze
// set here, so a ping-ponging group sits out its cooldown while the
// victim's other groups remain migratable.
func (t *FlowTable) PickMigration(core int, stolenFrom []uint64, groupOK func(group int) bool) (group, victim int, ok bool) {
	best, bestCount := -1, uint64(0)
	for v, n := range stolenFrom {
		if v == core || n == 0 {
			continue
		}
		if n > bestCount {
			best, bestCount = v, n
		}
	}
	if best < 0 {
		return 0, -1, false
	}
	g := t.hottestGroupOn(best, groupOK)
	if g < 0 {
		return 0, -1, false
	}
	return g, best, true
}

// Migration describes one applied flow-group migration: Group moved
// from core From to core To.
type Migration struct {
	Group, From, To int
}

// Balance runs one full balancing tick: every non-busy core that
// stole connections migrates its top victim's hottest flow group to
// itself, then resets its steal counters; finally all group loads decay.
// It returns the applied migrations. The simulator calls this every
// DefaultMigrateInterval; the serve package calls it from its migration
// goroutine; a kernel deployment would reprogram the NIC's FDir table
// here.
//
// The optional eligible predicate vetoes migration targets beyond the
// busy check: a core whose CPU is consumed by unrelated work has an
// empty accept queue (nothing reaches it) yet must not pull flow groups
// to itself. The optional groupOK predicate vetoes groups: ones for
// which it returns false are never migrated this tick (the migration
// controller's frozen set).
func Balance[T any](t *FlowTable, q *Queues[T], eligible func(core int) bool, groupOK func(group int) bool) []Migration {
	var applied []Migration
	for core := 0; core < q.Cores(); core++ {
		q.maybeClearBusy(core)
		if q.Busy(core) {
			// Busy cores never migrate additional groups to themselves.
			continue
		}
		if eligible != nil && !eligible(core) {
			q.ResetSteals(core)
			continue
		}
		if group, victim, ok := t.PickMigration(core, q.cores[core].stolenFrom, groupOK); ok {
			t.Migrate(group, core)
			applied = append(applied, Migration{Group: group, From: victim, To: core})
		}
		q.ResetSteals(core)
	}
	t.decayLoads()
	return applied
}
