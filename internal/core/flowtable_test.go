package core

import (
	"testing"
	"testing/quick"
)

func TestFlowTableInitialSpread(t *testing.T) {
	ft := NewFlowTable(DefaultFlowGroups, 48)
	counts := ft.GroupCount()
	// 4096 groups over 48 cores: 85 or 86 each.
	for c, n := range counts {
		if n < 85 || n > 86 {
			t.Fatalf("core %d has %d groups", c, n)
		}
	}
	if ft.Groups() != 4096 {
		t.Fatalf("groups = %d", ft.Groups())
	}
}

func TestFlowTableRoundsToPowerOfTwo(t *testing.T) {
	ft := NewFlowTable(100, 4)
	if ft.Groups() != 128 {
		t.Fatalf("groups = %d, want 128", ft.Groups())
	}
}

func TestGroupOfUsesLowPortBits(t *testing.T) {
	ft := NewFlowTable(4096, 8)
	if ft.GroupOf(0x1234) != 0x234 {
		t.Fatalf("group of 0x1234 = %#x, want 0x234", ft.GroupOf(0x1234))
	}
	// Ports differing only above bit 11 land in the same group.
	if ft.GroupOf(0x0042) != ft.GroupOf(0xF042) {
		t.Fatal("high port bits leaked into group")
	}
}

func TestMigrateMovesGroup(t *testing.T) {
	ft := NewFlowTable(16, 4)
	g := 5
	from := ft.CoreOf(g)
	to := (from + 1) % 4
	ft.Migrate(g, to)
	if ft.CoreOf(g) != to {
		t.Fatal("migration did not apply")
	}
	if ft.Migrations() != 1 {
		t.Fatalf("migrations = %d", ft.Migrations())
	}
	// Self-migration is a no-op.
	ft.Migrate(g, to)
	if ft.Migrations() != 1 {
		t.Fatal("no-op migration counted")
	}
}

func TestMigrateInvalidCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFlowTable(16, 4).Migrate(0, 9)
}

func TestPickMigrationChoosesTopVictim(t *testing.T) {
	ft := NewFlowTable(16, 4)
	stolen := []uint64{0, 3, 7, 1} // core 2 is the top victim
	g, victim, ok := ft.pickMigration(0, stolen, nil)
	if !ok || victim != 2 {
		t.Fatalf("victim = %d ok=%v, want 2", victim, ok)
	}
	if ft.CoreOf(g) != 2 {
		t.Fatal("picked group not owned by victim")
	}
}

func TestPickMigrationIgnoresSelfAndZero(t *testing.T) {
	ft := NewFlowTable(16, 4)
	if _, _, ok := ft.pickMigration(0, []uint64{100, 0, 0, 0}, nil); ok {
		t.Fatal("migrated based on self-steals")
	}
	if _, _, ok := ft.pickMigration(0, []uint64{0, 0, 0, 0}, nil); ok {
		t.Fatal("migrated with no steals")
	}
}

func TestPickMigrationVictimOutOfGroups(t *testing.T) {
	ft := NewFlowTable(4, 4)
	// Strip core 3 of all groups.
	for g := 0; g < ft.Groups(); g++ {
		if ft.CoreOf(g) == 3 {
			ft.Migrate(g, 0)
		}
	}
	if _, _, ok := ft.pickMigration(1, []uint64{0, 0, 0, 9}, nil); ok {
		t.Fatal("migration picked from a core with no groups")
	}
}

func TestInitialOwnerBalancedAndParitySafe(t *testing.T) {
	// Exactly balanced: every core owns the same number of groups ±1.
	for _, cores := range []int{2, 4, 7, 48} {
		ft := NewFlowTable(4096, cores)
		counts := ft.GroupCount()
		min, max := counts[0], counts[0]
		for _, n := range counts {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("cores=%d: group counts uneven: %v", cores, counts)
		}
	}
	// Parity-safe: Linux gives connect() odd ephemeral ports, so a
	// stride-2 port sequence must still spread over an even core count.
	ft := NewFlowTable(4096, 4)
	counts := make([]int, 4)
	for p := 40001; p < 40001+256; p += 2 {
		counts[ft.CoreForPort(uint16(p))]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("odd-port clients starve core %d: %v", c, counts)
		}
	}
}

func TestPickMigrationPrefersHottestGroup(t *testing.T) {
	ft := NewFlowTable(16, 4)
	victim := 2
	// Two groups on the victim; make the second one hot.
	var groups []int
	for g := 0; g < ft.Groups(); g++ {
		if ft.CoreOf(g) == victim {
			groups = append(groups, g)
		}
	}
	if len(groups) < 2 {
		t.Fatalf("victim owns %d groups, need 2", len(groups))
	}
	ft.Route(uint16(groups[0]), 3)
	ft.Route(uint16(groups[1]), 50)
	g, v, ok := ft.pickMigration(0, []uint64{0, 0, 7, 0}, nil)
	if !ok || v != victim {
		t.Fatalf("victim=%d ok=%v, want %d", v, ok, victim)
	}
	if g != groups[1] {
		t.Fatalf("picked group %d (load %d), want hottest %d (load %d)",
			g, ft.LoadOf(g), groups[1], ft.LoadOf(groups[1]))
	}
}

func TestBalanceDecaysLoads(t *testing.T) {
	ft := NewFlowTable(16, 2)
	q := NewQueues[int](Config{Cores: 2, Backlog: 8})
	ft.Route(3, 8)
	Balance(ft, q, nil, nil)
	if ft.LoadOf(3) != 4 {
		t.Fatalf("load after one tick = %d, want 4 (halved)", ft.LoadOf(3))
	}
}

func TestBalanceMovesGroupsTowardStealers(t *testing.T) {
	ft := NewFlowTable(64, 4)
	q := NewQueues[int](Config{Cores: 4, Backlog: 16, StealRatio: 1})
	// Core 3 busy, core 0 steals from it repeatedly.
	for i := 0; i < 4; i++ {
		q.Push(3, i)
	}
	q.Push(3, 9) // overflow -> busy
	q.Push(0, 7)
	q.Pop(0) // local
	q.Pop(0) // steal
	before := ft.GroupCount()
	n := len(Balance(ft, q, nil, nil))
	after := ft.GroupCount()
	if n != 1 {
		t.Fatalf("balance applied %d migrations, want 1", n)
	}
	if after[0] != before[0]+1 || after[3] != before[3]-1 {
		t.Fatalf("groups did not move 3->0: before=%v after=%v", before, after)
	}
	// Steal counters were reset, so an immediate second tick is a no-op.
	if len(Balance(ft, q, nil, nil)) != 0 {
		t.Fatal("second balance tick migrated without new steals")
	}
}

func TestBalanceSkipsBusyCores(t *testing.T) {
	ft := NewFlowTable(64, 2)
	q := NewQueues[int](Config{Cores: 2, Backlog: 4, StealRatio: 1})
	// Both cores busy.
	for c := 0; c < 2; c++ {
		q.Push(c, 1)
		q.Push(c, 2)
		q.Push(c, 3) // overflow -> busy
	}
	// Even with synthetic steal counts, busy cores must not migrate.
	q.cores[0].stolenFrom[1] = 5
	if n := len(Balance(ft, q, nil, nil)); n != 0 {
		t.Fatalf("busy core migrated %d groups", n)
	}
}

// Property: migrations conserve groups — every group is always mapped to
// exactly one valid core.
func TestFlowTableConservationProperty(t *testing.T) {
	f := func(moves []uint16) bool {
		const cores = 6
		ft := NewFlowTable(64, cores)
		for _, mv := range moves {
			g := int(mv) % ft.Groups()
			to := int(mv>>8) % cores
			ft.Migrate(g, to)
		}
		counts := ft.GroupCount()
		total := 0
		for _, n := range counts {
			if n < 0 {
				return false
			}
			total += n
		}
		return total == ft.Groups()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyHashStableAndDirectional(t *testing.T) {
	k := FlowKey{Proto: 6, SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 12345, DstPort: 80}
	if k.Hash() != k.Hash() {
		t.Fatal("hash not deterministic")
	}
	k2 := k
	k2.SrcPort++
	if k.Hash() == k2.Hash() {
		t.Fatal("adjacent ports collided (suspicious for FNV)")
	}
	rev := k.Reverse()
	if rev.SrcPort != 80 || rev.DstPort != 12345 || rev.SrcIP != k.DstIP {
		t.Fatal("reverse wrong")
	}
	if rev.Reverse() != k {
		t.Fatal("double reverse not identity")
	}
}

// Property: hash distributes source ports over cores roughly evenly via
// the flow-group table.
func TestPortDistributionRoughlyEven(t *testing.T) {
	ft := NewFlowTable(4096, 48)
	counts := make([]int, 48)
	for p := 0; p < 65536; p++ {
		counts[ft.CoreForPort(uint16(p))]++
	}
	for c, n := range counts {
		if n < 1200 || n > 1500 { // ideal 1365
			t.Fatalf("core %d got %d ports", c, n)
		}
	}
}
