package mem

import (
	"testing"
	"testing/quick"
)

var testType = NewType("test_sock", 256,
	Field{Name: "rx", Off: 0, Len: 64},
	Field{Name: "tx", Off: 64, Len: 64},
	Field{Name: "meta", Off: 128, Len: 16},
	Field{Name: "wide", Off: 120, Len: 80}, // straddles two lines
)

func TestMachinePresetsMatchTable1(t *testing.T) {
	amd := AMD48()
	if amd.Cores() != 48 || amd.Chips != 8 || amd.CoresPerChip != 6 {
		t.Fatal("AMD topology wrong")
	}
	if amd.Lat.L1 != 3 || amd.Lat.L2 != 14 || amd.Lat.L3 != 28 ||
		amd.Lat.RAM != 120 || amd.Lat.RemoteL3 != 460 || amd.Lat.RemoteRAM != 500 {
		t.Fatal("AMD latencies do not match Table 1")
	}
	intel := Intel80()
	if intel.Cores() != 80 {
		t.Fatal("Intel core count wrong")
	}
	if intel.Lat.L1 != 4 || intel.Lat.L2 != 12 || intel.Lat.L3 != 24 ||
		intel.Lat.RAM != 90 || intel.Lat.RemoteL3 != 200 || intel.Lat.RemoteRAM != 280 {
		t.Fatal("Intel latencies do not match Table 1")
	}
}

func TestSameChip(t *testing.T) {
	m := AMD48()
	if !m.SameChip(0, 5) || m.SameChip(5, 6) || !m.SameChip(42, 47) {
		t.Fatal("chip adjacency wrong")
	}
}

func TestWithCores(t *testing.T) {
	m := AMD48().WithCores(12)
	if m.Chips != 2 || m.Cores() != 12 {
		t.Fatalf("WithCores(12): %d chips, %d cores", m.Chips, m.Cores())
	}
	if got := AMD48().WithCores(100).Cores(); got != 48 {
		t.Fatalf("WithCores beyond machine grew it: %d", got)
	}
	if got := AMD48().WithCores(7).Cores(); got != 12 {
		// Rounds up to whole chips.
		t.Fatalf("WithCores(7) = %d cores, want 12", got)
	}
}

func TestTypeLineSpans(t *testing.T) {
	if testType.Lines() != 4 {
		t.Fatalf("lines = %d, want 4", testType.Lines())
	}
	id, ok := testType.FieldByName("wide")
	if !ok {
		t.Fatal("field lookup failed")
	}
	if testType.firstLine[id] != 1 || testType.lastLine[id] != 3 {
		t.Fatalf("wide spans lines %d..%d, want 1..3",
			testType.firstLine[id], testType.lastLine[id])
	}
}

func TestTypeFieldOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewType("bad", 64, Field{Name: "f", Off: 60, Len: 10})
}

func fieldID(t *testing.T, name string) FieldID {
	t.Helper()
	id, ok := testType.FieldByName(name)
	if !ok {
		t.Fatalf("no field %s", name)
	}
	return id
}

func TestLocalAccessPattern(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	rx := fieldID(t, "rx")

	// First touch: DRAM (local home).
	r := m.Access(0, o, rx, true)
	if r.Cycles != m.Machine.Lat.RAM || !r.Miss {
		t.Fatalf("cold write cost %d miss=%v, want RAM %d miss",
			r.Cycles, r.Miss, m.Machine.Lat.RAM)
	}
	// Re-touch on same core: L1, no miss, never shared.
	r = m.Access(0, o, rx, false)
	if r.Cycles != m.Machine.Lat.L1 || r.Miss || r.Shared {
		t.Fatalf("hot read: %+v", r)
	}
}

func TestCrossCoreDirtyTransfer(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	rx := fieldID(t, "rx")

	m.Access(0, o, rx, true) // dirty on core 0
	// Core 1 (same chip) reads: dirty cache-to-cache on chip = L3.
	r := m.Access(1, o, rx, false)
	if r.Cycles != m.Machine.Lat.L3 || !r.Miss || !r.Shared {
		t.Fatalf("same-chip dirty read: %+v, want L3 %d", r, m.Machine.Lat.L3)
	}
	// Re-dirty on 0, then core 6 (remote chip) reads: RemoteL3.
	m.Access(0, o, rx, true)
	r = m.Access(6, o, rx, false)
	if r.Cycles != m.Machine.Lat.RemoteL3 {
		t.Fatalf("remote dirty read cost %d, want RemoteL3 %d",
			r.Cycles, m.Machine.Lat.RemoteL3)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	rx := fieldID(t, "rx")

	m.Access(0, o, rx, true)
	m.Access(1, o, rx, false) // core 1 now shares
	m.Access(0, o, rx, true)  // write invalidates core 1
	r := m.Access(1, o, rx, false)
	if !r.Miss {
		t.Fatal("core 1 should miss after invalidation")
	}
}

func TestCleanSharedServedFromChipL3(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	meta := fieldID(t, "meta")

	m.Access(0, o, meta, false) // clean copy on chip 0
	r := m.Access(1, o, meta, false)
	if r.Cycles != m.Machine.Lat.L3 {
		t.Fatalf("clean on-chip read cost %d, want L3", r.Cycles)
	}
	// Remote chip with no copy: home DRAM is chip 0, remote to core 6.
	r = m.Access(12, o, meta, false)
	if r.Cycles != m.Machine.Lat.RemoteRAM {
		t.Fatalf("remote clean read cost %d, want RemoteRAM %d",
			r.Cycles, m.Machine.Lat.RemoteRAM)
	}
}

func TestRemoteHomeDRAM(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(47, testType) // home chip 7
	rx := fieldID(t, "rx")
	r := m.Access(0, o, rx, false)
	if r.Cycles != m.Machine.Lat.RemoteRAM {
		t.Fatalf("cold read of remote-home line cost %d, want RemoteRAM", r.Cycles)
	}
}

func TestWideFieldChargesPerLine(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	wide := fieldID(t, "wide")
	r := m.Access(0, o, wide, true)
	// wide spans 3 lines; all cold -> 3x RAM.
	if r.Cycles != 3*m.Machine.Lat.RAM {
		t.Fatalf("wide access cost %d, want %d", r.Cycles, 3*m.Machine.Lat.RAM)
	}
}

func TestRemoteFreePenalty(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	m.Access(0, o, fieldID(t, "rx"), true)
	costLocal := m.Free(0, o)

	o2, _ := m.Alloc(0, testType)
	m.Access(0, o2, fieldID(t, "rx"), true)
	costRemote := m.Free(12, o2) // cross-chip free
	if costRemote <= costLocal {
		t.Fatalf("remote free (%d) not more expensive than local (%d)",
			costRemote, costLocal)
	}
	if m.RemoteFrees != 1 {
		t.Fatalf("RemoteFrees = %d", m.RemoteFrees)
	}
}

func TestFreelistRecyclesAndResets(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	m.Access(3, o, fieldID(t, "rx"), true)
	m.Free(0, o)
	o2, _ := m.Alloc(1, testType)
	if o2 != o {
		t.Fatal("freelist did not recycle the object")
	}
	r := m.Access(1, o2, fieldID(t, "rx"), false)
	if r.Shared {
		t.Fatal("recycled object kept stale sharing state")
	}
	if o2.AllocCore != 1 {
		t.Fatal("alloc core not reset")
	}
}

func TestDProfSharingReport(t *testing.T) {
	m := NewModel(AMD48())
	m.Profiling = true
	rx, tx := fieldID(t, "rx"), fieldID(t, "tx")

	// Object A: single-core use (affinity behaviour).
	a, _ := m.Alloc(0, testType)
	m.Access(0, a, rx, true)
	m.Access(0, a, tx, true)
	m.Free(0, a)

	// Object B: softirq on core 1 writes rx, app on core 7 reads rx and
	// writes tx (fine-accept behaviour).
	b, _ := m.Alloc(1, testType)
	m.Access(1, b, rx, true)
	m.Access(7, b, rx, false)
	m.Access(7, b, tx, true)
	m.Access(1, b, tx, false)
	m.Free(7, b)

	rows := m.Report()
	var row *TypeReport
	for i := range rows {
		if rows[i].Name == "test_sock" {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatal("no report row for test_sock")
	}
	// Object B had rx+tx lines shared (2 of 4); object A none: 2/8 lines.
	if row.PctLinesShared != 25 {
		t.Fatalf("lines shared = %v%%, want 25%%", row.PctLinesShared)
	}
	// Bytes: B shares rx (64) and tx (64) of 2*256 total = 25%.
	if row.PctBytesShared != 25 {
		t.Fatalf("bytes shared = %v%%, want 25%%", row.PctBytesShared)
	}
	// Both shared fields were written by someone: RW == shared here.
	if row.PctBytesSharedRW != 25 {
		t.Fatalf("bytes shared RW = %v%%, want 25%%", row.PctBytesSharedRW)
	}
	if row.SharedCycles == 0 {
		t.Fatal("no shared cycles recorded")
	}
	if row.Latencies.Count() == 0 {
		t.Fatal("no latency samples for Figure 4")
	}
}

func TestHarvestLive(t *testing.T) {
	m := NewModel(AMD48())
	o, _ := m.Alloc(0, testType)
	m.Access(0, o, fieldID(t, "rx"), true)
	m.Access(1, o, fieldID(t, "rx"), false)
	m.HarvestLive([]*Object{o})
	rows := m.Report()
	if len(rows) == 0 || rows[0].PctLinesShared == 0 {
		t.Fatal("live harvest did not record sharing")
	}
}

func TestSharedLatenciesFilter(t *testing.T) {
	m := NewModel(AMD48())
	m.Profiling = true
	o, _ := m.Alloc(0, testType)
	m.Access(0, o, fieldID(t, "rx"), true)
	m.Access(1, o, fieldID(t, "rx"), false)
	if m.SharedLatencies("test_sock").Count() == 0 {
		t.Fatal("filtered latencies empty")
	}
	if m.SharedLatencies("absent_type").Count() != 0 {
		t.Fatal("filter matched wrong type")
	}
	if m.SharedLatencies().Count() == 0 {
		t.Fatal("unfiltered latencies empty")
	}
}

// Property: access cost is always one of the hierarchy latencies per line,
// and single-core access streams never mark lines shared.
func TestSingleCoreNeverShares(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewModel(AMD48())
		o, _ := m.Alloc(3, testType)
		for _, w := range ops {
			r := m.Access(3, o, FieldID(0), w)
			if r.Shared {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: costs are bounded by the extreme hierarchy latencies.
func TestAccessCostBounds(t *testing.T) {
	mach := AMD48()
	f := func(cores []uint8, writes []bool) bool {
		m := NewModel(mach)
		o, _ := m.Alloc(0, testType)
		n := len(cores)
		if len(writes) < n {
			n = len(writes)
		}
		for i := 0; i < n; i++ {
			core := int(cores[i]) % mach.Cores()
			r := m.Access(core, o, FieldID(0), writes[i])
			if r.Cycles < mach.Lat.L1 || r.Cycles > mach.Lat.RemoteRAM {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreMaskOps(t *testing.T) {
	var m coreMask
	if m.count() != 0 || !m.onlySelfOrEmpty(3) {
		t.Fatal("empty mask misbehaves")
	}
	m.set(3)
	m.set(70)
	if !m.has(3) || !m.has(70) || m.has(4) {
		t.Fatal("set/has wrong")
	}
	if m.count() != 2 {
		t.Fatalf("count = %d", m.count())
	}
	if m.onlySelfOrEmpty(3) {
		t.Fatal("mask with 2 cores claimed exclusive")
	}
	var solo coreMask
	solo.set(5)
	if !solo.onlySelfOrEmpty(5) || solo.onlySelfOrEmpty(6) {
		t.Fatal("onlySelfOrEmpty wrong")
	}
	if !m.anyInRange(64, 128) || m.anyInRange(8, 16) {
		t.Fatal("anyInRange wrong")
	}
	m.clear()
	if m.count() != 0 {
		t.Fatal("clear failed")
	}
}

// TestReportTiesKeepTypeOrder checks that rows with equal shared cycles
// come out in the order their types were declared, on every run.
func TestReportTiesKeepTypeOrder(t *testing.T) {
	var types []*TypeInfo
	for i := 0; i < 20; i++ {
		types = append(types, NewType(string(rune('a'+i)), 64, Field{Name: "f", Off: 0, Len: 64}))
	}
	m := NewModel(AMD48())
	for i := len(types) - 1; i >= 0; i-- {
		m.Alloc(0, types[i])
	}
	for i, r := range m.Report() {
		if r.SharedCycles != 0 || r.Name != types[i].Name {
			t.Fatalf("row %d is %s with %d shared cycles, want %s with 0", i, r.Name, r.SharedCycles, types[i].Name)
		}
	}
}
