package perfctr

import "testing"

func TestEntryNames(t *testing.T) {
	if SoftirqNetRX.String() != "softirq_net_rx" {
		t.Fatal("softirq name wrong")
	}
	if SysAccept4.String() != "sys_accept4" {
		t.Fatal("accept name wrong")
	}
	if Entry(99).String() != "entry(99)" {
		t.Fatal("out-of-range name wrong")
	}
	if len(Entries()) != int(numEntries) {
		t.Fatal("entry list wrong length")
	}
}

func TestAccumulationAndPerRequest(t *testing.T) {
	s := NewSet()
	s.Add(SysRead, 1000, 50)
	s.Add(SysRead, 2000, 100)
	s.AddMiss(SysRead)
	s.AddMiss(SysRead)
	s.AddCall(SysRead)

	got := s.Get(SysRead)
	if got.Cycles != 3000 || got.Instructions != 150 || got.L2Misses != 2 || got.Calls != 1 {
		t.Fatalf("counters: %+v", got)
	}
	per := s.PerRequest(2)
	if per[SysRead].Cycles != 1500 || per[SysRead].L2Misses != 1 {
		t.Fatalf("per-request: %+v", per[SysRead])
	}
	if s.TotalCycles() != 3000 {
		t.Fatalf("total = %d", s.TotalCycles())
	}
}

func TestPerRequestZeroRequests(t *testing.T) {
	s := NewSet()
	s.Add(SysRead, 100, 1)
	if len(s.PerRequest(0)) != 0 {
		t.Fatal("zero requests should return empty map")
	}
}

func TestBuildTable3SortsAndDiffs(t *testing.T) {
	fine, aff := NewSet(), NewSet()
	fine.Add(SoftirqNetRX, 9700, 330)
	fine.AddMiss(SoftirqNetRX)
	aff.Add(SoftirqNetRX, 6900, 340)
	fine.Add(SysRead, 1700, 40)
	aff.Add(SysRead, 1000, 40)

	rows := BuildTable3(fine, aff, 1, 1)
	if rows[0].Entry != SoftirqNetRX {
		t.Fatal("rows not sorted by fine cycles")
	}
	if rows[0].DeltaCycles() != 2800 {
		t.Fatalf("delta = %d", rows[0].DeltaCycles())
	}
	if rows[0].DeltaInstructions() != -10 {
		t.Fatalf("instr delta = %d", rows[0].DeltaInstructions())
	}
	if rows[0].DeltaL2() != 1 {
		t.Fatalf("l2 delta = %d", rows[0].DeltaL2())
	}
}
