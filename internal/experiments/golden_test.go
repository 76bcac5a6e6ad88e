package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

const goldenPath = "testdata/sim_golden.txt"

// goldenRuns renders one short fixed-seed run per listen design: the
// counters the run exposes, the NIC's, and the DProf rows by type name.
// The simulator is deterministic, so any change to what it dispatches,
// or in what order, shows up here.
func goldenRuns() string {
	var b strings.Builder
	for _, kind := range threeKinds {
		r := Run(RunConfig{
			Cores:        4,
			Listen:       kind,
			Server:       Apache,
			ConnsPerCore: 16,
			ThinkMS:      -1,
			WarmupS:      0.05,
			MeasureS:     0.1,
			Profiling:    true,
			Seed:         7,
		})
		s := r.Stack
		fmt.Fprintf(&b, "== %v\n", kind)
		fmt.Fprintf(&b, "events %d requests %d req/s %v idle %v\n",
			s.Eng.Events(), r.Requests, r.ReqPerSec, r.IdleFrac)
		fmt.Fprintf(&b, "stack %+v\n", s.Stats)
		fmt.Fprintf(&b, "nic %+v\n", s.NIC.Stats)
		fmt.Fprintf(&b, "mem allocs %d frees %d remote %d ctl %d\n",
			s.Mem.Allocs, s.Mem.Frees, s.Mem.RemoteFrees, s.Mem.CtlDelays)
		rows := s.Mem.Report()
		sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
		for _, row := range rows {
			fmt.Fprintf(&b, "type %s objects %d accesses %d shared %d lines %v bytes %v rw %v samples %d\n",
				row.Name, row.Objects, row.Accesses, row.SharedCycles,
				row.PctLinesShared, row.PctBytesShared, row.PctBytesSharedRW,
				row.Latencies.Count())
		}
	}
	return b.String()
}

// TestSimulatorGolden compares the runs above with the recorded output.
// A change meant to keep the model's behaviour must pass it unchanged;
// one that changes the model on purpose rewrites the file from
// goldenRuns and says why.
func TestSimulatorGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on linux/amd64; Go may fuse multiply-adds elsewhere (arm64), so float-derived timings can legitimately differ")
	}
	t.Parallel()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRuns()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", goldenPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", goldenPath, len(g), len(w))
}
