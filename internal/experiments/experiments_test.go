package experiments

import (
	"fmt"
	"strings"
	"testing"

	"affinityaccept/internal/tcp"
)

var quick = Options{Quick: true, Seed: 42}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{"T1", "T2", "T3", "T4", "T5",
		"F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10",
		"LB1", "LB2", "A1", "A2", "A3", "A4", "A5", "X1"}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
		if Describe(id) == "" {
			t.Fatalf("experiment %s has no description", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if _, err := RunByID("nope", quick); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	t.Parallel()
	tab := Table1(quick)
	if len(tab.Rows) != 2 {
		t.Fatal("table 1 should have two machines")
	}
	if tab.Rows[0][1] != "3" || tab.Rows[0][6] != "500" {
		t.Fatalf("AMD row wrong: %v", tab.Rows[0])
	}
	if tab.Rows[1][1] != "4" || tab.Rows[1][6] != "280" {
		t.Fatalf("Intel row wrong: %v", tab.Rows[1])
	}
	if !strings.Contains(tab.Render(), "RemoteL3") {
		t.Fatal("render missing header")
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	t.Parallel()
	tab := Table5(quick)
	if len(tab.Rows) != 4 {
		t.Fatal("table 5 should have four NICs")
	}
	out := tab.Render()
	for _, vendor := range []string{"Intel", "Chelsio", "Solarflare", "Myricom"} {
		if !strings.Contains(out, vendor) {
			t.Fatalf("missing %s", vendor)
		}
	}
	if !strings.Contains(out, "32K") || !strings.Contains(out, "tens of thousands") {
		t.Fatal("steering entries wrong")
	}
}

// TestScalingOrder asserts the paper's headline ordering at the machine's
// full size: Affinity >= Fine > Stock, with Affinity fully local.
func TestScalingOrder(t *testing.T) {
	t.Parallel()
	results := map[tcp.ListenKind]RunResult{}
	for _, kind := range threeKinds {
		results[kind] = Run(RunConfig{
			Cores:  12,
			Listen: kind,
			Server: Apache,
			Seed:   42,
		})
	}
	stock := results[tcp.StockAccept].ReqPerSecPerCore
	fine := results[tcp.FineAccept].ReqPerSecPerCore
	aff := results[tcp.AffinityAccept].ReqPerSecPerCore
	if !(aff > fine && fine > stock) {
		t.Fatalf("ordering violated: stock=%.0f fine=%.0f affinity=%.0f", stock, fine, aff)
	}
	st := results[tcp.AffinityAccept].Stack.Stats
	if local := float64(st.RequestsLocal) / float64(st.Requests); local < 0.99 {
		t.Fatalf("affinity locality %.2f, want ~1.0", local)
	}
	st = results[tcp.FineAccept].Stack.Stats
	if local := float64(st.RequestsLocal) / float64(st.Requests); local > 0.2 {
		t.Fatalf("fine locality %.2f, want ~1/cores", local)
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	tab := Table2(quick)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Stock's lock columns dominate; the partitioned designs' don't.
	out := tab.Render()
	if !strings.Contains(out, "Stock-Accept") || !strings.Contains(out, "Affinity-Accept") {
		t.Fatal("rows missing")
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	tab := Table3(quick)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table 3")
	}
	if tab.Rows[0][0] != "softirq_net_rx" {
		t.Fatalf("top row %q, want softirq_net_rx (largest cycles)", tab.Rows[0][0])
	}
}

func TestTable4AndFigure4Shape(t *testing.T) {
	t.Parallel()
	tab := Table4(quick)
	var sockRow []string
	for _, r := range tab.Rows {
		if r[0] == "tcp_sock" {
			sockRow = r
		}
	}
	if sockRow == nil {
		t.Fatal("no tcp_sock row")
	}
	// Fine shares a large fraction of tcp_sock lines; affinity almost none.
	parts := strings.Split(sockRow[2], " / ")
	if len(parts) != 2 {
		t.Fatalf("lines-shared cell: %q", sockRow[2])
	}
	var finePct, affPct float64
	if _, err := fmt.Sscanf(parts[0], "%f", &finePct); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(parts[1], "%f", &affPct); err != nil {
		t.Fatal(err)
	}
	if finePct < 40 {
		t.Fatalf("fine shares %.0f%% of tcp_sock lines, want most", finePct)
	}
	if affPct > finePct/2 {
		t.Fatalf("affinity sharing %.0f%% not collapsed vs fine %.0f%%", affPct, finePct)
	}

	fig := Figure4(quick)
	fl, al := fig.Lines["Fine-Accept"], fig.Lines["Affinity-Accept"]
	if len(fl) == 0 || len(al) == 0 {
		t.Fatal("figure 4 lines missing")
	}
	// High-percentile shared-access latencies collapse under affinity.
	if al[len(al)-1] >= fl[len(fl)-1] {
		t.Fatalf("p99 shared latency: affinity %.0f >= fine %.0f", al[len(al)-1], fl[len(fl)-1])
	}
}

func TestAblationRequestTableWithinFewPercent(t *testing.T) {
	t.Parallel()
	tab := AblationRequestTable(quick)
	if len(tab.Rows) != 2 {
		t.Fatal("rows")
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "%") {
		t.Fatal("missing delta note")
	}
}

// TestExtensionRFSOrdering: software RFS restores locality but costs
// routing CPU, so it should land between stock and affinity at scale.
func TestExtensionRFSOrdering(t *testing.T) {
	t.Parallel()
	tab := ExtensionRFS(quick)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	var stockT, rfsT, affT float64
	fmt.Sscanf(tab.Rows[0][1], "%f", &stockT)
	fmt.Sscanf(tab.Rows[1][1], "%f", &rfsT)
	fmt.Sscanf(tab.Rows[3][1], "%f", &affT)
	if !(rfsT > stockT) {
		t.Fatalf("RFS (%.0f) should beat stock (%.0f): locality restored", rfsT, stockT)
	}
	if !(affT > rfsT) {
		t.Fatalf("affinity (%.0f) should beat RFS (%.0f): no routing tax", affT, rfsT)
	}
	// RFS actually routed packets and made processing local.
	if tab.Rows[1][3] == "0" {
		t.Fatal("RFS routed nothing")
	}
}

func TestAblationApachePinning(t *testing.T) {
	t.Parallel()
	tab := AblationApachePinning(quick)
	if len(tab.Rows) != 2 {
		t.Fatal("rows")
	}
	if tab.Rows[0][2] == tab.Rows[1][2] {
		t.Fatalf("pinned and unpinned locality identical: %v", tab.Rows)
	}
}
