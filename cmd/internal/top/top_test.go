package top

import (
	"strings"
	"testing"
)

// TestWriteGolden pins the exact rendering of the summary and table —
// header/row alignment included — against a scrape wide enough to
// stress every column (11-digit accept counters, 8-digit parked
// populations). The header and row formats share their widths by
// construction; this golden is the tripwire for the next column someone
// adds to one format but not the other.
func TestWriteGolden(t *testing.T) {
	scrape := `# HELP affinity_workers Configured worker (and on Linux, listener) count.
# TYPE affinity_workers gauge
affinity_workers 2
affinity_sharded 1
affinity_flow_groups 512
affinity_served_total{worker="0",queue="local"} 21000000000
affinity_served_total{worker="0",queue="stolen"} 2456789012
affinity_served_total{worker="1",queue="local"} 0
affinity_served_total{worker="1",queue="stolen"} 0
affinity_accepted_total{worker="0"} 12345678901
affinity_accepted_total{worker="1"} 0
affinity_queue_depth{worker="0"} 3
affinity_queue_depth{worker="1"} 4
affinity_worker_busy{worker="0"} 1
affinity_worker_busy{worker="1"} 0
affinity_worker_active{worker="0"} 32
affinity_worker_active{worker="1"} 32
affinity_worker_parked{worker="0"} 12345678
affinity_worker_parked{worker="1"} 0
affinity_worker_groups{worker="0"} 256
affinity_worker_groups{worker="1"} 256
affinity_migrated_in_total{worker="0"} 617
affinity_migrated_in_total{worker="1"} 0
affinity_dropped_total 42
affinity_parked 1000000
affinity_requeued_total 9876543210
affinity_migrations_total 1234
affinity_ratelimited_total 5
affinity_shed_parked_total 6
affinity_budget_rejected_total 7
affinity_accept_retries_total 8
affinity_live_conns 900000
affinity_live_conns_peak 1000000
affinity_conn_budget 1048576
affinity_clock_lag_seconds{worker="0"} 0.049021
affinity_clock_lag_seconds{worker="1"} 0
`
	const want = "" +
		"mode: SO_REUSEPORT per-worker listeners, 512 flow groups\n" +
		"accepted 12345678901  served 23456789012 (89.5% local)  stolen 2456789012  dropped 42  requeued 9876543210  parked 1000000  migrations 1234  queued 7  active 64\n" +
		"admission: ratelimited 5  shed-parked 6  budget-rejected 7  accept-retries 8  live 900000 (peak 1000000 / budget 1048576)\n" +
		"worker    accepted       local      stolen  active  qdepth   parked  groups  migr-in   lag-us  busy\n" +
		"0      12345678901 21000000000  2456789012      32       3 12345678     256      617    49021     *\n" +
		"1                0           0           0      32       4        0     256        0        0      \n"
	var b strings.Builder
	Write(&b, Parse([]byte(scrape)))
	if got := b.String(); got != want {
		t.Errorf("table rendering drifted from the golden:\ngot:\n%s\nwant:\n%s\ngot %q", got, want, got)
	}

	// A bare server (no admission knobs, migration off) renders only the
	// core table.
	bare := "affinity_workers 1\naffinity_flow_groups 8\naffinity_worker_groups{worker=\"0\"} 8\n"
	const wantBare = "" +
		"mode: shared listener, 8 flow groups\n" +
		"accepted 0  served 0 (100.0% local)  stolen 0  dropped 0  requeued 0  parked 0  migrations 0  queued 0  active 0\n" +
		"worker    accepted       local      stolen  active  qdepth   parked  groups  migr-in   lag-us  busy\n" +
		"0                0           0           0       0       0        0       8        0        0      \n"
	b.Reset()
	Write(&b, Parse([]byte(bare)))
	if got := b.String(); got != wantBare {
		t.Errorf("bare table rendering drifted:\ngot:\n%s\nwant:\n%s\ngot %q", got, wantBare, got)
	}
}
