package serve

import (
	"testing"
	"time"
)

// TestStatsStringGolden pins the exact rendering of the stats table —
// header/row alignment included — against a fixture wide enough to
// stress every column (11-digit accept counters, 8-digit parked
// populations). The header and row formats in stats.go share their
// widths by construction; this golden is the tripwire for the next
// column someone adds to one format but not the other.
func TestStatsStringGolden(t *testing.T) {
	st := Stats{
		Sharded:      true,
		FlowGroups:   512,
		Accepted:     12345678901,
		Served:       23456789012,
		ServedLocal:  21000000000,
		ServedStolen: 2456789012,
		Dropped:      42,
		Requeued:     9876543210,
		Migrations:   1234,
		Parked:       1000000,
		Queued:       7,
		Active:       64,

		Ratelimited:    5,
		ShedParked:     6,
		BudgetRejected: 7,
		AcceptRetries:  8,
		Live:           900000,
		LivePeak:       1000000,
		MaxConns:       1048576,

		Chips:               2,
		CrossChipSteals:     12345678,
		CrossChipMigrations: 617,

		AdaptiveInterval: 400 * time.Millisecond,
		FrozenGroups:     2,
		GroupFreezes:     9,
		GroupUnfreezes:   7,

		PinnedWorkers: 1,
		PinFailures:   1,

		Pool:     PoolStats{Reuses: 999, Misses: 1, Drops: 3},
		Upstream: PoolStats{Reuses: 75, Misses: 25, Drops: 2},

		Workers: []WorkerStats{
			{
				Worker: 0, Chip: 0, PinnedCPU: 0, Accepted: 12345678901, ServedLocal: 21000000000,
				ServedStolen: 2456789012, StolenCross: 12345678, Active: 32, QueueDepth: 3,
				Parked: 12345678, GroupsOwned: 256, MigratedIn: 617,
				ClockLagUs: 49021, Busy: true,
				Pool:     PoolStats{Reuses: 999, Misses: 1},
				Upstream: PoolStats{Reuses: 75, Misses: 25},
			},
			{
				Worker: 1, Chip: 1, PinnedCPU: -1, GroupsOwned: 256,
			},
		},
	}

	const want = "" +
		"mode: SO_REUSEPORT per-worker listeners, 512 flow groups\n" +
		"accepted 12345678901  served 23456789012 (89.5% local)  stolen 2456789012  dropped 42  requeued 9876543210  parked 1000000  migrations 1234  queued 7  active 64\n" +
		"admission: ratelimited 5  shed-parked 6  budget-rejected 7  accept-retries 8  live 900000 (peak 1000000 / budget 1048576)\n" +
		"numa: 2 chips  cross-chip steals 12345678  cross-chip migrations 617\n" +
		"adaptive: interval 400ms  frozen groups 2 (freezes 9, thaws 7)\n" +
		"pinning: 1 workers pinned, 1 failed\n" +
		"pools: 1000 gets, 99.9% reused from the worker-local free list (1 misses, 3 drops)\n" +
		"upstream: 100 checkouts, 75.0% reused from the worker-local pool (25 dials, 2 drops)\n" +
		"worker chip  cpu    accepted       local      stolen  x-steal  active  qdepth   parked  groups  migr-in   lag-us  busy   pool-get  reuse%     up-get  up-re%\n" +
		"0         0    0 12345678901 21000000000  2456789012 12345678      32       3 12345678     256      617    49021     *       1000    99.9        100    75.0\n" +
		"1         1    -           0           0           0        0       0       0        0     256        0        0                0   100.0          0   100.0\n"

	if got := st.String(); got != want {
		t.Errorf("stats rendering drifted from the golden:\ngot:\n%s\nwant:\n%s\ngot %q", got, want, got)
	}

	// A minimal snapshot (no pools, no admission knobs, migration off,
	// unpinned workers) must render only the core table.
	bare := Stats{FlowGroups: 8, Workers: []WorkerStats{{Worker: 0, PinnedCPU: -1, GroupsOwned: 8}}}
	const wantBare = "" +
		"mode: shared listener, 8 flow groups\n" +
		"accepted 0  served 0 (100.0% local)  stolen 0  dropped 0  requeued 0  parked 0  migrations 0  queued 0  active 0\n" +
		"worker chip  cpu    accepted       local      stolen  x-steal  active  qdepth   parked  groups  migr-in   lag-us  busy\n" +
		"0         0    -           0           0           0        0       0       0        0       8        0        0      \n"
	if got := bare.String(); got != wantBare {
		t.Errorf("bare stats rendering drifted:\ngot:\n%s\nwant:\n%s\ngot %q", got, wantBare, got)
	}
}
