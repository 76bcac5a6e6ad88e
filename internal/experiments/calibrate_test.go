package experiments

import (
	"fmt"
	"testing"

	"affinityaccept/internal/perfctr"
	"affinityaccept/internal/tcp"
)

// TestCalibrationSnapshot prints headline numbers for manual calibration
// against the paper. Run with -v; assertions are deliberately loose
// sanity floors — the tight shape checks live in the experiment tests.
func TestCalibrationSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	t.Parallel()
	for _, kind := range []tcp.ListenKind{tcp.StockAccept, tcp.FineAccept, tcp.AffinityAccept} {
		for _, cores := range []int{1, 12, 48} {
			// Each run is its own seeded, deterministic simulation.
			t.Run(fmt.Sprintf("%v/%d", kind, cores), func(t *testing.T) {
				t.Parallel()
				r := Run(RunConfig{Cores: cores, Listen: kind, Server: Apache, Seed: 7})
				ns := r.Stack.NIC.Stats
				q := r.Stack.Queues()
				localPct := 0.0
				if r.Stack.Stats.Requests > 0 {
					localPct = 100 * float64(r.Stack.Stats.RequestsLocal) / float64(r.Stack.Stats.Requests)
				}
				t.Logf("%-16s %2d cores: %7.0f req/s/core (%8.0f total), %6.0f conn/s, %.2f Gbit/s, drops=%d syn=%d ringdrop=%d rtx=%d refused=%d idle/req=%.0fus local=%.0f%% steals=%d",
					kind, cores, r.ReqPerSecPerCore, r.ReqPerSec, r.ConnsPerSec, r.GbitsPerSec,
					r.Stack.Stats.AcceptDrops, r.Stack.Stats.SynDrops, ns.RxDropsFull,
					r.Gen.Retransmits, r.Gen.Refused, r.MicrosPerReq(r.IdlePerReq), localPct, q.Steals)
				if cores == 12 || cores == 48 {
					per := r.Stack.Ctr.PerRequest(r.Stack.Stats.Requests)
					for _, e := range perfctr.Entries() {
						c := per[e]
						if c.Cycles > 0 {
							t.Logf("    %-16s %8d cyc %8d instr %6d l2miss", e, c.Cycles, c.Instructions, c.L2Misses)
						}
					}
					ls := r.Stack.ListenLockStats()
					reqs := float64(r.Requests)
					t.Logf("    listen locks: acq/req=%.1f contended=%d spin/req=%.0f mutex/req=%.0f hold/req=%.0f",
						float64(ls.Acquisitions)/reqs, ls.Contended,
						float64(ls.SpinWait)/reqs, float64(ls.MutexWait)/reqs, float64(ls.Hold)/reqs)
				}
				if r.ReqPerSecPerCore < 100 {
					t.Fatalf("%v at %d cores: throughput collapsed (%f)", kind, cores, r.ReqPerSecPerCore)
				}
			})
		}
	}
}
