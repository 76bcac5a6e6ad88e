package obs

import (
	"testing"

	"affinityaccept/internal/testutil"
)

// The BenchmarkStage* functions are the benchmark's obs.* stages
// (ring_record, hist_record, nanos), next to the code they measure.
// ring_record runs at 1, 2, 4 and 8 goroutines, each on a ring of its
// own as each worker is, so what the extra goroutines add is the shared
// sequence counter.

func BenchmarkStageRingRecord(b *testing.B) {
	testutil.Stage(b, func(n int) func(i, j int) {
		rings := NewRings(n, 1024)
		return func(i, j int) { rings.Record(i, KindAccept, i, int64(j), 1, 2, 3) }
	})
}

func BenchmarkStageHistRecord(b *testing.B) {
	h := NewHist(0)
	v := int64(1)
	for b.Loop() {
		h.Record(v)
		v += 997
	}
}

func BenchmarkStageNanos(b *testing.B) {
	for b.Loop() {
		Nanos()
	}
}
