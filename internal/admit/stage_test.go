package admit

import (
	"testing"

	"affinityaccept/internal/testutil"
)

// BenchmarkStageAllow is the benchmark's admit.allow stage next to the
// code it measures, at 1, 2, 4 and 8 goroutines: a limiter that never
// refuses, every call a distinct key.
func BenchmarkStageAllow(b *testing.B) {
	testutil.Stage(b, func(n int) func(i, j int) {
		lim := NewLimiter(1e9, 1<<20, DefaultBuckets)
		stride := max(2, n)
		return func(i, j int) { lim.AllowNow(uint64(i + j*stride)) }
	})
}
