package testutil

import (
	"fmt"
	"sync"
	"testing"
)

// Stage benchmarks one per-layer stage at 1, 2, 4 and 8 goroutines, as
// sub-benchmarks g=N. setup builds the state the N goroutines share and
// returns op; goroutine i calls op(i, j) for j = 0 .. b.N-1, all N at
// once, so ns/op is the mean cost of one call while N run together —
// the shape of the benchmark's micro stages, here compiled against the
// code they measure. j lets an op vary its input without a shared
// counter.
func Stage(b *testing.B, setup func(n int) (op func(i, j int))) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("g=%d", n), func(b *testing.B) {
			op := setup(n)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range b.N {
						op(i, j)
					}
				}()
			}
			wg.Wait()
		})
	}
}
