package core

import (
	"testing"

	"affinityaccept/internal/testutil"
)

// The BenchmarkStage* functions are the benchmark's core.* stages
// (push_pop, route, steal, balance), next to the code they measure. The
// contended stages run at 1, 2, 4 and 8 goroutines; g=1 and g=2 are the
// benchmark's one- and two-goroutine forms.

func BenchmarkStagePushPop(b *testing.B) {
	testutil.Stage(b, func(n int) func(i, j int) {
		g := NewQueues[int](Config{Cores: max(2, n)})
		return func(i, _ int) {
			g.Push(i, 1)
			g.Pop(i)
		}
	})
}

func BenchmarkStageRoute(b *testing.B) {
	testutil.Stage(b, func(n int) func(i, j int) {
		ft := NewFlowTable(DefaultFlowGroups, 2)
		stride := max(2, n)
		return func(i, j int) { ft.Route(uint16(i+j*stride), 1) }
	})
}

// BenchmarkStageSteal holds core 0's queue over its high watermark, so
// every Pop on the idle core 1 takes from it; the Push refills.
func BenchmarkStageSteal(b *testing.B) {
	g := NewQueues[int](Config{Cores: 2})
	for i := 0; i < 120; i++ {
		g.Push(0, i)
	}
	for b.Loop() {
		g.Push(0, 1)
		if _, from, ok := g.Pop(1); !ok || from != 0 {
			b.Fatal("a Pop on the idle core did not steal")
		}
	}
}

func BenchmarkStageBalance(b *testing.B) {
	g := NewQueues[int](Config{Cores: 2})
	ft := NewFlowTable(DefaultFlowGroups, 2)
	for b.Loop() {
		Balance(ft, g, nil)
	}
}
