package core

import (
	"sync"
	"testing"
)

func TestGuardedFlowTableRoute(t *testing.T) {
	gt := NewFlowTable(16, 4)
	port := uint16(0x1235)
	group, core := gt.Route(port, 2)
	if group != gt.GroupOf(port) {
		t.Fatalf("Route group %d != GroupOf %d", group, gt.GroupOf(port))
	}
	if core != gt.CoreForPort(port) {
		t.Fatalf("Route core %d != CoreForPort %d", core, gt.CoreForPort(port))
	}
	if gt.LoadOf(group) != 2 {
		t.Fatalf("load = %d, want 2", gt.LoadOf(group))
	}
	gt.Migrate(group, (core+1)%4)
	if gt.CoreOf(group) != (core+1)%4 {
		t.Fatal("migration not visible through the guard")
	}
	if gt.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", gt.Migrations())
	}
}

// TestGuardedFlowTableConcurrent hammers routing, migration and balance
// from many goroutines; run with -race this proves the lock covers
// every FlowTable access the serve package performs.
func TestGuardedFlowTableConcurrent(t *testing.T) {
	const cores = 4
	gt := NewFlowTable(64, cores)
	g := NewQueues[int](Config{Cores: cores, Backlog: 4 * cores, StealRatio: 1})
	var wg sync.WaitGroup
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_, core := gt.Route(uint16(i*cores+w), 1)
				if ok, _ := g.Push(core, i); ok {
					g.Pop(w)
				}
				if i%100 == 0 {
					gt.Migrate(gt.GroupOf(uint16(i)), w)
					gt.GroupCount()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			Balance(gt, g, nil)
		}
	}()
	wg.Wait()
	total := 0
	for _, n := range gt.GroupCount() {
		total += n
	}
	if total != gt.Groups() {
		t.Fatalf("groups not conserved: %d != %d", total, gt.Groups())
	}
}
