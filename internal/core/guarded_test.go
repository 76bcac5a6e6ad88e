package core

import (
	"sync"
	"testing"
)

func TestGuardedBasics(t *testing.T) {
	g := NewQueues[int](Config{Cores: 2, Backlog: 8})
	if ok, _ := g.Push(0, 42); !ok {
		t.Fatal("push failed")
	}
	if g.Len(0) != 1 {
		t.Fatal("len wrong")
	}
	v, from, ok := g.Pop(0)
	if !ok || v != 42 || from != 0 {
		t.Fatalf("pop: %d %d %v", v, from, ok)
	}
	if g.Busy(0) {
		t.Fatal("unexpected busy")
	}
}

func TestGuardedConcurrentConservation(t *testing.T) {
	const (
		cores   = 4
		perCore = 500
	)
	g := NewQueues[int](Config{Cores: cores, Backlog: cores * 64})
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[int]bool{}
	var accepted int

	// Consumers.
	done := make(chan struct{})
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				v, _, ok := g.Pop(c)
				if ok {
					mu.Lock()
					if got[v] {
						t.Errorf("duplicate pop of %d", v)
					}
					got[v] = true
					accepted++
					mu.Unlock()
					continue
				}
				select {
				case <-done:
					// Final drain.
					for {
						v, _, ok := g.Pop(c)
						if !ok {
							return
						}
						mu.Lock()
						got[v] = true
						accepted++
						mu.Unlock()
					}
				default:
				}
			}
		}(c)
	}

	// Observers: the server's other callers of the same queues — the
	// overload probe, the stats scrape, an idle worker's decay and the
	// migration tick on a shared flow table — racing both sides.
	ft := NewFlowTable(64, cores)
	stop := make(chan struct{})
	var owg sync.WaitGroup
	for c := 0; c < 2; c++ {
		owg.Add(1)
		go func(c int) {
			defer owg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p, l, s, d := g.Stats(); l+s+d > p {
					t.Errorf("locals %d + steals %d + drops %d > pushes %d", l, s, d, p)
				}
				g.AllBusy()
				g.ObserveIdle(c, 1)
				if n := g.TotalLen(); n > cores*64 {
					t.Errorf("%d queued, capacity %d", n, cores*64)
				}
				Balance(ft, g, nil, nil)
			}
		}(c)
	}

	pushed := 0
	var pmu sync.Mutex
	var pwg sync.WaitGroup
	for c := 0; c < cores; c++ {
		pwg.Add(1)
		go func(c int) {
			defer pwg.Done()
			for i := 0; i < perCore; i++ {
				v := c*perCore + i
				for ok, _ := g.Push(c, v); !ok; ok, _ = g.Push(c, v) {
					// Queue full: spin until a consumer drains.
				}
				pmu.Lock()
				pushed++
				pmu.Unlock()
			}
		}(c)
	}
	pwg.Wait()
	close(done)
	wg.Wait()
	close(stop)
	owg.Wait()

	if accepted != pushed || accepted != cores*perCore {
		t.Fatalf("accepted %d of %d pushed", accepted, pushed)
	}
	p, l, s, d := g.Stats()
	if p < uint64(pushed) {
		t.Fatalf("stats pushes %d < %d", p, pushed)
	}
	if l+s != uint64(accepted) {
		t.Fatalf("locals %d + steals %d != accepted %d", l, s, accepted)
	}
	_ = d
}

func TestGuardedBalance(t *testing.T) {
	g := NewQueues[int](Config{Cores: 2, Backlog: 4, StealRatio: 1})
	ft := NewFlowTable(16, 2)
	// Build up steals from core 1.
	g.Push(1, 1)
	g.Push(1, 2)
	g.Push(1, 3) // overflow -> busy
	g.Push(0, 7)
	g.Pop(0)
	g.Pop(0)
	if n := len(Balance(ft, g, nil, nil)); n != 1 {
		t.Fatalf("balance = %d, want 1", n)
	}
}
