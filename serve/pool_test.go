package serve

import (
	"sync"
	"testing"
)

func TestPoolCountersSnapshot(t *testing.T) {
	var c PoolCounters
	snap := c.Snapshot()
	if snap.Gets() != 0 {
		t.Fatalf("fresh counters report %d gets", snap.Gets())
	}
	if pct := snap.ReusePct(); pct != 100 {
		t.Fatalf("untouched pool reuse = %v%%, want 100%%", pct)
	}

	c.Miss()
	for i := 0; i < 9; i++ {
		c.Reuse()
	}
	snap = c.Snapshot()
	if snap.Gets() != 10 || snap.Misses != 1 || snap.Reuses != 9 {
		t.Fatalf("snapshot = %+v, want 9 reuses, 1 miss", snap)
	}
	if pct := snap.ReusePct(); pct != 90 {
		t.Fatalf("reuse = %v%%, want 90%%", pct)
	}
}

func TestPoolSnapshotAdd(t *testing.T) {
	a := PoolStats{Reuses: 3, Misses: 1}
	b := PoolStats{Reuses: 7, Misses: 9}
	sum := a.Add(b)
	want := PoolStats{Reuses: 10, Misses: 10}
	if sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	if pct := sum.ReusePct(); pct != 50 {
		t.Fatalf("reuse = %v%%, want 50%%", pct)
	}
}

// TestPoolCountersConcurrent exercises the observe-from-another-
// goroutine contract: counters are bumped by an owner while snapshots
// are taken concurrently. Run under -race this proves the lock-free
// read is sound.
func TestPoolCountersConcurrent(t *testing.T) {
	var c PoolCounters
	const n = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c.Reuse()
			c.Miss()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			snap := c.Snapshot()
			if snap.Reuses > n || snap.Misses > n {
				t.Errorf("impossible snapshot %+v", snap)
				return
			}
		}
	}()
	wg.Wait()
	if snap := c.Snapshot(); snap.Gets() != 2*n {
		t.Fatalf("final gets = %d, want %d", snap.Gets(), 2*n)
	}
}
