package serve

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
)

// TestPinWorkersAffinityMask is the Linux smoke test for worker
// pinning: handlers run inline on the worker goroutine, whose OS
// thread was locked and sched_setaffinity'd before the loop started,
// so reading the mask from inside a handler observes exactly what the
// kernel will schedule that worker on. Each pinned worker must report
// a single-CPU mask equal to worker % NumCPU. Skips when the
// environment (cgroup cpuset, restricted CI) refused every pin.
func TestPinWorkersAffinityMask(t *testing.T) {
	const workers = 2
	var mu sync.Mutex
	masks := make(map[int][]int) // worker -> mask seen inside its handler

	s, err := New(Config{
		Workers:    workers,
		PinWorkers: true,
		WorkerHandler: func(worker int, conn net.Conn) {
			if cpus, err := threadAffinity(); err == nil {
				mu.Lock()
				masks[worker] = cpus
				mu.Unlock()
			}
			echoHandler(conn)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	// Enough connections that both SO_REUSEPORT listeners are very
	// likely to have fielded at least one each; the assertion below
	// only inspects workers that actually ran a handler.
	burst(t, s.Addr().String(), 32)

	st := s.Stats()
	if st.PinnedWorkers == 0 {
		t.Skipf("no worker could be pinned (pin failures %d); cpuset-restricted environment", st.PinFailures)
	}

	mu.Lock()
	defer mu.Unlock()
	checked := 0
	for worker, mask := range masks {
		cpu := s.PinnedCPU(worker)
		if cpu < 0 {
			continue // this worker's pin was refused; fallback path
		}
		checked++
		want := worker % runtime.NumCPU()
		if cpu != want {
			t.Errorf("worker %d reports pinned CPU %d, want %d", worker, cpu, want)
		}
		if len(mask) != 1 || mask[0] != cpu {
			t.Errorf("worker %d thread affinity mask = %v, want [%d]", worker, mask, cpu)
		}
	}
	if checked == 0 {
		t.Skip("no pinned worker fielded a connection; nothing to assert")
	}
}

// TestSetThreadAffinityRejectsBadCPU: the syscall wrapper must reject
// an out-of-range CPU with an error rather than silently pinning to
// nothing, and must leave the calling thread usable afterwards.
func TestSetThreadAffinityRejectsBadCPU(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	before, err := threadAffinity()
	if err != nil {
		t.Fatalf("reading current affinity: %v", err)
	}
	if err := setThreadAffinity(cpuSetWords * 64); err == nil {
		t.Fatal("setThreadAffinity accepted an out-of-range CPU")
	}
	after, err := threadAffinity()
	if err != nil {
		t.Fatalf("reading affinity after failed set: %v", err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("failed set changed the mask: %v -> %v", before, after)
	}
}
