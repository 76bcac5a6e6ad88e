package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestPinWorkersFallbackParity is the portable half of the pinning
// contract: with PinWorkers set, the server must serve identically
// whether pinning took or degraded — every worker either pinned to its
// expected CPU or cleanly unpinned (-1), with the two accounts summing
// to the worker count. On platforms without sched_setaffinity the whole
// run exercises the no-op fallback.
func TestPinWorkersFallbackParity(t *testing.T) {
	s, err := New(Config{
		Workers:    2,
		Handler:    echoHandler,
		PinWorkers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	burst(t, s.Addr().String(), 8)

	st := s.Stats()
	if st.PinnedWorkers+int(st.PinFailures) != s.Workers() {
		t.Fatalf("pin accounting: %d pinned + %d failed != %d workers",
			st.PinnedWorkers, st.PinFailures, s.Workers())
	}
	for i := 0; i < s.Workers(); i++ {
		cpu := s.PinnedCPU(i)
		if cpu == -1 {
			continue // degraded gracefully
		}
		if want := i % runtime.NumCPU(); cpu != want {
			t.Errorf("worker %d pinned to CPU %d, want %d", i, cpu, want)
		}
		if st.Workers[i].PinnedCPU != cpu {
			t.Errorf("worker %d: Stats PinnedCPU %d != accessor %d", i, st.Workers[i].PinnedCPU, cpu)
		}
	}
	if st.Served < 8 {
		t.Fatalf("served %d < 8 with PinWorkers set", st.Served)
	}
}

// TestPinWorkersOffReportsUnpinned: without the knob, every worker
// reports -1 and the stats carry no pinning line.
func TestPinWorkersOffReportsUnpinned(t *testing.T) {
	s, err := New(Config{Workers: 2, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	dialEcho(t, s.Addr().String(), 0)
	for i := 0; i < s.Workers(); i++ {
		if cpu := s.PinnedCPU(i); cpu != -1 {
			t.Errorf("worker %d reports CPU %d with pinning off", i, cpu)
		}
	}
	st := s.Stats()
	if st.PinnedWorkers != 0 || st.PinFailures != 0 {
		t.Errorf("pinning counters nonzero with pinning off: %d/%d", st.PinnedWorkers, st.PinFailures)
	}
}

// TestAdaptiveMigrationBacksOffAndSnapsBack drives the server's balance
// tick directly (as the migrate loop would) and checks the controller
// wiring end to end: idle converged ticks stretch the interval past the
// configured base, and Stats reports the backed-off value.
func TestAdaptiveMigrationBacksOffAndSnapsBack(t *testing.T) {
	base := 50 * time.Millisecond
	s, err := New(Config{
		Workers:         2,
		Handler:         echoHandler,
		MigrateInterval: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	if got := s.Stats().AdaptiveInterval; got != base {
		t.Fatalf("initial adaptive interval %v, want %v", got, base)
	}
	// Three quiet ticks earn one doubling (ConvergedTicks = 3).
	for i := 0; i < 3; i++ {
		s.balanceOnce()
	}
	if got := s.Stats().AdaptiveInterval; got != 2*base {
		t.Fatalf("interval after 3 idle ticks = %v, want %v", got, 2*base)
	}
}
