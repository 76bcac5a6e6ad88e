package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"affinityaccept/internal/obs"
)

// TestObsMigrationEventsMatchMoves drives a deterministic migration (the
// same synthesized queue state TestMigrationPausesWhileAllWorkersBusy
// uses) and checks the acceptance property of the event plane: every
// migration the stats report has a matching KindMigrate event on the
// control ring, operands included.
func TestObsMigrationEventsMatchMoves(t *testing.T) {
	s, err := New(Config{
		Workers:          2,
		FlowGroups:       8,
		DisableMigration: true, // ticks are manual
		Backlog:          40,
		HighPct:          20,
		LowPct:           5,
		Handler:          echoHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// Worker 0 goes busy, worker 1 steals, then drains: the next tick
	// migrates exactly one group from 0 to 1.
	for i := 0; i < 6; i++ {
		s.bal.Push(0, nil)
	}
	if _, from, ok := s.bal.Pop(1); !ok || from != 0 {
		t.Fatalf("worker 1 pop = (from %d, ok %v), want steal from 0", from, ok)
	}
	for i := 0; i < 1000 && s.bal.Busy(1); i++ {
		s.bal.ObserveIdle(1, 10)
	}
	if n := s.balanceOnce(); n != 1 {
		t.Fatalf("balance applied %d migrations, want 1", n)
	}

	st := s.Stats()
	var migrates []obs.Event
	for _, ev := range s.Events() {
		if ev.Kind == obs.KindMigrate {
			migrates = append(migrates, ev)
		}
	}
	if uint64(len(migrates)) != st.Migrations {
		t.Fatalf("%d migrate events for %d stats migrations", len(migrates), st.Migrations)
	}
	ev := migrates[0]
	if ev.B != 0 || ev.C != 1 {
		t.Errorf("migrate event records %d -> %d, want 0 -> 1", ev.B, ev.C)
	}
	if ev.A < 0 || ev.A >= int64(s.FlowGroups()) {
		t.Errorf("migrate event group %d out of range [0, %d)", ev.A, s.FlowGroups())
	}
	if ev.Worker != 1 {
		t.Errorf("migrate event attributed to worker %d, want the claimer 1", ev.Worker)
	}
}

// TestObsParkWakeLifecycle runs one real keep-alive connection through a
// park (the client waits between requests) and checks the event
// timeline and the park-duration histogram both saw it.
func TestObsParkWakeLifecycle(t *testing.T) {
	var srv *Server
	s, err := New(Config{
		Workers: 1,
		Handler: requeueEcho(&srv, 4, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4)
	for pass := 0; pass < 2; pass++ {
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		// Idle long enough that the requeue must really park.
		time.Sleep(50 * time.Millisecond)
	}

	waitFor(t, 5*time.Second, func() bool {
		var parks, wakes, accepts int
		for _, ev := range s.Events() {
			switch ev.Kind {
			case obs.KindAccept:
				accepts++
			case obs.KindPark:
				parks++
			case obs.KindWake:
				wakes++
			}
		}
		return accepts >= 1 && parks >= 1 && wakes >= 1
	}, "accept/park/wake events never all appeared")

	park := s.ParkDurationSnapshot()
	if park.Count == 0 {
		t.Fatal("park-duration histogram recorded nothing")
	}
	// The client idled ~50ms before the wake; the histogram must have
	// seen at least one park of that order.
	if q := park.Quantile(1); q < int64(10*time.Millisecond) {
		t.Errorf("max park duration %v, want >= 10ms", time.Duration(q))
	}
}

// TestTopologyIndependentOfObs: Chips > 1 orders the steal scan, so
// WorkerChip, crossChip and Stats must describe that same layout (they
// used to answer 0 / false / 0 with the obs plane off, disagreeing with
// the policy about who is remote).
func TestTopologyIndependentOfObs(t *testing.T) {
	s, err := New(Config{Workers: 4, Chips: 2, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	st := s.Stats()
	for w, want := range []int{0, 0, 1, 1} {
		if got := s.WorkerChip(w); got != want {
			t.Errorf("WorkerChip(%d) = %d, want %d", w, got, want)
		}
		if got := st.Workers[w].Chip; got != want {
			t.Errorf("Stats.Workers[%d].Chip = %d, want %d", w, got, want)
		}
	}
	if s.crossChip(0, 1) || !s.crossChip(1, 2) {
		t.Errorf("crossChip(0,1)=%v crossChip(1,2)=%v, want false/true", s.crossChip(0, 1), s.crossChip(1, 2))
	}
	if st.Chips != 2 {
		t.Errorf("Stats.Chips = %d, want 2", st.Chips)
	}
	if s.WorkerChip(-1) != 0 || s.WorkerChip(4) != 0 {
		t.Error("out-of-range WorkerChip must report chip 0")
	}
}

// TestWriteObsMetricsSeries checks the serve layer's Prometheus writer
// emits every series the unified exporter advertises, including the
// per-worker clock-lag gauges, and that a live server's lag is sane.
func TestWriteObsMetricsSeries(t *testing.T) {
	s, err := New(Config{
		Workers: 2,
		Handler: echoHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	burst(t, s.Addr().String(), 8)

	var b strings.Builder
	s.WriteObsMetrics(&b)
	out := b.String()
	for _, series := range []string{
		"# TYPE affinity_park_duration_seconds histogram",
		"# TYPE affinity_steal_pop_seconds histogram",
		"# TYPE affinity_migrate_tick_seconds histogram",
		"affinity_events_recorded_total ",
		"affinity_events_dropped_total 0",
		`affinity_evloop_ready_total{worker="0"}`,
		`affinity_evloop_dead_total{worker="1"}`,
		`affinity_evloop_expired_total{worker="0"}`,
		`affinity_clock_lag_seconds{worker="0"}`,
		`affinity_clock_lag_seconds{worker="1"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
	for w := 0; w < 2; w++ {
		if lag := s.ClockLag(w); lag < 0 || lag > 5*time.Second {
			t.Errorf("worker %d clock lag %v not plausible for a live loop", w, lag)
		}
	}
	st := s.Stats()
	for i, w := range st.Workers {
		if w.ClockLagUs < 0 {
			t.Errorf("worker %d negative clock lag %dus", i, w.ClockLagUs)
		}
	}
}

// TestWriteObsMetricsMatchesStats pins WriteObsMetrics as the one
// renderer of the server's state: on a live server holding a running
// handler and parked connections, every per-worker value the tools'
// table shows, and every summary counter, reads in the scrape exactly as
// Stats reports it.
func TestWriteObsMetricsMatchesStats(t *testing.T) {
	release := make(chan struct{})
	var srv *Server
	s, err := New(Config{
		Workers:          2,
		Chips:            2,
		FlowGroups:       8,
		DisableMigration: true,
		Handler: func(conn net.Conn) {
			b := make([]byte, 1)
			if _, err := io.ReadFull(conn, b); err != nil {
				conn.Close()
				return
			}
			if b[0] == 'b' {
				<-release // hold the worker: Active reads 1
			}
			if _, err := conn.Write(b); err != nil || !srv.Requeue(conn) {
				conn.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	s.Start()
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	for i, msg := range []string{"p", "p", "p", "b"} {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(msg))
		if msg == "p" {
			if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
				t.Fatalf("conn %d: %v", i, err)
			}
		}
	}
	waitFor(t, 5*time.Second, func() bool { st := s.Stats(); return st.Parked == 3 && st.Active == 1 },
		"three connections never parked beside one running handler")
	s.workers[1].migratedIn.Add(3)
	s.workers[1].servedStolen.Add(1) // worker 1 stole from worker 0, across the chip line
	s.workers[1].stolenCross.Add(1)

	st := s.Stats()
	var b strings.Builder
	s.WriteObsMetrics(&b)
	got := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			got[line[:i]] = line[i+1:]
		}
	}
	want := map[string]any{
		"affinity_workers":                               len(st.Workers),
		"affinity_sharded":                               map[bool]int{false: 0, true: 1}[st.Sharded],
		"affinity_flow_groups":                           st.FlowGroups,
		"affinity_dropped_total":                         st.Dropped,
		"affinity_parked":                                st.Parked,
		"affinity_requeued_total":                        st.Requeued,
		"affinity_migrations_total":                      st.Migrations,
		"affinity_pin_failures_total":                    st.PinFailures,
		`affinity_cross_chip_steals_total{dist="cross"}`: st.CrossChipSteals,
	}
	for i, w := range st.Workers {
		label := fmt.Sprintf(`{worker="%d"}`, i)
		want["affinity_worker_chip"+label] = w.Chip
		want["affinity_worker_pinned_cpu"+label] = w.PinnedCPU
		want["affinity_accepted_total"+label] = w.Accepted
		want["affinity_accept_remote_total"+label] = w.AcceptRemote
		want[fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, i)] = w.ServedLocal
		want[fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, i)] = w.ServedStolen
		want["affinity_worker_cross_chip_steals_total"+label] = w.StolenCross
		want["affinity_worker_active"+label] = w.Active
		want["affinity_queue_depth"+label] = w.QueueDepth
		want["affinity_worker_parked"+label] = w.Parked
		want["affinity_worker_groups"+label] = w.GroupsOwned
		want["affinity_migrated_in_total"+label] = w.MigratedIn
		want["affinity_worker_busy"+label] = map[bool]int{false: 0, true: 1}[w.Busy]
		if _, ok := got["affinity_clock_lag_seconds"+label]; !ok {
			t.Errorf("scrape has no clock lag for worker %d", i)
		}
	}
	for key, v := range want {
		if g, ok := got[key]; !ok || g != fmt.Sprint(v) {
			t.Errorf("%s: scrape reads %q, Stats reads %v", key, g, v)
		}
	}
	if st.Workers[1].MigratedIn != 3 || st.Workers[1].StolenCross != 1 || st.Active != 1 {
		t.Errorf("fixture did not take: %+v", st.Workers)
	}
}

// TestObsJourneyTaggingAndAttribution drives the deterministic
// steal-then-migrate sequence on a simulated two-chip topology and
// checks the whole flow-journey layer end to end: the migrate event
// carries its group tag and a claimed hop, the stitched journey reports
// the migration and the new owner, and Stats and the scrape price the
// move as cross-chip.
func TestObsJourneyTaggingAndAttribution(t *testing.T) {
	s, err := New(Config{
		Workers:          2,
		Chips:            2, // worker 0 on chip 0, worker 1 on chip 1
		FlowGroups:       8,
		DisableMigration: true, // ticks are manual
		Backlog:          40,
		HighPct:          20,
		LowPct:           5,
		Handler:          echoHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	for i := 0; i < 6; i++ {
		s.bal.Push(0, nil)
	}
	if _, from, ok := s.bal.Pop(1); !ok || from != 0 {
		t.Fatalf("worker 1 pop = (from %d, ok %v), want steal from 0", from, ok)
	}
	for i := 0; i < 1000 && s.bal.Busy(1); i++ {
		s.bal.ObserveIdle(1, 10)
	}
	if n := s.balanceOnce(); n != 1 {
		t.Fatalf("balance applied %d migrations, want 1", n)
	}

	var mig obs.Event
	found := false
	for _, ev := range s.Events() {
		if ev.Kind == obs.KindMigrate {
			mig, found = ev, true
		}
	}
	if !found {
		t.Fatal("no migrate event recorded")
	}
	if int64(mig.Group) != mig.A {
		t.Errorf("migrate event group tag %d != A operand %d", mig.Group, mig.A)
	}
	if mig.Hop < 1 {
		t.Errorf("migrate event hop %d, want >= 1 (a claimed counter)", mig.Hop)
	}

	journeys := s.Journeys(0)
	var j *obs.Journey
	for i := range journeys {
		if journeys[i].Group == mig.Group {
			j = &journeys[i]
		}
	}
	if j == nil {
		t.Fatalf("no journey stitched for migrated group %d (journeys: %v)", mig.Group, journeys)
	}
	if j.Migrations != 1 {
		t.Errorf("journey migrations = %d, want 1", j.Migrations)
	}
	if j.Owner != 1 {
		t.Errorf("journey owner = %d, want the claimer 1", j.Owner)
	}

	// Attribution: the 0 -> 1 move crosses the two-chip boundary. The
	// Pop above bypassed workerLoop, so its steal is counted by hand the
	// way workerLoop counts one: worker 1 stole from worker 0, cross-chip.
	s.workers[1].servedStolen.Add(1)
	s.workers[1].stolenCross.Add(1)
	st := s.Stats()
	if st.Chips != 2 || st.CrossChipMigrations != 1 || st.CrossChipSteals != 1 {
		t.Errorf("stats chips=%d xmigr=%d xsteal=%d, want 2/1/1", st.Chips, st.CrossChipMigrations, st.CrossChipSteals)
	}
	if st.Workers[1].StolenCross != 1 || st.Workers[1].Chip != 1 {
		t.Errorf("worker 1 stolenCross=%d chip=%d, want 1/1", st.Workers[1].StolenCross, st.Workers[1].Chip)
	}

	var b strings.Builder
	s.WriteObsMetrics(&b)
	out := b.String()
	for _, series := range []string{
		`affinity_cross_chip_steals_total{dist="same"} 0`,
		`affinity_cross_chip_steals_total{dist="cross"} 1`,
		`affinity_cross_chip_migrations_total{dist="same"} 0`,
		`affinity_cross_chip_migrations_total{dist="cross"} 1`,
		`affinity_worker_chip{worker="1"} 1`,
		`affinity_worker_wakes_total{worker="1",reason="push"} `,
		`affinity_worker_wakes_total{worker="1",reason="decay"} `,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
}

// TestObsEventsSinceCursor pins the /debug/events incremental-poll
// contract at the server level: polling with the largest previously
// seen Seq delivers each event exactly once — no duplicates, no skips —
// across an ongoing stream of recorded events.
func TestObsEventsSinceCursor(t *testing.T) {
	s, err := New(Config{Workers: 2, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	seen := make(map[uint64]int)
	var cursor uint64
	for round := 0; round < 10; round++ {
		for i := 0; i < 7; i++ {
			s.RecordGroupEvent(i%2, obs.KindAccept, -1, int64(round*7+i), 0, 0)
		}
		for _, ev := range s.EventsSince(cursor) {
			seen[ev.Seq]++
			if ev.Seq > cursor {
				cursor = ev.Seq
			}
		}
	}
	if len(seen) != 70 {
		t.Fatalf("cursor polls saw %d distinct events, want all 70", len(seen))
	}
	for seq, n := range seen {
		if n != 1 {
			t.Errorf("event seq %d delivered %d times, want exactly once", seq, n)
		}
	}
}
