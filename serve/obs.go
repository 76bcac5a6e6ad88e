package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"affinityaccept/internal/obs"
)

// serverObs is the server's observability plane: per-worker event rings
// plus one control ring, the serve-layer latency histograms and the
// per-flow-group hop counters behind the journey tags. All of it is
// allocation-free on the hot path — histograms are atomic bucket arrays,
// rings are preallocated slots, hop counters are single atomic adds —
// and merged only at snapshot time.
type serverObs struct {
	// rings holds Workers+1 event rings sharing one sequence counter.
	// Ring i carries worker i's high-churn events (accept, park, wake,
	// steal); the final ring is the control ring, reserved for the rare
	// decisions a post-hoc "why did this flow move" question needs
	// (migrate, shed) so park/wake churn can never evict them.
	rings   *obs.Rings
	control int

	// hops holds one monotonic hop counter per flow group. Every
	// group-tagged event claims the group's next hop with one atomic
	// increment, so a group's events sort into causal order however the
	// per-worker rings interleave — the property the journey stitcher
	// (obs.Stitch) rests on.
	hops []atomic.Uint32

	park    []*obs.Hist // per worker: ns parked between requests
	steal   []*obs.Hist // per worker: queue-pop ns of stolen connections
	migrate *obs.Hist   // ns per balance tick (BalanceTable call)
}

func newServerObs(workers, groups int) *serverObs {
	o := &serverObs{
		rings:   obs.NewRings(workers+1, obs.DefaultRingSize),
		control: workers,
		hops:    make([]atomic.Uint32, groups),
		park:    make([]*obs.Hist, workers),
		steal:   make([]*obs.Hist, workers),
		migrate: obs.NewHist(obs.DefaultSubBits),
	}
	for i := range o.park {
		o.park[i] = obs.NewHist(obs.DefaultSubBits)
		o.steal[i] = obs.NewHist(obs.DefaultSubBits)
	}
	return o
}

// nextHop claims flow group g's next hop counter (1-based), 0 for
// out-of-journey events. One atomic add; zero allocations.
func (o *serverObs) nextHop(g int) uint32 {
	if g < 0 || g >= len(o.hops) {
		return 0
	}
	return o.hops[g].Add(1)
}

// coarseUnix is the event-timestamp source: worker w's coarse clock as
// unix nanoseconds — one atomic load, no syscall, ~50ms resolution.
func (s *Server) coarseUnix(w int) int64 {
	if w < 0 || w >= len(s.loops) {
		w = 0
	}
	return s.loops[w].Now().UnixNano()
}

// RecordGroupEvent publishes one flow-journey event onto worker w's
// event ring, tagged with flow group g and the group's next hop
// counter. Layers above serve (httpaff's shed and header-timeout paths)
// use it so their decisions stitch into the same per-group journeys as
// the server's accept/steal/migrate hops. Pass a negative group for an
// event outside any journey. Zero allocations.
func (s *Server) RecordGroupEvent(w int, k obs.Kind, g int, a, b, c int64) {
	r := w
	if r < 0 || r >= s.cfg.Workers {
		r = 0
	}
	s.recordGroup(r, k, w, g, a, b, c)
}

// recordGroup claims group g's next hop and publishes the tagged event
// onto ring r (which may be the control ring). The hop counter is
// claimed even when the ring later drops the event on a writer
// collision — hop sequences may have gaps, never reorderings.
func (s *Server) recordGroup(r int, k obs.Kind, w, g int, a, b, c int64) {
	hop := uint32(0)
	group := int32(-1)
	if g >= 0 && g < len(s.obs.hops) {
		hop = s.obs.nextHop(g)
		group = int32(g)
	}
	s.obs.rings.RecordGroup(r, k, w, s.coarseUnix(w), group, hop, a, b, c)
}

// recordControl publishes a rare control-plane event (migrate, shed)
// onto the control ring, where worker-ring churn cannot overwrite it,
// tagged with flow group g (negative for none).
func (s *Server) recordControl(w int, k obs.Kind, g int, a, b, c int64) {
	s.recordGroup(s.obs.control, k, w, g, a, b, c)
}

// crossChip reports whether workers a and b live on different chips of
// the configured topology — the distance line the steal scan orders by
// and the steal and migration paths count hops against. Config.Chips
// simulates a multi-chip machine, so loopback runs on flat hardware
// still exercise the distance-aware accounting.
func (s *Server) crossChip(a, b int) bool {
	return s.topo.Chip[a] != s.topo.Chip[b]
}

// WorkerChip reports which chip of the configured topology worker w
// maps to (always 0 on a flat machine, and for an out-of-range w).
func (s *Server) WorkerChip(w int) int {
	if w < 0 || w >= len(s.topo.Chip) {
		return 0
	}
	return s.topo.Chip[w]
}

// Events drains every event ring into one timeline ordered by sequence
// number — the server's recent control-plane history. Diagnostic path:
// allocates.
func (s *Server) Events() []obs.Event { return s.obs.rings.Events() }

// EventsSince drains the merged timeline keeping only events with
// Seq > since — the incremental-poll cursor behind /debug/events?since=.
// Diagnostic path: allocates.
func (s *Server) EventsSince(since uint64) []obs.Event { return s.obs.rings.EventsSince(since) }

// Journeys stitches the merged timeline into per-flow-group causal
// journeys (see obs.Stitch), keeping only events with Seq > since.
// Diagnostic path: allocates.
func (s *Server) Journeys(since uint64) []obs.Journey {
	return obs.Stitch(s.obs.rings.EventsSince(since))
}

// EventsRecorded reports how many events have been published since
// start (including ones since overwritten by ring wraparound).
func (s *Server) EventsRecorded() uint64 { return s.obs.rings.Recorded() }

// EventsDropped reports events lost to writer collisions on a lapped
// ring slot — nonzero only under pathological event rates.
func (s *Server) EventsDropped() uint64 { return s.obs.rings.Dropped() }

// ClockLag reports how far worker w's coarse clock currently trails the
// wall clock — at most one event-loop iteration (~50ms) on a healthy
// loop; a persistently larger lag means the loop goroutine is starved.
func (s *Server) ClockLag(w int) time.Duration {
	if w < 0 || w >= len(s.loops) {
		return 0
	}
	return time.Since(s.loops[w].Now())
}

// ParkDurationSnapshot returns the merged park-duration histogram
// (nanoseconds parked between requests). Diagnostic path: allocates.
func (s *Server) ParkDurationSnapshot() obs.HistSnapshot { return mergeHists(s.obs.park) }

// StealCostSnapshot returns the merged steal-cost histogram (queue-pop
// nanoseconds for stolen connections). Diagnostic path: allocates.
func (s *Server) StealCostSnapshot() obs.HistSnapshot { return mergeHists(s.obs.steal) }

func mergeHists(hs []*obs.Hist) obs.HistSnapshot {
	m := hs[0].Snapshot()
	for _, h := range hs[1:] {
		m.Merge(h.Snapshot())
	}
	return m
}

// WriteObsMetrics renders every serve-layer series in Prometheus text
// format, from one Stats snapshot plus the observability plane: the
// served/accepted/queue counters and per-worker gauges, transport
// admission, park/steal/migrate histograms, event-ring counters,
// event-loop delivery counters, coarse-clock lag, the NUMA attribution
// totals and the migration controller's state. It is the one renderer
// of the server's state: httpaff.MetricsHandler composes it into the
// unified exporter, and the affinity tools print their tables from it.
func (s *Server) WriteObsMetrics(w io.Writer) {
	st := s.Stats()
	ws := st.Workers
	sharded := 0
	if st.Sharded {
		sharded = 1
	}
	scalar(w, "affinity_workers", "gauge", "Configured worker (and on Linux, listener) count.", len(ws))
	scalar(w, "affinity_sharded", "gauge", "1 when every worker has its own SO_REUSEPORT listener, 0 on the shared-listener fallback.", sharded)
	scalar(w, "affinity_flow_groups", "gauge", "Flow groups connections are routed by (sec 3.1).", st.FlowGroups)
	fmt.Fprintf(w, "# HELP affinity_served_total Handler passes served, by worker and queue the pass was popped from.\n# TYPE affinity_served_total counter\n")
	for i, x := range ws {
		fmt.Fprintf(w, "affinity_served_total{worker=\"%d\",queue=\"local\"} %d\n", i, x.ServedLocal)
		fmt.Fprintf(w, "affinity_served_total{worker=\"%d\",queue=\"stolen\"} %d\n", i, x.ServedStolen)
	}
	perWorker(w, "affinity_accepted_total", "counter", "Connections routed at accept time, by the flow-group owner they were routed to.", len(ws), func(i int) any { return ws[i].Accepted })
	perWorker(w, "affinity_accept_remote_total", "counter", "Of affinity_accepted_total, connections another worker's listener accepted (sharded mode).", len(ws), func(i int) any { return ws[i].AcceptRemote })
	perWorker(w, "affinity_worker_cross_chip_steals_total", "counter", "Passes each worker stole from a victim on another chip.", len(ws), func(i int) any { return ws[i].StolenCross })
	perWorker(w, "affinity_queue_depth", "gauge", "Instantaneous per-worker queue depth.", len(ws), func(i int) any { return ws[i].QueueDepth })
	perWorker(w, "affinity_worker_busy", "gauge", "The sec 3.3.1 busy bit, 1 while the worker's queue is over its watermark.", len(ws), func(i int) any {
		if ws[i].Busy {
			return 1
		}
		return 0
	})
	perWorker(w, "affinity_worker_active", "gauge", "Handlers running on each worker.", len(ws), func(i int) any { return ws[i].Active })
	perWorker(w, "affinity_worker_parked", "gauge", "Connections parked on each worker's event loop.", len(ws), func(i int) any { return ws[i].Parked })
	perWorker(w, "affinity_worker_groups", "gauge", "Flow groups each worker owns.", len(ws), func(i int) any { return ws[i].GroupsOwned })
	perWorker(w, "affinity_migrated_in_total", "counter", "Flow groups each worker claimed by sec 3.3.2 migration.", len(ws), func(i int) any { return ws[i].MigratedIn })
	scalar(w, "affinity_dropped_total", "counter", "Connections shed on queue overflow.", st.Dropped)
	scalar(w, "affinity_parked", "gauge", "Keep-alive connections parked between requests.", st.Parked)
	scalar(w, "affinity_requeued_total", "counter", "Successful keep-alive requeues.", st.Requeued)
	scalar(w, "affinity_migrations_total", "counter", "Applied flow-group migrations.", st.Migrations)

	scalar(w, "affinity_ratelimited_total", "counter", "Connections closed at accept by the per-IP token buckets.", st.Ratelimited)
	scalar(w, "affinity_shed_parked_total", "counter", "Parked connections closed LIFO to reclaim descriptors or budget.", st.ShedParked)
	scalar(w, "affinity_budget_rejected_total", "counter", "Connections rejected with the budget exhausted and nothing parked.", st.BudgetRejected)
	scalar(w, "affinity_accept_retries_total", "counter", "Transient accept errors survived (EMFILE/ENFILE/ECONNABORTED).", st.AcceptRetries)
	scalar(w, "affinity_live_conns", "gauge", "Connections charged against the budget right now (0 when MaxConns unset).", st.Live)
	scalar(w, "affinity_live_conns_peak", "gauge", "High-water mark of affinity_live_conns; never exceeds the budget.", st.LivePeak)
	scalar(w, "affinity_conn_budget", "gauge", "Configured connection budget (0 = unlimited).", st.MaxConns)

	obs.WriteProm(w, "affinity_park_duration_seconds",
		"Time keep-alive connections spent parked between requests.",
		mergeHists(s.obs.park), 1e-9)
	obs.WriteProm(w, "affinity_steal_pop_seconds",
		"Queue-pop latency of connections served via stealing.",
		mergeHists(s.obs.steal), 1e-9)
	obs.WriteProm(w, "affinity_migrate_tick_seconds",
		"Duration of flow-group balance ticks (sec 3.3.2).",
		s.obs.migrate.Snapshot(), 1e-9)
	scalar(w, "affinity_events_recorded_total", "counter", "Control-plane events published to the trace rings.", s.obs.rings.Recorded())
	scalar(w, "affinity_events_dropped_total", "counter", "Trace events lost to ring writer collisions.", s.obs.rings.Dropped())

	perWorker(w, "affinity_evloop_ready_total", "counter", "Parked connections delivered ready by each worker's event loop.", len(ws), func(i int) any {
		ready, _, _ := s.loops[i].Counters()
		return ready
	})
	perWorker(w, "affinity_evloop_dead_total", "counter", "Parked connections the event loops gave up on (peer gone, deadline, shutdown).", len(ws), func(i int) any {
		_, dead, _ := s.loops[i].Counters()
		return dead
	})
	perWorker(w, "affinity_evloop_expired_total", "counter", "Parked connections closed by park-deadline expiry.", len(ws), func(i int) any {
		_, _, expired := s.loops[i].Counters()
		return expired
	})
	perWorker(w, "affinity_clock_lag_seconds", "gauge", "How far each worker's coarse clock trails the wall clock.", len(ws), func(i int) any { return s.ClockLag(i).Seconds() })

	// NUMA attribution: same-chip vs cross-chip totals carry a "dist"
	// label so one query isolates the remote traffic. The same-chip side
	// is the remainder of the per-worker totals the hops were counted in.
	var stolen, migrated uint64
	for _, x := range ws {
		stolen += x.ServedStolen
		migrated += x.MigratedIn
	}
	fmt.Fprintf(w, "# HELP affinity_cross_chip_steals_total Stolen connections by thief/victim chip distance.\n# TYPE affinity_cross_chip_steals_total counter\n")
	fmt.Fprintf(w, "affinity_cross_chip_steals_total{dist=\"same\"} %d\n", stolen-st.CrossChipSteals)
	fmt.Fprintf(w, "affinity_cross_chip_steals_total{dist=\"cross\"} %d\n", st.CrossChipSteals)
	fmt.Fprintf(w, "# HELP affinity_cross_chip_migrations_total Flow-group migrations by from/to chip distance.\n# TYPE affinity_cross_chip_migrations_total counter\n")
	fmt.Fprintf(w, "affinity_cross_chip_migrations_total{dist=\"same\"} %d\n", migrated-st.CrossChipMigrations)
	fmt.Fprintf(w, "affinity_cross_chip_migrations_total{dist=\"cross\"} %d\n", st.CrossChipMigrations)
	perWorker(w, "affinity_worker_chip", "gauge", "Which chip of the configured topology each worker maps to.", len(ws), func(i int) any { return ws[i].Chip })

	scalar(w, "affinity_migrate_interval_seconds", "gauge", "Current flow-group balancing interval chosen by the migration controller (0 with migration off).", st.AdaptiveInterval.Seconds())
	scalar(w, "affinity_frozen_groups", "gauge", "Flow groups currently frozen for ping-ponging between owners.", st.FrozenGroups)
	scalar(w, "affinity_group_freezes_total", "counter", "Flow groups frozen by the migration controller.", st.GroupFreezes)
	scalar(w, "affinity_group_unfreezes_total", "counter", "Frozen flow groups thawed after their cooldown.", st.GroupUnfreezes)
	perWorker(w, "affinity_worker_pinned_cpu", "gauge", "CPU each worker's thread is pinned to (-1 unpinned).", len(ws), func(i int) any { return ws[i].PinnedCPU })
	scalar(w, "affinity_pin_failures_total", "counter", "Workers that asked to pin their thread but could not.", st.PinFailures)
	fmt.Fprintf(w, "# HELP affinity_worker_wakes_total Worker returns from the park: a push it was signalled for, or the busy-bit decay tick.\n# TYPE affinity_worker_wakes_total counter\n")
	for i, x := range ws {
		fmt.Fprintf(w, "affinity_worker_wakes_total{worker=\"%d\",reason=\"push\"} %d\n", i, x.Wakes)
		fmt.Fprintf(w, "affinity_worker_wakes_total{worker=\"%d\",reason=\"decay\"} %d\n", i, x.DecayTicks)
	}
}

// scalar writes one unlabelled series with its HELP and TYPE lines.
func scalar(w io.Writer, name, typ, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
}

// perWorker writes one series per worker, labelled worker="i".
func perWorker(w io.Writer, name, typ, help string, workers int, v func(i int) any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := 0; i < workers; i++ {
		fmt.Fprintf(w, "%s{worker=\"%d\"} %v\n", name, i, v(i))
	}
}
