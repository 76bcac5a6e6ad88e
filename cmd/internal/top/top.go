// Package top renders a server's state from its metrics scrape: the
// Prometheus text serve.Server.WriteObsMetrics writes (alone, or inside
// httpaff.MetricsHandler's unified /metrics) parsed into Series, and
// Write prints the summary lines and the per-worker locality table.
// affinity-top draws its live frames with it and affinity-bench its
// end-of-run report, so the two read the same series users scrape.
package top

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Series is one scrape: the full series name, label set included, to
// its value, e.g. `affinity_served_total{worker="0",queue="local"}`.
type Series map[string]float64

// Parse reads Prometheus text exposition into Series, skipping comments
// and lines whose value does not parse.
func Parse(text []byte) Series {
	out := make(Series)
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// Worker reads a per-worker series like `name{worker="3"}`, 0 when absent.
func (s Series) Worker(name string, w int) float64 {
	return s[fmt.Sprintf(`%s{worker="%d"}`, name, w)]
}

// Served reads worker w's handler passes popped from its own queue and
// stolen from others.
func (s Series) Served(w int) (local, stolen float64) {
	return s[fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, w)],
		s[fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, w)]
}

// pinnedCPU reads the CPU worker w is pinned to. Presence-checked: an
// absent gauge reads 0, which would count as a pin to CPU 0.
func (s Series) pinnedCPU(w int) (int, bool) {
	v, ok := s[fmt.Sprintf(`affinity_worker_pinned_cpu{worker="%d"}`, w)]
	return int(v), ok && v >= 0
}

// Header and rows share their column widths, wide enough for
// production-scale counters (11 digits of accepts, 8-digit parked
// populations), so the table cannot drift however wide the numbers get.
const (
	headerFmt = "%-6s %4s %4s %11s %11s %11s %8s %7s %7s %8s %7s %8s %8s %5s\n"
	rowFmt    = "%-6d %4.0f %4s %11.0f %11.0f %11.0f %8.0f %7.0f %7.0f %8.0f %7.0f %8.0f %8.0f %5s\n"
)

// Write prints the summary lines and the per-worker table.
func Write(w io.Writer, s Series) {
	workers := int(s["affinity_workers"])
	var accepted, local, stolen, queued, active, chips, pinned float64
	for i := 0; i < workers; i++ {
		l, st := s.Served(i)
		local, stolen = local+l, stolen+st
		accepted += s.Worker("affinity_accepted_total", i)
		queued += s.Worker("affinity_queue_depth", i)
		active += s.Worker("affinity_worker_active", i)
		chips = max(chips, s.Worker("affinity_worker_chip", i)+1)
		if _, ok := s.pinnedCPU(i); ok {
			pinned++
		}
	}
	locality := 100.0
	if local+stolen > 0 {
		locality = 100 * local / (local + stolen)
	}
	mode := "shared listener"
	if s["affinity_sharded"] > 0 {
		mode = "SO_REUSEPORT per-worker listeners"
	}
	fmt.Fprintf(w, "mode: %s, %.0f flow groups\n", mode, s["affinity_flow_groups"])
	fmt.Fprintf(w, "accepted %.0f  served %.0f (%.1f%% local)  stolen %.0f  dropped %.0f  requeued %.0f  parked %.0f  migrations %.0f  queued %.0f  active %.0f\n",
		accepted, local+stolen, locality, stolen, s["affinity_dropped_total"], s["affinity_requeued_total"],
		s["affinity_parked"], s["affinity_migrations_total"], queued, active)
	limited, shed, rejected := s["affinity_ratelimited_total"], s["affinity_shed_parked_total"], s["affinity_budget_rejected_total"]
	retries, budget := s["affinity_accept_retries_total"], s["affinity_conn_budget"]
	if limited+shed+rejected+retries+budget > 0 {
		fmt.Fprintf(w, "admission: ratelimited %.0f  shed-parked %.0f  budget-rejected %.0f  accept-retries %.0f  live %.0f (peak %.0f / budget %.0f)\n",
			limited, shed, rejected, retries, s["affinity_live_conns"], s["affinity_live_conns_peak"], budget)
	}
	if chips > 1 {
		fmt.Fprintf(w, "numa: %.0f chips  cross-chip steals %.0f  cross-chip migrations %.0f\n", chips,
			s[`affinity_cross_chip_steals_total{dist="cross"}`], s[`affinity_cross_chip_migrations_total{dist="cross"}`])
	}
	if iv := s["affinity_migrate_interval_seconds"]; iv > 0 {
		fmt.Fprintf(w, "adaptive: interval %s  frozen groups %.0f (freezes %.0f, thaws %.0f)\n",
			time.Duration(iv*float64(time.Second)).Round(time.Millisecond), s["affinity_frozen_groups"],
			s["affinity_group_freezes_total"], s["affinity_group_unfreezes_total"])
	}
	if failed := s["affinity_pin_failures_total"]; pinned > 0 || failed > 0 {
		fmt.Fprintf(w, "pinning: %.0f workers pinned, %.0f failed\n", pinned, failed)
	}

	fmt.Fprintf(w, headerFmt, "worker", "chip", "cpu", "accepted", "local", "stolen", "x-steal",
		"active", "qdepth", "parked", "groups", "migr-in", "lag-us", "busy")
	for i := 0; i < workers; i++ {
		cpu := "-"
		if v, ok := s.pinnedCPU(i); ok {
			cpu = strconv.Itoa(v)
		}
		busy := ""
		if s.Worker("affinity_worker_busy", i) > 0 {
			busy = "*"
		}
		l, st := s.Served(i)
		fmt.Fprintf(w, rowFmt, i, s.Worker("affinity_worker_chip", i), cpu,
			s.Worker("affinity_accepted_total", i), l, st,
			s.Worker("affinity_worker_cross_chip_steals_total", i), s.Worker("affinity_worker_active", i),
			s.Worker("affinity_queue_depth", i), s.Worker("affinity_worker_parked", i),
			s.Worker("affinity_worker_groups", i), s.Worker("affinity_migrated_in_total", i),
			s.Worker("affinity_clock_lag_seconds", i)*1e6, busy)
	}
}
