// JSON emission for the perf trajectory: each -serve run can append one
// record to a JSON array file (CI writes BENCH_ci.json this way and
// uploads it as an artifact, so every commit leaves a data point).
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
)

// benchReport is one -serve/-http run's metrics, shaped for trend
// tooling: throughput, latency percentiles, the paper's locality, steal
// and migration counters, the httpaff pool counters, and the runtime
// environment (fillEnv) so records are comparable across runs and
// machines.
type benchReport struct {
	Scenario     string  `json:"scenario"`
	Workers      int     `json:"workers"`
	Clients      int     `json:"clients"`
	LongLived    int     `json:"longLived,omitempty"`
	Pipeline     int     `json:"pipeline,omitempty"`
	DurationSecs float64 `json:"durationSecs"`
	ReqPerSec    float64 `json:"reqPerSec"`
	ConnPerSec   float64 `json:"connPerSec,omitempty"`
	P50us        float64 `json:"p50us"`
	P95us        float64 `json:"p95us"`
	P99us        float64 `json:"p99us"`
	Failed       uint64  `json:"failed"`
	Sharded      bool    `json:"sharded"`
	MigrationOn  bool    `json:"migrationOn"`
	LocalityPct  float64 `json:"localityPct"`
	StealPct     float64 `json:"stealPct"`
	ServedStolen uint64  `json:"servedStolen,omitempty"`
	Migrations   uint64  `json:"migrations"`
	Requeued     uint64  `json:"requeued"`
	Dropped      uint64  `json:"dropped"`

	// httpaff worker-local pool counters (http scenarios only).
	PoolGets     uint64  `json:"poolGets,omitempty"`
	PoolMisses   uint64  `json:"poolMisses,omitempty"`
	PoolReusePct float64 `json:"poolReusePct,omitempty"`

	// Server-side service-latency quantiles (http scenarios only), from
	// the workers' own head-read→flush histograms. Their gap to the
	// client-observed p50us/p99us above is queueing plus the loopback
	// hop — the split client-only measurement cannot give.
	SrvP50us  float64 `json:"srvP50us,omitempty"`
	SrvP99us  float64 `json:"srvP99us,omitempty"`
	SrvP999us float64 `json:"srvP999us,omitempty"`
	// Scrapes counts mid-run /metrics + /debug/events fetches when
	// -scrape-every is set (the scraped scenario's proof of load).
	Scrapes uint64 `json:"scrapes,omitempty"`
	// MigrateEvents is the KindMigrate count on the control ring at
	// window end (-longlived scenarios); the acceptance property is
	// MigrateEvents == Migrations.
	MigrateEvents uint64 `json:"migrateEvents,omitempty"`

	// Flow-journey and NUMA-attribution fields. Journeys is the stitched
	// per-group journey count at window end; JourneyMigrateHops the
	// migrate hops summed across those journeys (the acceptance property
	// in -longlived mode is JourneyMigrateHops == Migrations). Chips,
	// CrossChipSteals and CrossChipMigrations come from the -chips
	// attribution pass. TraceFile/TraceSpans record the -trace export.
	Journeys            int    `json:"journeys,omitempty"`
	JourneyMigrateHops  uint64 `json:"journeyMigrateHops,omitempty"`
	Chips               int    `json:"chips,omitempty"`
	CrossChipSteals     uint64 `json:"crossChipSteals,omitempty"`
	CrossChipMigrations uint64 `json:"crossChipMigrations,omitempty"`
	TraceFile           string `json:"traceFile,omitempty"`
	TraceSpans          int    `json:"traceSpans,omitempty"`

	// Topology-aware scheduling fields. The adaptive fields record the
	// migration controller's state at window end; the pinning pair
	// accounts for every worker (pinned + failed = workers when -pin is
	// set).
	AdaptiveIntervalMs float64 `json:"adaptiveIntervalMs,omitempty"`
	FrozenGroups       int64   `json:"frozenGroups,omitempty"`
	GroupFreezes       uint64  `json:"groupFreezes,omitempty"`
	GroupUnfreezes     uint64  `json:"groupUnfreezes,omitempty"`
	PinnedWorkers      int     `json:"pinnedWorkers,omitempty"`
	PinFailures        uint64  `json:"pinFailures,omitempty"`

	// proxyaff upstream connection-pool counters (proxy scenarios only).
	Backends         int     `json:"backends,omitempty"`
	UpstreamGets     uint64  `json:"upstreamGets,omitempty"`
	UpstreamMisses   uint64  `json:"upstreamMisses,omitempty"`
	UpstreamReusePct float64 `json:"upstreamReusePct,omitempty"`

	// wsaff long-lived workload counters (-ws scenarios only). WSHeld is
	// the held-open idle population, WSParked the sockets parked when
	// the window ended, WSReceived the broadcast frames the held clients
	// actually read.
	WSHeld       uint64 `json:"wsHeld,omitempty"`
	WSParked     int64  `json:"wsParked,omitempty"`
	WSFramesIn   uint64 `json:"wsFramesIn,omitempty"`
	WSFramesOut  uint64 `json:"wsFramesOut,omitempty"`
	WSPings      uint64 `json:"wsPings,omitempty"`
	WSPongs      uint64 `json:"wsPongs,omitempty"`
	WSBroadcasts uint64 `json:"wsBroadcasts,omitempty"`
	WSDelivered  uint64 `json:"wsDelivered,omitempty"`
	WSReceived   uint64 `json:"wsReceived,omitempty"`

	// Event-loop metrics (-ws scenarios with -held). HeldConns is the
	// held-open population under its schema name (same value as wsHeld);
	// Goroutines is runtime.NumGoroutine sampled at window end — the
	// O(workers)-not-O(connections) regression gate; CoarseClockLagUs is
	// the worst per-worker coarse-clock staleness observed at window end
	// (bounded by the event loop's poll interval, ~50ms).
	HeldConns        uint64  `json:"heldConns,omitempty"`
	Goroutines       int     `json:"goroutines,omitempty"`
	CoarseClockLagUs float64 `json:"coarseClockLagUs,omitempty"`

	// Admission-control counters (-hostile scenarios only). The server
	// side: accept-time rate limiting, budget shedding, header-deadline
	// cuts, 503 backpressure. The attacker side: what the hostile
	// clients observed from outside.
	Ratelimited    uint64 `json:"ratelimited,omitempty"`
	ShedParked     uint64 `json:"shedParked,omitempty"`
	BudgetRejected uint64 `json:"budgetRejected,omitempty"`
	AcceptRetries  uint64 `json:"acceptRetries,omitempty"`
	HeaderTimeouts uint64 `json:"headerTimeouts,omitempty"`
	HeaderSheds    uint64 `json:"headerSheds,omitempty"`
	OverloadSheds  uint64 `json:"overloadSheds,omitempty"`
	LivePeak       int64  `json:"livePeak,omitempty"`
	MaxConns       int    `json:"maxConns,omitempty"`
	SlowClients    int    `json:"slowClients,omitempty"`
	SlowClosed     uint64 `json:"slowClosed,omitempty"`
	FloodClients   int    `json:"floodClients,omitempty"`
	FloodAttempts  uint64 `json:"floodAttempts,omitempty"`
	FloodServed    uint64 `json:"floodServed,omitempty"`
	FloodRefused   uint64 `json:"floodRefused,omitempty"`

	// Environment metadata.
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// fillEnv stamps the runtime environment onto the record.
func (r *benchReport) fillEnv() {
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.OS = runtime.GOOS
	r.Arch = runtime.GOARCH
}

// appendJSONReport appends rep to the JSON array in path, creating the
// file if needed. Read-modify-write keeps the file a valid JSON array
// rather than JSON-lines, so downstream tooling can ingest it directly.
func appendJSONReport(path string, rep benchReport) error {
	var reports []benchReport
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(data) > 0 {
			if jerr := json.Unmarshal(data, &reports); jerr != nil {
				return fmt.Errorf("existing file is not a JSON report array: %w", jerr)
			}
		}
	case errors.Is(err, os.ErrNotExist):
		// First record.
	default:
		return err
	}
	reports = append(reports, rep)
	out, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
