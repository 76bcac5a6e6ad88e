// Package obs is the stack's zero-allocation observability layer: the
// fixed-bucket atomic histograms and lock-free event rings every tier
// (serve, httpaff, proxyaff, wsaff) records into on its hot path, and
// the snapshot/merge/export machinery the metrics and debug endpoints
// read from.
//
// The design constraints come from the layers above, not from
// observability fashion:
//
//   - Recording must cost zero allocations and a handful of atomic
//     operations, because the request path it instruments is itself
//     allocation-free (the httpaff/proxyaff/wsaff steady-state gates)
//     and a telemetry layer that breaks that property cannot measure
//     it honestly.
//   - State must be per-worker, like everything else in the stack: a
//     worker records into its own histogram and its own event ring,
//     so the hot path shares no written cache line with other workers.
//     Cross-worker aggregation happens only at snapshot time, in the
//     (allocating, diagnostic) scrape handlers.
//   - Readers must never block writers. Snapshots are opportunistic:
//     a histogram snapshot is a per-bucket atomic sweep, an event-ring
//     drain validates each slot with a seqlock and simply skips a slot
//     it raced a writer on.
package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// epoch anchors Nanos. Using time.Since keeps the reading on Go's
// monotonic clock (one VDSO call, no allocation) and keeps values small
// enough that the histogram's range never saturates.
var epoch = time.Now()

// Nanos is the fine-grained monotonic clock the latency histograms are
// stamped from: nanoseconds since process start. It is the companion of
// the event loops' coarse per-worker clock — the coarse clock dates
// events (~50ms resolution is plenty for a timeline), Nanos measures
// durations (service latency, park time, steal cost).
func Nanos() int64 { return int64(time.Since(epoch)) }

// Kind classifies a control-plane event. The set mirrors the decisions
// the paper's policies make about a connection: where it was accepted,
// whether it was stolen or its group migrated, and why it was parked,
// woken, or shed.
type Kind uint8

const (
	// KindAccept: a fresh connection was routed to a worker's queue.
	// A = remote port (the flow-group key).
	KindAccept Kind = iota
	// KindSteal: a worker popped a connection from another worker's
	// queue (§3.3.1). A = victim worker, B = pop cost in nanoseconds,
	// C = remote port.
	KindSteal
	// KindMigrate: a flow group changed owners (§3.3.2).
	// A = flow group, B = old owner, C = new owner.
	KindMigrate
	// KindReroute: a parked connection woke on one worker's event loop
	// but its flow group had migrated, so it was pushed to the new
	// owner's queue. A = remote port, B = the loop it parked on.
	KindReroute
	// KindPark: a keep-alive connection parked on a worker's event
	// loop to wait for its next request. A = remote port.
	KindPark
	// KindWake: a parked connection's next request bytes arrived.
	// A = remote port, B = park duration in nanoseconds.
	KindWake
	// KindShed: a parked connection was closed LIFO to reclaim its
	// descriptor or budget slot, or a fresh one answered 503 under
	// overload. A = remote port.
	KindShed
	// KindRatelimit: a connection was closed at accept because its
	// client IP's token bucket was empty. A = remote port.
	KindRatelimit
	// KindParkDead: a parked connection was closed by its event loop —
	// peer gone, park deadline expired, or shutdown sweep.
	// A = remote port, B = park duration in nanoseconds.
	KindParkDead

	kindCount
)

var kindNames = [kindCount]string{
	KindAccept:    "accept",
	KindSteal:     "steal",
	KindMigrate:   "migrate",
	KindReroute:   "requeue-reroute",
	KindPark:      "park",
	KindWake:      "wake",
	KindShed:      "shed",
	KindRatelimit: "ratelimit",
	KindParkDead:  "park-dead",
}

// String names the kind as it appears in /debug/events JSON.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name, so event dumps read as
// "migrate" rather than an enum ordinal that drifts when kinds are
// added.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON inverts MarshalJSON, so tools (the benchmark's event
// checker) can decode /debug/events dumps back into Event values.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}
