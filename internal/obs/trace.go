package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// traceEvent is one entry of the Chrome trace-event format (the JSON
// array consumed by chrome://tracing and Perfetto): "X" complete events
// are spans with a duration, "i" instants are point markers, "M"
// metadata events name the process and threads.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace renders a merged event timeline as a Chrome
// trace-event-format JSON document: each worker is a track (tid), each
// flow group's residency on a worker is a span on that worker's track
// (opened by the group's first hop there, closed by the migrate hop
// that moved it away), and the rare placement decisions — steals,
// migrations, reroutes, sheds — are instant markers. Park/wake churn is
// deliberately not emitted per event (it would dwarf the decisions the
// trace exists to show); it is visible as the span structure instead.
//
// Timestamps are rebased to the earliest event so the trace opens at
// t=0. Returns the number of residency spans written. Diagnostic path:
// allocates freely.
func WriteTrace(w io.Writer, workers int, events []Event) (spans int, err error) {
	var out []traceEvent
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "affinityaccept"},
	})
	for i := 0; i < workers; i++ {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: i,
			Args: map[string]any{"name": workerTrackName(i)},
		})
	}

	var ts0, tsEnd int64
	for i, ev := range events {
		if i == 0 || ev.TS < ts0 {
			ts0 = ev.TS
		}
		if ev.TS > tsEnd {
			tsEnd = ev.TS
		}
	}
	us := func(ts int64) float64 { return float64(ts-ts0) / 1e3 }

	for _, j := range Stitch(events) {
		owner, start := int32(-1), int64(0)
		emit := func(end int64) {
			if owner < 0 || int(owner) >= workers {
				return
			}
			dur := us(end) - us(start)
			if dur < 1 {
				// The coarse event clock (~50ms resolution) stamps many
				// hops identically; a floor of 1µs keeps zero-length
				// residencies visible in the viewer.
				dur = 1
			}
			out = append(out, traceEvent{
				Name: groupSpanName(j.Group), Cat: "residency", Ph: "X",
				TS: us(start), Dur: dur, PID: 0, TID: int(owner),
				Args: map[string]any{"group": j.Group},
			})
			spans++
		}
		for _, ev := range j.Hops {
			switch ev.Kind {
			case KindMigrate:
				if owner < 0 {
					// The accept hop wrapped out of its ring: open the
					// residency retroactively on the migration's source.
					owner, start = int32(ev.B), ev.TS
				}
				emit(ev.TS)
				out = append(out, traceEvent{
					Name: "migrate", Cat: "decision", Ph: "i",
					TS: us(ev.TS), PID: 0, TID: int(int32(ev.C)), S: "t",
					Args: map[string]any{"group": j.Group, "from": ev.B, "to": ev.C, "hop": ev.Hop},
				})
				owner, start = int32(ev.C), ev.TS
			case KindSteal:
				// Served by the thief while the group stays put — an
				// instant on the thief's track, not a residency change.
				out = append(out, traceEvent{
					Name: "steal", Cat: "decision", Ph: "i",
					TS: us(ev.TS), PID: 0, TID: int(ev.Worker), S: "t",
					Args: map[string]any{"group": j.Group, "victim": ev.A, "popNs": ev.B, "hop": ev.Hop},
				})
				if owner < 0 {
					owner, start = int32(ev.A), ev.TS
				}
			case KindReroute:
				out = append(out, traceEvent{
					Name: "requeue-reroute", Cat: "decision", Ph: "i",
					TS: us(ev.TS), PID: 0, TID: int(ev.Worker), S: "t",
					Args: map[string]any{"group": j.Group, "parkLoop": ev.B, "hop": ev.Hop},
				})
				if owner < 0 {
					owner, start = ev.Worker, ev.TS
				}
			case KindShed:
				out = append(out, traceEvent{
					Name: "shed", Cat: "decision", Ph: "i",
					TS: us(ev.TS), PID: 0, TID: int(ev.Worker), S: "t",
					Args: map[string]any{"group": j.Group, "hop": ev.Hop},
				})
				if owner < 0 {
					owner, start = ev.Worker, ev.TS
				}
			default:
				// accept / park / wake / park-dead: the
				// first of them opens the residency when nothing else has.
				if owner < 0 {
					owner, start = ev.Worker, ev.TS
				}
			}
		}
		emit(tsEnd)
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return spans, enc.Encode(doc)
}

func workerTrackName(w int) string {
	return "worker " + strconv.Itoa(w)
}

func groupSpanName(g int32) string {
	return "group " + strconv.Itoa(int(g))
}
