package httpaff

import (
	"bytes"
	"encoding/json"
	"strconv"

	"affinityaccept/internal/obs"
)

// maxJourneys and maxHops bound the /debug/flows response. The journey
// layer can hold thousands of groups with hundreds of hops each; an
// unbounded dump would make the diagnostic endpoint a DoS lever on the
// server it is diagnosing, so the handler ranks journeys by activity
// and truncates — and says so in the response. When more than
// maxJourneys groups are active the hottest ones (most hops in the
// window) win; each journey's hop list is cut to its newest maxHops
// entries (summary counters still cover the whole window).
const (
	maxJourneys = 64
	maxHops     = 64
)

// flowsBody is the JSON shape FlowsHandler serves.
type flowsBody struct {
	Workers int `json:"workers"`
	// Since echoes the request cursor; NextSince is the largest event
	// Seq covered by this response — pass it as the next poll's since=
	// to receive only newer hops.
	Since     uint64        `json:"since"`
	NextSince uint64        `json:"nextSince"`
	Truncated bool          `json:"truncated"`
	Journeys  []obs.Journey `json:"journeys"`
}

// FlowsHandler returns a handler serving the stitched per-flow-group
// journeys as JSON. Query parameters: group=N restricts to one flow
// group; since=SEQ stitches only events newer than that sequence
// number (the same cursor /debug/events uses). Journeys are ranked by
// hop count — the hottest groups first — and bounded by maxJourneys
// and maxHops. Mount it on a Router path (conventionally
// "/debug/flows"). Diagnostic, not hot-path: it allocates.
func FlowsHandler(srv *Server) HandlerFunc {
	return func(ctx *RequestCtx) {
		q := ctx.Query()
		since := uint64(queryInt(q, "since", 0))
		group := queryInt(q, "group", -1)

		journeys := srv.srv.Journeys(since)
		var next uint64
		for _, j := range journeys {
			for _, ev := range j.Hops {
				if ev.Seq > next {
					next = ev.Seq
				}
			}
		}
		if group >= 0 {
			kept := journeys[:0]
			for _, j := range journeys {
				if int64(j.Group) == group {
					kept = append(kept, j)
				}
			}
			journeys = kept
		}
		body := flowsBody{
			Workers:   srv.srv.Workers(),
			Since:     since,
			NextSince: next,
			Journeys:  journeys,
		}
		if len(journeys) > maxJourneys {
			// Hottest groups win: most hops in the window. Stable on the
			// group-ID order Stitch returns, so equal-activity groups
			// don't flap between polls.
			sortJourneysByHops(journeys)
			body.Journeys = journeys[:maxJourneys]
			body.Truncated = true
		}
		for i := range body.Journeys {
			if len(body.Journeys[i].Hops) > maxHops {
				body.Journeys[i].Hops = body.Journeys[i].Tail(maxHops)
				body.Truncated = true
			}
		}
		out, err := json.Marshal(body)
		if err != nil {
			ctx.SetStatus(500)
			return
		}
		ctx.SetContentType("application/json")
		ctx.Write(out)
	}
}

// sortJourneysByHops orders journeys by descending hop count (insertion
// sort keeps the by-group order among equals without a sort.SliceStable
// comparator allocation — journey counts here are already bounded).
func sortJourneysByHops(js []obs.Journey) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && len(js[k].Hops) > len(js[k-1].Hops); k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

// TraceHandler returns a handler exporting the event timeline in Chrome
// trace-event format — load the response in chrome://tracing or
// Perfetto: one track per worker, one span per flow-group residency,
// instant markers for steals, migrations, reroutes and sheds. Mount it
// on a Router path (conventionally "/debug/trace"). Diagnostic, not
// hot-path: it allocates.
func TraceHandler(srv *Server) HandlerFunc {
	return func(ctx *RequestCtx) {
		var buf bytes.Buffer
		if _, err := obs.WriteTrace(&buf, srv.srv.Workers(), srv.srv.Events()); err != nil {
			ctx.SetStatus(500)
			return
		}
		ctx.SetContentType("application/json")
		ctx.Write(buf.Bytes())
	}
}

// queryValue scans a raw query string for key and returns its value
// (nil when absent). No unescaping: the debug endpoints' parameters are
// all numeric.
func queryValue(q []byte, key string) []byte {
	for len(q) > 0 {
		var pair []byte
		if i := bytes.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, nil
		}
		if i := bytes.IndexByte(pair, '='); i >= 0 && string(pair[:i]) == key {
			return pair[i+1:]
		}
	}
	return nil
}

// queryInt parses an integer query parameter, returning def when the
// parameter is absent or malformed.
func queryInt(q []byte, key string, def int64) int64 {
	v := queryValue(q, key)
	if v == nil {
		return def
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return def
	}
	return n
}
