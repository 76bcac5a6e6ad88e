package httpaff

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"affinityaccept/internal/obs"
)

// workerObs is one worker's request-path histograms. Each worker
// records only into its own entry — from its own goroutine, with two
// atomic adds per histogram sample — and the merge across workers
// happens at scrape time, never on the hot path.
type workerObs struct {
	svc       *obs.Hist // head-read -> flush service latency, ns
	reqBytes  *obs.Hist // bytes consumed per request (head + body)
	respBytes *obs.Hist // bytes serialized per response
}

// record samples one completed request into the worker's histograms.
func (ow *workerObs) record(svcNs, reqB, respB int64) {
	ow.svc.Record(svcNs)
	ow.reqBytes.Record(reqB)
	ow.respBytes.Record(respB)
}

// mergedSvc returns the service-latency histogram merged across
// workers. Diagnostic path: allocates.
func (s *Server) mergedSvc() obs.HistSnapshot {
	m := s.obsw[0].svc.Snapshot()
	for i := 1; i < len(s.obsw); i++ {
		m.Merge(s.obsw[i].svc.Snapshot())
	}
	return m
}

// ServiceLatencyQuantiles reports the requested quantiles (0 < q <= 1)
// of the merged server-side service-latency histogram — time from the
// start of a request's head read to its response flush, as measured on
// the workers. The benchmark records these next to the client-observed
// quantiles, so queueing delay (client-side minus server-side) is
// separable from service time.
func (s *Server) ServiceLatencyQuantiles(qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	m := s.mergedSvc()
	for i, q := range qs {
		out[i] = time.Duration(m.Quantile(q))
	}
	return out
}

// WriteObsMetrics renders the HTTP layer's series in Prometheus text
// format: the request-path histograms, the header-deadline and
// 503-backpressure admission counters, and each worker's arena reuse.
// The unified MetricsHandler composes it with the transport's
// WriteObsMetrics.
func (s *Server) WriteObsMetrics(w io.Writer) {
	ad := s.Admission()
	fmt.Fprintf(w, "# HELP affinity_inflight_headers Workers blocked reading a fresh connection's first request head.\n# TYPE affinity_inflight_headers gauge\naffinity_inflight_headers %d\n", ad.InflightHeaders)
	fmt.Fprintf(w, "# HELP affinity_header_timeouts_total Request heads cut off at the header read deadline (slowloris defense).\n# TYPE affinity_header_timeouts_total counter\n")
	for i, x := range ad.Workers {
		fmt.Fprintf(w, "affinity_header_timeouts_total{worker=\"%d\"} %d\n", i, x.HeaderTimeouts)
	}
	fmt.Fprintf(w, "# HELP affinity_header_sheds_total Fresh connections 503'd over MaxInflightHeaders.\n# TYPE affinity_header_sheds_total counter\n")
	for i, x := range ad.Workers {
		fmt.Fprintf(w, "affinity_header_sheds_total{worker=\"%d\"} %d\n", i, x.HeaderSheds)
	}
	fmt.Fprintf(w, "# HELP affinity_overload_sheds_total Fresh connections 503'd while every worker was over its busy watermark.\n# TYPE affinity_overload_sheds_total counter\n")
	for i, x := range ad.Workers {
		fmt.Fprintf(w, "affinity_overload_sheds_total{worker=\"%d\"} %d\n", i, x.OverloadSheds)
	}
	fmt.Fprintf(w, "# HELP affinity_pool_reuses_total Worker-arena request contexts served from the local free list.\n# TYPE affinity_pool_reuses_total counter\n")
	for i, a := range s.arenas {
		fmt.Fprintf(w, "affinity_pool_reuses_total{worker=\"%d\"} %d\n", i, a.counters.Snapshot().Reuses)
	}

	obs.WriteProm(w, "affinity_http_request_duration_seconds",
		"Service latency from head-read start to response flush, measured on the worker.",
		s.mergedSvc(), 1e-9)
	req := s.obsw[0].reqBytes.Snapshot()
	resp := s.obsw[0].respBytes.Snapshot()
	for i := 1; i < len(s.obsw); i++ {
		req.Merge(s.obsw[i].reqBytes.Snapshot())
		resp.Merge(s.obsw[i].respBytes.Snapshot())
	}
	obs.WriteProm(w, "affinity_http_request_size_bytes",
		"Request bytes consumed per request (head plus body).", req, 1)
	obs.WriteProm(w, "affinity_http_response_size_bytes",
		"Response bytes serialized per request.", resp, 1)
}

// Events drains the transport's merged control-plane event timeline;
// see serve.Server.Events.
func (s *Server) Events() []obs.Event { return s.srv.Events() }

// eventsBody is the JSON shape EventsHandler serves.
type eventsBody struct {
	Recorded uint64      `json:"recorded"`
	Dropped  uint64      `json:"dropped"`
	Events   []obs.Event `json:"events"`
}

// EventsHandler returns a handler serving the control-plane event
// timeline as JSON: every accept/steal/migrate/park/wake/shed decision
// still held by the trace rings, ordered by sequence number, plus the
// recorded/dropped totals. The since=SEQ query parameter makes polling
// incremental: only events with a larger sequence number are returned,
// so a poller that passes the largest Seq it has seen receives each
// event exactly once. Mount it on a Router path (conventionally
// "/debug/events"). Diagnostic, not hot-path: it allocates.
func EventsHandler(srv *Server) HandlerFunc {
	return func(ctx *RequestCtx) {
		since := uint64(queryInt(ctx.Query(), "since", 0))
		evs := srv.srv.EventsSince(since)
		if evs == nil {
			evs = []obs.Event{}
		}
		out, err := json.Marshal(eventsBody{
			Recorded: srv.srv.EventsRecorded(),
			Dropped:  srv.srv.EventsDropped(),
			Events:   evs,
		})
		if err != nil {
			ctx.SetStatus(500)
			return
		}
		ctx.SetContentType("application/json")
		ctx.Write(out)
	}
}
