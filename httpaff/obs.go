package httpaff

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"affinityaccept/internal/obs"
)

// workerObs is one worker's request-path histograms. Each worker
// records only into its own entry, from its own goroutine, through a
// Stage: a sample is plain arithmetic, and the atomic adds are paid
// per pass, when the worker folds. The merge across workers happens at
// scrape time, never on the hot path.
type workerObs struct {
	svc       obs.Stage // head-read -> flush service latency, ns
	reqBytes  obs.Stage // bytes consumed per request (head + body)
	respBytes obs.Stage // bytes serialized per response
	_         [64]byte  // written per request: keeps the next worker's stages off this line
}

// record stages one completed request's samples.
func (ow *workerObs) record(svcNs, reqB, respB int64) {
	ow.svc.Record(svcNs)
	ow.reqBytes.Record(reqB)
	ow.respBytes.Record(respB)
}

// fold publishes the staged samples. It runs at every pass end, before
// the requeue, and at every mid-pipeline flush.
func (ow *workerObs) fold() {
	ow.svc.Fold()
	ow.reqBytes.Fold()
	ow.respBytes.Fold()
}

// mergedSvc returns the service-latency histogram merged across
// workers. Diagnostic path: allocates.
func (s *Server) mergedSvc() obs.HistSnapshot {
	m := s.obsw[0].svc.Hist.Snapshot()
	for i := 1; i < len(s.obsw); i++ {
		m.Merge(s.obsw[i].svc.Hist.Snapshot())
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
// format: the request-path histograms, the 503-backpressure admission
// counter, and each worker's arena reuse.
// The unified MetricsHandler composes it with the transport's
// WriteObsMetrics.
func (s *Server) WriteObsMetrics(w io.Writer) {
	ad := s.Admission()
	fmt.Fprintf(w, "# HELP affinity_overload_sheds_total Fresh connections 503'd while every worker was over its busy watermark.\n# TYPE affinity_overload_sheds_total counter\n")
	for i, x := range ad.Workers {
		fmt.Fprintf(w, "affinity_overload_sheds_total{worker=\"%d\"} %d\n", i, x.OverloadSheds)
	}
	fmt.Fprintf(w, "# HELP affinity_pool_reuses_total Worker-arena request contexts served from the worker's own slot.\n# TYPE affinity_pool_reuses_total counter\n")
	for i, a := range s.arenas {
		fmt.Fprintf(w, "affinity_pool_reuses_total{worker=\"%d\"} %d\n", i, a.counters.Snapshot().Reuses)
	}

	obs.WriteProm(w, "affinity_http_request_duration_seconds",
		"Service latency from head-read start to response flush, measured on the worker.",
		s.mergedSvc(), 1e-9)
	req := s.obsw[0].reqBytes.Hist.Snapshot()
	resp := s.obsw[0].respBytes.Hist.Snapshot()
	for i := 1; i < len(s.obsw); i++ {
		req.Merge(s.obsw[i].reqBytes.Hist.Snapshot())
		resp.Merge(s.obsw[i].respBytes.Hist.Snapshot())
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
