package httpaff

import (
	"io"
	"strings"
)

// AdmissionStats snapshots the HTTP layer's admission-policy counters;
// the transport-level half (per-IP rate limiting, the connection
// budget) lives in serve.Stats.
type AdmissionStats struct {
	// InflightHeaders is the instantaneous number of workers blocked
	// reading a fresh connection's first request head.
	InflightHeaders int64
	// HeaderTimeouts counts request heads cut off at their read
	// deadline (the slowloris defense firing); HeaderSheds counts
	// fresh connections 503'd over MaxInflightHeaders; OverloadSheds
	// counts fresh connections 503'd while every worker was busy.
	HeaderTimeouts uint64
	HeaderSheds    uint64
	OverloadSheds  uint64
	// Workers is the per-worker breakdown of the three counters above.
	Workers []WorkerAdmission
}

// WorkerAdmission is one worker's admission counters.
type WorkerAdmission struct {
	HeaderTimeouts uint64
	HeaderSheds    uint64
	OverloadSheds  uint64
}

// Admission snapshots the per-worker admission counters.
func (s *Server) Admission() AdmissionStats {
	st := AdmissionStats{
		InflightHeaders: s.inflightHeaders.Load(),
		Workers:         make([]WorkerAdmission, len(s.admitw)),
	}
	for i := range s.admitw {
		w := &s.admitw[i]
		st.Workers[i] = WorkerAdmission{
			HeaderTimeouts: w.headerTimeouts.Load(),
			HeaderSheds:    w.headerSheds.Load(),
			OverloadSheds:  w.overloadSheds.Load(),
		}
		st.HeaderTimeouts += st.Workers[i].HeaderTimeouts
		st.HeaderSheds += st.Workers[i].HeaderSheds
		st.OverloadSheds += st.Workers[i].OverloadSheds
	}
	return st
}

// MetricsHandler returns a handler serving the whole stack's counters
// in Prometheus text exposition format. It takes the httpaff Server
// (not just the transport) because the shed/ratelimit/deadline story
// spans both layers: the transport renders every serve series
// (serve.Server.WriteObsMetrics: locality, queues, accept-time
// admission, the event plane, the park/steal/migrate histograms), then
// the HTTP layer renders its own (Server.WriteObsMetrics: request
// histograms, header-deadline and 503-backpressure counters, arena
// reuse). Layers stacked above (proxyaff's upstream exchange
// histograms, wsaff's frame counters) compose in through extras — each
// is invoked in order and appends its own series, so one scrape
// endpoint covers the whole stack without a registry. Mount it on a
// Router path (conventionally "/metrics"); it is diagnostic, not
// hot-path, and allocates.
func MetricsHandler(srv *Server, extras ...func(io.Writer)) HandlerFunc {
	return func(ctx *RequestCtx) {
		var b strings.Builder
		srv.srv.WriteObsMetrics(&b)
		srv.WriteObsMetrics(&b)
		for _, extra := range extras {
			extra(&b)
		}
		ctx.SetContentType("text/plain; version=0.0.4; charset=utf-8")
		ctx.WriteString(b.String())
	}
}
