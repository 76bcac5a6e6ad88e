package proxyaff

import (
	"fmt"
	"io"
	"time"

	"affinityaccept/internal/obs"
)

// UpstreamLatencySnapshot returns the upstream exchange-latency
// histogram merged across workers — backend pick to response relayed,
// dial included. Diagnostic path: allocates.
func (p *Proxy) UpstreamLatencySnapshot() obs.HistSnapshot {
	m := p.workers[0].exch.Snapshot()
	for i := 1; i < len(p.workers); i++ {
		m.Merge(p.workers[i].exch.Snapshot())
	}
	return m
}

// WriteObsMetrics renders the proxy's observability series in Prometheus
// text format: the upstream exchange-latency histogram plus per-backend
// health counters and the tunnel gauges. Pass it as an extra to
// httpaff.MetricsHandler so one scrape covers the whole stack.
func (p *Proxy) WriteObsMetrics(w io.Writer) {
	obs.WriteProm(w, "affinity_upstream_exchange_seconds",
		"Upstream exchange latency from backend pick to response relayed, dial included.",
		p.UpstreamLatencySnapshot(), 1e-9)
	now := time.Now().UnixNano()
	fmt.Fprintf(w, "# HELP affinity_backend_ejections_total Times a backend was passively ejected after consecutive failures.\n# TYPE affinity_backend_ejections_total counter\n")
	for i := range p.backends {
		b := &p.backends[i]
		fmt.Fprintf(w, "affinity_backend_ejections_total{backend=%q} %d\n", b.addr, b.ejections.Load())
	}
	fmt.Fprintf(w, "# HELP affinity_backend_ejected Whether the backend is passively ejected right now.\n# TYPE affinity_backend_ejected gauge\n")
	for i := range p.backends {
		b := &p.backends[i]
		ej := 0
		if b.ejected(now) {
			ej = 1
		}
		fmt.Fprintf(w, "affinity_backend_ejected{backend=%q} %d\n", b.addr, ej)
	}
	fmt.Fprintf(w, "# HELP affinity_tunnels_active Upgrade tunnels relaying right now.\n# TYPE affinity_tunnels_active gauge\naffinity_tunnels_active %d\n", p.tunnels.Load())
	fmt.Fprintf(w, "# HELP affinity_tunneled_total Upgrade tunnels relayed, lifetime.\n# TYPE affinity_tunneled_total counter\naffinity_tunneled_total %d\n", p.tunneled.Load())
}
