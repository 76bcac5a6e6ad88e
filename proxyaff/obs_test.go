package proxyaff

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestObsUpstreamLatency: a proxied round trip lands in the merged
// upstream exchange-latency histogram with a plausible value, and the
// Prometheus writer carries the proxy's series.
func TestObsUpstreamLatency(t *testing.T) {
	backend := startBackend(t, "origin")
	front, p := startEdge(t, Config{}, backend)
	conn, br := dialFront(t, front)

	const rounds = 4
	for i := 0; i < rounds; i++ {
		fmt.Fprint(conn, "GET /whoami HTTP/1.1\r\nHost: edge\r\n\r\n")
		if code, _, _ := readResponse(t, br); code != 200 {
			t.Fatalf("round %d: %d", i, code)
		}
	}

	m := p.UpstreamLatencySnapshot()
	if m.Count != rounds {
		t.Fatalf("exchange histogram count %d, want %d", m.Count, rounds)
	}
	if q := m.Quantile(0.5); q <= 0 || q > int64(5*time.Second) {
		t.Errorf("median exchange %v, not plausible for loopback", time.Duration(q))
	}

	var b strings.Builder
	p.WriteObsMetrics(&b)
	out := b.String()
	for _, series := range []string{
		"# TYPE affinity_upstream_exchange_seconds histogram",
		"affinity_upstream_exchange_seconds_bucket{le=\"+Inf\"} 4",
		`affinity_backend_ejections_total{backend=`,
		`affinity_backend_ejected{backend=`,
		"affinity_tunnels_active 0",
		"affinity_tunneled_total 0",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("proxy metrics missing %q", series)
		}
	}
}
