// Command affinity-top is a live terminal dashboard for an
// affinityaccept server: it polls the unified /metrics endpoint and the
// /debug/flows journey endpoint and renders per-worker load, locality,
// steal and migration rates, plus the hottest flow groups with the tail
// of their journeys — the §3.3 control plane at a glance.
//
// Usage:
//
//	affinity-top -addr 127.0.0.1:8080
//	affinity-top -addr 127.0.0.1:8080 -every 500ms -top 12
//	affinity-top -addr 127.0.0.1:8080 -once        # one frame, no clear
//
// The server must mount httpaff.MetricsHandler on /metrics and
// httpaff.FlowsHandler on /debug/flows (affinity-bench -http does, as
// do both examples).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"affinityaccept/internal/obs"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:8080", "server host:port (must serve /metrics and /debug/flows)")
		every = flag.Duration("every", time.Second, "poll period")
		top   = flag.Int("top", 8, "hottest flow groups to show")
		tail  = flag.Int("tail", 5, "journey hops to show per group")
		once  = flag.Bool("once", false, "render a single frame and exit (no screen clear; for scripts and CI)")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	var prev *sample
	for {
		cur, err := poll(client, *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "poll:", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, *addr, cur, prev, *top, *tail)
		if *once {
			return
		}
		prev = cur
		time.Sleep(*every)
	}
}

// sample is one poll: the parsed metric series plus the journey body.
type sample struct {
	at     time.Time
	series map[string]float64 // full series name (with labels) -> value
	flows  flowsBody
}

// flowsBody mirrors the /debug/flows response shape.
type flowsBody struct {
	Workers   int           `json:"workers"`
	NextSince uint64        `json:"nextSince"`
	Truncated bool          `json:"truncated"`
	Journeys  []obs.Journey `json:"journeys"`
}

func poll(client *http.Client, addr string) (*sample, error) {
	s := &sample{at: time.Now()}
	body, err := get(client, "http://"+addr+"/metrics")
	if err != nil {
		return nil, err
	}
	s.series = parseProm(body)
	body, err = get(client, "http://"+addr+"/debug/flows")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &s.flows); err != nil {
		return nil, fmt.Errorf("/debug/flows: %w", err)
	}
	return s, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// parseProm reads Prometheus text exposition into a flat map keyed by
// the full series name including its label set, e.g.
// `affinity_served_total{worker="0",queue="local"}`.
func parseProm(text []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// val reads one series, 0 when absent.
func (s *sample) val(name string) float64 { return s.series[name] }

// worker reads a per-worker series like `name{worker="3"}`.
func (s *sample) worker(name string, w int) float64 {
	return s.series[fmt.Sprintf(`%s{worker="%d"}`, name, w)]
}

// rate is (cur-prev)/dt per second for one series, 0 on the first frame.
func rate(cur, prev *sample, name string) float64 {
	if prev == nil {
		return 0
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	return (cur.series[name] - prev.series[name]) / dt
}

func render(w io.Writer, addr string, cur, prev *sample, top, tailN int) {
	workers := int(cur.val("affinity_workers"))
	if workers <= 0 {
		workers = cur.flows.Workers
	}
	var served, local, stolen float64
	for i := 0; i < workers; i++ {
		l := cur.series[fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, i)]
		st := cur.series[fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, i)]
		served += l + st
		local += l
		stolen += st
	}
	locality := 0.0
	if served > 0 {
		locality = 100 * local / served
	}
	crossSteals := cur.series[`affinity_cross_chip_steals_total{dist="cross"}`]
	crossMigr := cur.series[`affinity_cross_chip_migrations_total{dist="cross"}`]

	fmt.Fprintf(w, "affinity-top — %s — %s\n", addr, cur.at.Format("15:04:05"))
	fmt.Fprintf(w, "workers %d  served %.0f (%.1f%% local)  stolen %.0f  migrations %.0f  parked %.0f\n",
		workers, served, locality, stolen,
		cur.val("affinity_migrations_total"), cur.val("affinity_parked"))
	if crossSteals > 0 || crossMigr > 0 {
		fmt.Fprintf(w, "numa: cross-chip steals %.0f  cross-chip migrations %.0f\n", crossSteals, crossMigr)
	}
	if iv := cur.val("affinity_migrate_interval_seconds"); iv > 0 {
		fmt.Fprintf(w, "balance: interval %s  frozen groups %.0f (freezes %.0f, thaws %.0f)\n",
			time.Duration(iv*float64(time.Second)).Round(time.Millisecond),
			cur.val("affinity_frozen_groups"),
			cur.val("affinity_group_freezes_total"),
			cur.val("affinity_group_unfreezes_total"))
	}
	if prev != nil {
		var servedRate, stealRate float64
		for i := 0; i < workers; i++ {
			servedRate += rate(cur, prev, fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, i))
			servedRate += rate(cur, prev, fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, i))
			stealRate += rate(cur, prev, fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, i))
		}
		fmt.Fprintf(w, "rates: %.0f served/s  %.1f steals/s  %.1f migrations/s  %.1f requeues/s\n",
			servedRate, stealRate,
			rate(cur, prev, "affinity_migrations_total"),
			rate(cur, prev, "affinity_requeued_total"))
	}

	fmt.Fprintf(w, "\n%-6s %4s %4s %10s %10s %10s %7s %5s %9s\n",
		"worker", "chip", "cpu", "accepted", "local", "stolen", "qdepth", "busy", "local/s")
	for i := 0; i < workers; i++ {
		busy := " "
		if cur.worker("affinity_worker_busy", i) > 0 {
			busy = "*"
		}
		// Presence-checked: val() reads 0 for absent series, which would
		// render as a false pin to CPU 0 on servers without the gauge.
		cpu := "-"
		if v, ok := cur.series[fmt.Sprintf(`affinity_worker_pinned_cpu{worker="%d"}`, i)]; ok && v >= 0 {
			cpu = strconv.Itoa(int(v))
		}
		perLocal := cur.series[fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, i)]
		perStolen := cur.series[fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, i)]
		localRate := 0.0
		if prev != nil {
			localRate = rate(cur, prev, fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, i))
		}
		fmt.Fprintf(w, "%-6d %4.0f %4s %10.0f %10.0f %10.0f %7.0f %5s %9.0f\n",
			i, cur.worker("affinity_worker_chip", i), cpu,
			cur.worker("affinity_accepted_total", i), perLocal, perStolen,
			cur.worker("affinity_queue_depth", i), busy, localRate)
	}

	js := append([]obs.Journey(nil), cur.flows.Journeys...)
	sort.SliceStable(js, func(a, b int) bool { return len(js[a].Hops) > len(js[b].Hops) })
	if len(js) > top {
		js = js[:top]
	}
	trunc := ""
	if cur.flows.Truncated {
		trunc = " (server truncated)"
	}
	fmt.Fprintf(w, "\nhottest %d of %d flow groups%s\n", len(js), len(cur.flows.Journeys), trunc)
	fmt.Fprintf(w, "%-7s %6s %5s %5s %6s  %s\n", "group", "owner", "hops", "migr", "steals", "journey tail")
	for _, j := range js {
		fmt.Fprintf(w, "%-7d %6d %5d %5d %6d  %s\n",
			j.Group, j.Owner, len(j.Hops), j.Migrations, j.Steals, tailString(j, tailN))
	}
}

// tailString renders a journey's newest hops as "kind@worker" links.
func tailString(j obs.Journey, n int) string {
	hops := j.Tail(n)
	parts := make([]string, 0, len(hops)+1)
	if len(hops) < len(j.Hops) {
		parts = append(parts, "…")
	}
	for _, h := range hops {
		parts = append(parts, fmt.Sprintf("%s@%d", h.Kind, h.Worker))
	}
	return strings.Join(parts, " → ")
}
