// Command affinity-top is a live terminal dashboard for an
// affinityaccept server: it polls the unified /metrics endpoint and the
// /debug/flows journey endpoint and renders the per-worker locality
// table, steal and migration rates, plus the hottest flow groups with
// the tail of their journeys — the §3.3 control plane at a glance. The
// table is rendered from the series a scrape of /metrics returns.
//
// Usage:
//
//	affinity-top -addr 127.0.0.1:8080
//	affinity-top -addr 127.0.0.1:8080 -every 500ms -top 12
//	affinity-top -addr 127.0.0.1:8080 -once        # one frame, no clear
//
// The server must mount httpaff.MetricsHandler on /metrics and
// httpaff.FlowsHandler on /debug/flows, as the webfarm and edgeproxy
// examples do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"affinityaccept/cmd/internal/top"
	"affinityaccept/internal/obs"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:8080", "server host:port (must serve /metrics and /debug/flows)")
		every = flag.Duration("every", time.Second, "poll period")
		topN  = flag.Int("top", 8, "hottest flow groups to show")
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
		render(os.Stdout, *addr, cur, prev, *topN, *tail)
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
	series top.Series
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
	s.series = top.Parse(body)
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

func render(w io.Writer, addr string, cur, prev *sample, topN, tailN int) {
	fmt.Fprintf(w, "affinity-top — %s — %s\n", addr, cur.at.Format("15:04:05"))
	top.Write(w, cur.series)
	if prev != nil {
		// Rates are (cur-prev)/dt per second, from the frame before.
		dt := cur.at.Sub(prev.at).Seconds()
		var served, stolen float64
		for i := 0; i < int(cur.series["affinity_workers"]); i++ {
			l, st := cur.series.Served(i)
			pl, pst := prev.series.Served(i)
			served += l + st - pl - pst
			stolen += st - pst
		}
		fmt.Fprintf(w, "rates: %.0f served/s  %.1f steals/s  %.1f migrations/s  %.1f requeues/s\n",
			served/dt, stolen/dt,
			(cur.series["affinity_migrations_total"]-prev.series["affinity_migrations_total"])/dt,
			(cur.series["affinity_requeued_total"]-prev.series["affinity_requeued_total"])/dt)
	}

	js := append([]obs.Journey(nil), cur.flows.Journeys...)
	sort.SliceStable(js, func(a, b int) bool { return len(js[a].Hops) > len(js[b].Hops) })
	if len(js) > topN {
		js = js[:topN]
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
