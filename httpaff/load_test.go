package httpaff

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"affinityaccept/internal/testutil"
)

// exchange writes batch (n requests) and reads n responses off br,
// failing on any status but 200.
func exchange(conn net.Conn, br *bufio.Reader, batch []byte, n int) error {
	if _, err := conn.Write(batch); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	return nil
}

// pipelinedLoad runs clients closed-loop keep-alive connections to addr
// until stop, each writing depth pipelined GET /bench requests per
// batch and reading every response; any failure fails the test. A
// client whose first exchange is refused (a dial error, or a 503 shed
// at the door while the start-up herd holds the header slots) backs off
// and redials: one shed with Retry-After is admission control working.
// It returns each request's latency, taken as its batch's round trip
// over depth.
func pipelinedLoad(t *testing.T, addr string, clients, depth int, stop time.Time) []time.Duration {
	var mu sync.Mutex
	var lat []time.Duration
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var conn net.Conn
			var br *bufio.Reader
			for attempt := 1; conn == nil; attempt++ {
				nc, err := net.Dial("tcp", addr)
				if err == nil {
					nc.SetDeadline(stop.Add(30 * time.Second))
					br = bufio.NewReader(nc)
					if err = exchange(nc, br, benchRequest, 1); err == nil {
						conn = nc
						break
					}
					nc.Close()
				}
				if attempt == 20 || time.Now().After(stop) {
					t.Errorf("client never got a first response: %v", err)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			defer conn.Close()
			batch := bytes.Repeat(benchRequest, depth)
			var local []time.Duration
			for time.Now().Before(stop) {
				t0 := time.Now()
				if err := exchange(conn, br, batch, depth); err != nil {
					t.Errorf("pipelined client: %v", err)
					break
				}
				local = append(local, time.Since(t0)/time.Duration(depth))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat
}

// get fetches path on a keep-alive connection and returns the body,
// failing on any status but 200.
func get(conn net.Conn, br *bufio.Reader, path string) ([]byte, error) {
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// scrapeSeries returns every series of the families of the given types
// in a Prometheus text scrape, keyed by name and labels.
func scrapeSeries(scrape []byte, types ...string) map[string]float64 {
	series := map[string]float64{}
	wanted := false
	for _, line := range strings.Split(string(scrape), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			wanted = slices.Contains(types, strings.Fields(typ)[1])
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if !wanted || i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			series[line[:i]] = v
		}
	}
	return series
}

// TestScrapingUnderLoad polls /metrics and /debug/events on a server
// under pipelined keep-alive load, as a Prometheus scraper and an event
// tailer would. No request may fail, scrapes must complete, every
// counter and histogram series must be monotone from one scrape to the
// next, and once the load stops a scrape must read every counter Stats
// and Admission carry exactly as they report it.
func TestScrapingUnderLoad(t *testing.T) {
	var s *Server
	r := NewRouter()
	r.Handle("/bench", benchHandler)
	r.Handle("/metrics", func(ctx *RequestCtx) { MetricsHandler(s)(ctx) })
	r.Handle("/debug/events", func(ctx *RequestCtx) { EventsHandler(s)(ctx) })
	s = start(t, Config{Workers: 4, Handler: r.Serve})

	stop := time.Now().Add(500 * time.Millisecond)
	conn, br := dial(t, s)
	scrapes := make(chan int)
	go func() {
		defer conn.Close()
		var prev map[string]float64
		n := 0
		for time.Now().Before(stop) {
			body, err := get(conn, br, "/metrics")
			if err != nil {
				t.Errorf("scrape %d: %v", n, err)
				break
			}
			cur := scrapeSeries(body, "counter", "histogram")
			for k, v := range prev {
				if cur[k] < v {
					t.Errorf("scrape %d: %s fell from %v to %v", n, k, v, cur[k])
				}
			}
			prev = cur
			if body, err = get(conn, br, "/debug/events"); err != nil || !json.Valid(body) {
				t.Errorf("scrape %d: /debug/events: %v, valid JSON %v", n, err, json.Valid(body))
				break
			}
			n++
			time.Sleep(10 * time.Millisecond)
		}
		scrapes <- n
	}()
	pipelinedLoad(t, s.Addr().String(), 8, 16, stop)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape completed under load")
	}

	testutil.WaitFor(t, 5*time.Second, func() bool { st := s.Stats(); return st.Parked == 0 && st.Active == 0 },
		"the load's connections never closed")
	last, lbr := dial(t, s)
	fmt.Fprintf(last, "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	_, _, body := readResponse(t, lbr)
	got := scrapeSeries(body, "counter")
	st, ad := s.Stats(), s.Admission()
	want := map[string]uint64{
		"affinity_dropped_total":                             st.Dropped,
		"affinity_requeued_total":                            st.Requeued,
		"affinity_migrations_total":                          st.Migrations,
		"affinity_ratelimited_total":                         st.Ratelimited,
		"affinity_shed_parked_total":                         st.ShedParked,
		"affinity_budget_rejected_total":                     st.BudgetRejected,
		"affinity_accept_retries_total":                      st.AcceptRetries,
		"affinity_group_freezes_total":                       st.GroupFreezes,
		"affinity_group_unfreezes_total":                     st.GroupUnfreezes,
		"affinity_pin_failures_total":                        st.PinFailures,
		"affinity_events_recorded_total":                     s.Transport().EventsRecorded(),
		"affinity_events_dropped_total":                      s.Transport().EventsDropped(),
		`affinity_cross_chip_steals_total{dist="same"}`:      st.ServedStolen - st.CrossChipSteals,
		`affinity_cross_chip_steals_total{dist="cross"}`:     st.CrossChipSteals,
		`affinity_cross_chip_migrations_total{dist="same"}`:  st.Migrations - st.CrossChipMigrations,
		`affinity_cross_chip_migrations_total{dist="cross"}`: st.CrossChipMigrations,
	}
	for i, w := range st.Workers {
		label := fmt.Sprintf(`{worker="%d"}`, i)
		want[fmt.Sprintf(`affinity_served_total{worker="%d",queue="local"}`, i)] = w.ServedLocal
		want[fmt.Sprintf(`affinity_served_total{worker="%d",queue="stolen"}`, i)] = w.ServedStolen
		want[fmt.Sprintf(`affinity_worker_wakes_total{worker="%d",reason="push"}`, i)] = w.Wakes
		want[fmt.Sprintf(`affinity_worker_wakes_total{worker="%d",reason="decay"}`, i)] = w.DecayTicks
		want["affinity_accepted_total"+label] = w.Accepted
		want["affinity_accept_remote_total"+label] = w.AcceptRemote
		want["affinity_worker_cross_chip_steals_total"+label] = w.StolenCross
		want["affinity_migrated_in_total"+label] = w.MigratedIn
		want["affinity_pool_reuses_total"+label] = w.Pool.Reuses
		want["affinity_header_timeouts_total"+label] = ad.Workers[i].HeaderTimeouts
		want["affinity_header_sheds_total"+label] = ad.Workers[i].HeaderSheds
		want["affinity_overload_sheds_total"+label] = ad.Workers[i].OverloadSheds
	}
	for key, v := range want {
		if g, ok := got[key]; !ok || g != float64(v) {
			t.Errorf("%s: scrape reads %v, Stats reads %d", key, g, v)
		}
	}
	// The event loops' delivery counters are the only ones Stats does
	// not carry.
	for key := range got {
		if _, ok := want[key]; !ok && !strings.HasPrefix(key, "affinity_evloop_") {
			t.Errorf("scrape counter %s has no Stats counterpart in this test", key)
		}
	}
}

// TestHostileMix runs well-behaved pipelined clients against a hardened
// server while slowloris clients drip header bytes and per-IP flooders
// hammer accept from their own loopback addresses. The admission
// machinery must absorb the abuse: no well-behaved request fails and
// their p99 stays under a second, the per-IP token buckets and the
// header deadline both fire, at least one slowloris connection is cut
// off, and live connections never exceed the budget.
func TestHostileMix(t *testing.T) {
	const (
		workers = 4
		clients = 16
		window  = 1500 * time.Millisecond
	)
	s := start(t, Config{
		Workers:            workers,
		Handler:            benchHandler,
		PerIPAcceptRate:    5,
		PerIPAcceptBurst:   2 * clients,
		MaxConns:           256,
		HeaderTimeout:      500 * time.Millisecond,
		MaxInflightHeaders: workers / 2,
		ShedOnOverload:     true,
	})
	addr := s.Addr().String()
	stop := time.Now().Add(window)
	// The attackers hold fire until the well-behaved clients are
	// established. Slowloris share one loopback source and each flood
	// gets its own, so neither spends 127.0.0.1's bucket.
	attack := time.Now().Add(300 * time.Millisecond)
	var slowClosed atomic.Int64
	var attackers sync.WaitGroup
	for i := 0; i < 8; i++ {
		attackers.Add(1)
		go func() {
			defer attackers.Done()
			slowClosed.Add(runSlowloris(addr, loopbackSource(254, 1), attack, stop))
		}()
	}
	for i := 0; i < 3; i++ {
		attackers.Add(1)
		go func() {
			defer attackers.Done()
			runFlood(addr, loopbackSource(1, 2+i), attack, stop)
		}()
	}

	lat := pipelinedLoad(t, addr, clients, 8, stop)
	attackers.Wait()
	if len(lat) == 0 {
		t.Fatal("no well-behaved request completed")
	}
	slices.Sort(lat)
	p99 := lat[len(lat)*99/100]
	st, ad := s.Stats(), s.Admission()
	t.Logf("p99 %v over %d requests; %d rate-limited, %d header timeouts, %d slowloris cut off, live peak %d of %d",
		p99, len(lat), st.Ratelimited, ad.HeaderTimeouts, slowClosed.Load(), st.LivePeak, st.MaxConns)
	if p99 >= time.Second {
		t.Errorf("well-behaved p99 %v under attack, want under 1s", p99)
	}
	if st.Ratelimited == 0 {
		t.Error("the per-IP floods never tripped the token buckets")
	}
	if ad.HeaderTimeouts == 0 {
		t.Error("the slowloris clients never hit the header deadline")
	}
	if slowClosed.Load() == 0 {
		t.Error("no slowloris connection was cut off")
	}
	if st.LivePeak > int64(st.MaxConns) {
		t.Errorf("live peak %d over the %d-connection budget", st.LivePeak, st.MaxConns)
	}
}

// runSlowloris drips header bytes on fresh connections from src until
// the server cuts each one off, redialling until stop, and returns how
// many connections were cut off.
func runSlowloris(addr string, src net.Addr, start, stop time.Time) (closed int64) {
	d := net.Dialer{LocalAddr: src, Timeout: 2 * time.Second}
	time.Sleep(time.Until(start))
	for time.Now().Before(stop) {
		conn, err := d.Dial("tcp", addr)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		conn.SetDeadline(stop.Add(5 * time.Second))
		_, err = conn.Write([]byte("GET /drip HTTP/1.1\r\nX-Drip: "))
		for err == nil && time.Now().Before(stop) {
			time.Sleep(100 * time.Millisecond)
			if _, err = conn.Write([]byte("y")); err != nil {
				break
			}
			// Any answer (a shed 503) or error but a timeout is the cut.
			conn.SetReadDeadline(time.Now().Add(time.Millisecond))
			if _, err = conn.Read(make([]byte, 256)); err == nil {
				err = io.EOF
			} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				err = nil
			}
			conn.SetReadDeadline(stop.Add(5 * time.Second))
		}
		if err != nil {
			closed++
		}
		conn.Close()
	}
	return closed
}

// runFlood connects from src, sends one request and hangs up without
// waiting for the answer, as fast as it can, until stop.
func runFlood(addr string, src net.Addr, start, stop time.Time) {
	d := net.Dialer{LocalAddr: src, Timeout: 2 * time.Second}
	time.Sleep(time.Until(start))
	for time.Now().Before(stop) {
		conn, err := d.Dial("tcp", addr)
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		conn.Write(benchRequest)
		conn.Close()
	}
}

// loopbackSource returns the loopback alias 127.0.x.y as a dial source
// where the platform routes all of 127.0.0.0/8 (Linux does), nil
// otherwise: the attacker then shares the default source and its
// bucket.
func loopbackSource(x, y int) net.Addr {
	ip := net.IPv4(127, 0, byte(x), byte(y))
	probe, err := net.Listen("tcp", ip.String()+":0")
	if err != nil {
		return nil
	}
	probe.Close()
	return &net.TCPAddr{IP: ip}
}
