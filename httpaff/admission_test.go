package httpaff

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"affinityaccept/internal/testutil"
)

// TestSlowlorisClosedAtHeaderDeadline: a client dripping header bytes
// is cut off at HeaderTimeout — absolute from the first head read, not
// extended per drip — by the park sweep, while a concurrent
// well-behaved keep-alive client on the same server completes normally.
func TestSlowlorisClosedAtHeaderDeadline(t *testing.T) {
	const headerTO = 400 * time.Millisecond
	s := start(t, Config{
		Workers:       2,
		HeaderTimeout: headerTO,
		ReadTimeout:   10 * time.Second, // much looser: the head must not inherit it
	})

	// The attacker: send a partial request line, then drip one byte at
	// a time. Each drip would reset a naive per-read deadline; the
	// absolute head deadline must close the conn ~headerTO after the
	// first blocking read regardless.
	atk, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()
	atk.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := atk.Write([]byte("GET / HT")); err != nil {
		t.Fatal(err)
	}
	startT := time.Now()
	done := make(chan time.Duration, 1)
	go func() {
		// Drip until the server hangs up; the write side notices the
		// close a beat after the read side would.
		for {
			if _, err := atk.Write([]byte("T")); err != nil {
				done <- time.Since(startT)
				return
			}
			time.Sleep(50 * time.Millisecond)
			if _, err := atk.Read(make([]byte, 1)); err != nil {
				done <- time.Since(startT)
				return
			}
			atk.SetReadDeadline(time.Time{})
		}
	}()

	// Meanwhile a legitimate keep-alive client runs several requests
	// to completion on the other worker.
	good, br := dial(t, s)
	for i := 0; i < 3; i++ {
		req := fmt.Sprintf("GET /ok%d HTTP/1.1\r\nHost: t\r\n\r\n", i)
		if _, err := good.Write([]byte(req)); err != nil {
			t.Fatalf("well-behaved client write %d: %v", i, err)
		}
		code, _, body := readResponse(t, br)
		if code != 200 || string(body) != fmt.Sprintf("/ok%d", i) {
			t.Fatalf("well-behaved client request %d: code %d body %q", i, code, body)
		}
		time.Sleep(100 * time.Millisecond)
	}

	select {
	case elapsed := <-done:
		// Closed no earlier than the deadline (give the scheduler a
		// little slack) and well before the drip could finish a head.
		if elapsed < headerTO/2 {
			t.Errorf("slowloris closed after %v, before the %v header deadline", elapsed, headerTO)
		}
		if elapsed > 5*time.Second {
			t.Errorf("slowloris survived %v, expected close near %v", elapsed, headerTO)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slowloris connection was never closed")
	}

	testutil.WaitFor(t, 5*time.Second, func() bool {
		return expiredTotal(s) >= 1
	}, "affinity_evloop_expired_total never incremented")
	if st := s.Admission(); st.OverloadSheds != 0 {
		t.Errorf("unrelated shed counters moved: %+v", st)
	}
}

// expiredTotal reads affinity_evloop_expired_total summed over the
// workers: parked connections, requests stopped mid-way among them,
// that the park sweep closed at their deadline.
func expiredTotal(s *Server) (n uint64) {
	var b strings.Builder
	s.Transport().WriteObsMetrics(&b)
	for k, v := range scrapeSeries([]byte(b.String()), "counter") {
		if strings.HasPrefix(k, "affinity_evloop_expired_total{") {
			n += uint64(v)
		}
	}
	return n
}

// TestSlowBodyKeepsReadTimeout: a tight HeaderTimeout must not strangle
// a legitimate upload — body reads re-arm under the looser ReadTimeout.
func TestSlowBodyKeepsReadTimeout(t *testing.T) {
	s := start(t, Config{
		Workers:       1,
		HeaderTimeout: 300 * time.Millisecond,
		ReadTimeout:   5 * time.Second,
	})
	conn, br := dial(t, s)
	if _, err := conn.Write([]byte("POST /up HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Deliver the body only after the header deadline has elapsed: the
	// head finished in time, so the body budget is ReadTimeout.
	time.Sleep(600 * time.Millisecond)
	if _, err := conn.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	code, _, body := readResponse(t, br)
	if code != 200 || string(body) != "data" {
		t.Fatalf("slow-body upload: code %d body %q", code, body)
	}
	if n := expiredTotal(s); n != 0 {
		t.Errorf("%d parked requests expired for a request whose head arrived in time", n)
	}
}

// TestOverloadSheds503: with every worker over its busy watermark,
// fresh connections get an immediate 503-with-Retry-After instead of
// queueing — and an established keep-alive connection is exempt.
func TestOverloadSheds503(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	s := start(t, Config{
		Workers:        1,
		Backlog:        16,
		HighPct:        25, // busy above depth 4
		LowPct:         5,  // EWMA must fall below 0.8 to clear: it won't during the test
		ShedOnOverload: true,
		RetryAfter:     2 * time.Second,
		Handler: func(ctx *RequestCtx) {
			if string(ctx.Path()) == "/block" {
				<-gate
			}
			ctx.Write(ctx.Path())
		},
	})
	t.Cleanup(func() { gateOnce.Do(func() { close(gate) }) })

	// An established conn before the storm: its later requests bypass
	// the overload gate.
	veteran, vbr := dial(t, s)
	if _, err := veteran.Write([]byte("GET /v HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := readResponse(t, vbr); code != 200 {
		t.Fatal("veteran conn first request failed")
	}

	// Wedge the only worker, then pile fresh connections into its
	// queue until the high watermark marks it busy.
	blocker, bbr := dial(t, s)
	if _, err := blocker.Write([]byte("GET /block HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	const floods = 8
	fconns := make([]net.Conn, floods)
	freaders := make([]*bufio.Reader, floods)
	for i := range fconns {
		c, br := dial(t, s)
		fconns[i], freaders[i] = c, br
		if _, err := c.Write([]byte("GET /flood HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		for _, w := range s.Stats().Workers {
			if !w.Busy {
				return false
			}
		}
		return true
	}, "worker never crossed the busy watermark")

	// Release the worker: it drains the queue, and every queued fresh
	// conn it pops while still busy is shed. The EWMA was driven well
	// above the low watermark and nothing in the drain lowers it below,
	// so all of them shed.
	gateOnce.Do(func() { close(gate) })
	if code, _, _ := readResponse(t, bbr); code != 200 {
		t.Fatal("blocking request did not complete")
	}
	sheds := 0
	for i := range fconns {
		code, hdr, _ := readResponse(t, freaders[i])
		switch code {
		case 503:
			sheds++
			if hdr["retry-after"] != "2" {
				t.Errorf("flood %d: Retry-After = %q, want %q", i, hdr["retry-after"], "2")
			}
			if hdr["connection"] != "close" {
				t.Errorf("flood %d: overload 503 must close: %v", i, hdr)
			}
		case 200:
			// Admitted after the busy bit cleared: acceptable, but the
			// storm must have shed at least one.
		default:
			t.Fatalf("flood %d: unexpected status %d", i, code)
		}
	}
	if sheds == 0 {
		t.Error("no fresh connection was shed during overload")
	}
	if n := s.Admission().OverloadSheds; n != uint64(sheds) {
		t.Errorf("OverloadSheds = %d but %d conns observed a 503", n, sheds)
	}

	// The established conn rides through even while the busy bit is
	// still set (the low watermark keeps it latched).
	if _, err := veteran.Write([]byte("GET /v2 HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if code, _, body := readResponse(t, vbr); code != 200 || string(body) != "/v2" {
		t.Fatalf("established conn shed under overload: code %d body %q", code, body)
	}
}

// TestMetricsHandlerExposesAdmission: the Prometheus endpoint carries
// the admission counters alongside the serving stats.
func TestMetricsHandlerExposesAdmission(t *testing.T) {
	var srv *Server
	router := NewRouter()
	router.Handle("/metrics", func(ctx *RequestCtx) { MetricsHandler(srv)(ctx) })
	router.Handle("/", func(ctx *RequestCtx) { ctx.Write([]byte("ok")) })
	s := start(t, Config{Workers: 2, Handler: router.Serve, MaxConns: 64})
	srv = s

	conn, br := dial(t, s)
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: t\r\n\r\nGET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := readResponse(t, br); code != 200 {
		t.Fatal("warmup request failed")
	}
	code, hdr, body := readResponse(t, br)
	if code != 200 {
		t.Fatalf("/metrics: code %d", code)
	}
	if ct := hdr["content-type"]; ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content-type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE affinity_workers gauge",
		"affinity_workers 2",
		"# TYPE affinity_served_total counter",
		"# TYPE affinity_ratelimited_total counter",
		"# TYPE affinity_shed_parked_total counter",
		"# TYPE affinity_budget_rejected_total counter",
		"affinity_conn_budget 64",
		"# TYPE affinity_overload_sheds_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
