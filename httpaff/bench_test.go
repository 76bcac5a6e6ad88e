package httpaff

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// benchBody is what the benchmark handler serves; fixed size so every
// response has identical length and the client can read batches with
// one ReadFull.
var benchBody = []byte("hello from the core-local fast path!")

func benchHandler(ctx *RequestCtx) { ctx.Write(benchBody) }

// startBench builds a server + one warm keep-alive connection and
// returns them with the exact response length, learned from one
// warm-up exchange.
func startBench(tb testing.TB) (*Server, net.Conn, int) {
	tb.Helper()
	s, err := New(Config{Workers: 2, Handler: benchHandler})
	if err != nil {
		tb.Fatal(err)
	}
	s.Start()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Minute))

	// Warm-up exchange: learn the (fixed) response size.
	if _, err := conn.Write(benchRequest); err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, 4096)
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		n += m
		if i := bytes.Index(buf[:n], []byte("\r\n\r\n")); i >= 0 {
			clStart := bytes.Index(buf[:i], []byte("Content-Length: "))
			if clStart < 0 {
				tb.Fatalf("no Content-Length in %q", buf[:i])
			}
			clEnd := bytes.IndexByte(buf[clStart:], '\r') + clStart
			cl, err := strconv.Atoi(string(buf[clStart+len("Content-Length: ") : clEnd]))
			if err != nil {
				tb.Fatal(err)
			}
			total := i + 4 + cl
			for n < total {
				m, err := conn.Read(buf[n:])
				if err != nil {
					tb.Fatal(err)
				}
				n += m
			}
			if n != total {
				tb.Fatalf("warm-up read %d bytes, want %d", n, total)
			}
			return s, conn, total
		}
	}
}

var benchRequest = []byte("GET /bench HTTP/1.1\r\nHost: bench\r\nUser-Agent: affinity-bench\r\n\r\n")

// pipelineDepth is how many requests each benchmark batch carries. The
// one allocation left on the serving path — the park-goroutine closure
// when a drained connection requeues — amortizes across the batch.
const pipelineDepth = 64

// BenchmarkPipelinedKeepAlive is the acceptance benchmark: pipelined
// keep-alive HTTP/1.1 over real loopback TCP, measured process-wide —
// client, workers, parser, serializer, requeue path. It asserts the
// steady-state path allocates zero objects per request (the assertion
// engages once b.N is large enough to be steady state; tiny -benchtime
// runs measure startup, not the claim).
func BenchmarkPipelinedKeepAlive(b *testing.B) {
	_, conn, respLen := startBench(b)
	batchReq := bytes.Repeat(benchRequest, pipelineDepth)
	batchResp := make([]byte, respLen*pipelineDepth)

	// One full batch outside the window warms the arena, the park
	// wrapper and the client buffers.
	if _, err := conn.Write(batchReq); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(conn, batchResp); err != nil {
		b.Fatal(err)
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for served := 0; served < b.N; {
		depth := pipelineDepth
		if remaining := b.N - served; remaining < depth {
			depth = remaining
		}
		if _, err := conn.Write(batchReq[:depth*len(benchRequest)]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, batchResp[:depth*respLen]); err != nil {
			b.Fatal(err)
		}
		served += depth
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if b.N >= 1000 {
		perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
		if perOp >= 1 {
			b.Fatalf("%.2f allocs per request on the steady-state path, want 0", perOp)
		}
	}
}

// BenchmarkSequentialKeepAlive measures the unpipelined round trip —
// every request parks and requeues the connection, so this is the
// latency (not throughput) shape of the keep-alive path.
func BenchmarkSequentialKeepAlive(b *testing.B) {
	_, conn, respLen := startBench(b)
	resp := make([]byte, respLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(benchRequest); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseRequest isolates the parser: one fully buffered
// request, no transport.
func BenchmarkParseRequest(b *testing.B) {
	ctx := newTestCtx()
	raw := "GET /hot/path?q=1 HTTP/1.1\r\nHost: bench.test\r\nUser-Agent: affinity-bench\r\nAccept: */*\r\n\r\n"
	copy(ctx.rbuf, raw)
	end := bytes.Index(ctx.rbuf[:len(raw)], crlfCRLF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.parseHead(ctx.rbuf[:end+2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeResponse isolates the response writer.
func BenchmarkSerializeResponse(b *testing.B) {
	ctx := newTestCtx()
	copy(ctx.rbuf, "GET / HTTP/1.1\r\n\r\n")
	if err := ctx.parseHead(ctx.rbuf[:16]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.resp.reset()
		ctx.Write(benchBody)
		ctx.appendResponse(false)
		ctx.wbuf = ctx.wbuf[:0]
	}
}

// TestSteadyStateZeroAlloc enforces the benchmark's claim in a plain
// test run, where CI's small -benchtime cannot: a thousand pipelined
// requests after warm-up allocate fewer than one object per request
// process-wide.
func TestSteadyStateZeroAlloc(t *testing.T) {
	_, conn, respLen := startBench(t)
	const depth, batches = 50, 20
	batchReq := bytes.Repeat(benchRequest, depth)
	batchResp := make([]byte, respLen*depth)
	roundTrip := func() {
		if _, err := conn.Write(batchReq); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, batchResp); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: arena, park wrapper, client path.
	roundTrip()
	roundTrip()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / float64(depth*batches)
	if perReq >= 1 {
		t.Fatalf("steady-state path allocates %.2f objects per request, want 0 "+
			"(total %d mallocs over %d requests)", perReq, after.Mallocs-before.Mallocs, depth*batches)
	}
	t.Logf("steady state: %.3f allocs/request (%d mallocs over %d requests)",
		perReq, after.Mallocs-before.Mallocs, depth*batches)
}

// TestLargeResponseBuffersRetained pins the arena's retention rule on
// the shape that used to thrash it: a 64 KiB body serialises, with its
// head, to a write buffer just over the old flat 64 KiB cap, so every
// release freed it and every request regrew it. A buffer is an outlier
// only above MaxHeaderBytes + MaxBodyBytes: steady 64 KiB responses on
// one keep-alive connection allocate nothing after warm-up.
func TestLargeResponseBuffersRetained(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 64<<10)
	s := start(t, Config{Workers: 1, Handler: func(ctx *RequestCtx) { ctx.Write(body) }})
	conn, br := dial(t, s)
	// First exchange: learn the (fixed) response length.
	if _, err := conn.Write(benchRequest); err != nil {
		t.Fatal(err)
	}
	respLen := len(body)
	for line := ""; line != "\r\n"; respLen += len(line) {
		var err error
		if line, err = br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	resp := make([]byte, respLen)
	if _, err := io.ReadFull(br, resp[:len(body)]); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		if _, err := conn.Write(benchRequest); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(br, resp); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()

	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / requests
	bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / requests
	if perReq >= 1 || bytesPerReq >= bufSize {
		t.Fatalf("steady 64 KiB responses allocate %.2f objects / %.0f bytes per request, want 0: "+
			"the arena is shedding a buffer the workload needs", perReq, bytesPerReq)
	}
}

// TestArenaShedsAboveRequestBound is the other side of the rule: a
// buffer at the bound is kept, one grown past the largest request the
// server accepts is shed back to bufSize on release.
func TestArenaShedsAboveRequestBound(t *testing.T) {
	s, err := New(Config{Workers: 1, Handler: benchHandler, MaxBodyBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	bound := s.cfg.MaxHeaderBytes + s.cfg.MaxBodyBytes
	a := s.arenas[0]
	ctx := a.acquire()
	ctx.rbuf = make([]byte, bound)
	ctx.wbuf = make([]byte, 0, bound+1)
	ctx.resp.body = make([]byte, 0, 2*bound)
	a.release(ctx)
	if cap(ctx.rbuf) != bound {
		t.Errorf("read buffer at the bound was shed: cap %d, want %d", cap(ctx.rbuf), bound)
	}
	if cap(ctx.wbuf) != bufSize {
		t.Errorf("write buffer above the bound kept: cap %d, want %d", cap(ctx.wbuf), bufSize)
	}
	if ctx.resp.body != nil {
		t.Errorf("response body above the bound kept: cap %d", cap(ctx.resp.body))
	}
}
