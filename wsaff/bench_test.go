package wsaff

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"affinityaccept/httpaff"
)

// benchPayload is fixed-size so every echoed frame has a known length
// and the client can read batches with one ReadFull.
var benchPayload = []byte("hello from the core-local frame path")

// startWSBench builds an echo server plus one upgraded connection and
// returns the conn with the echoed frame size.
func startWSBench(tb testing.TB) (net.Conn, int) {
	tb.Helper()
	ws, err := New(Config{
		Workers:   2,
		OnMessage: func(c *Conn, op Op, payload []byte) { c.Send(op, payload) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	ws.Start()
	r := httpaff.NewRouter()
	r.Handle("/ws", func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	srv, err := httpaff.New(httpaff.Config{Workers: 2, Handler: r.Serve})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ws.Close()
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Minute))
	if _, err := conn.Write([]byte(upgradeRequest("/ws"))); err != nil {
		tb.Fatal(err)
	}
	// Consume the 101 head.
	buf := make([]byte, 4096)
	n := 0
	for !bytes.Contains(buf[:n], []byte("\r\n\r\n")) {
		m, err := conn.Read(buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		n += m
	}
	if i := bytes.Index(buf[:n], []byte("\r\n\r\n")); n > i+4 {
		tb.Fatalf("unexpected bytes after the 101 head: %q", buf[i+4:n])
	}
	echoLen := len(appendFrame(nil, OpBinary, benchPayload))
	return conn, echoLen
}

// BenchmarkEchoFrames measures pipelined echo round trips — depth
// frames per batch — and enforces the zero-allocation claim for the
// steady-state frame path.
func BenchmarkEchoFrames(b *testing.B) {
	conn, echoLen := startWSBench(b)
	const depth = 32
	key := [4]byte{1, 2, 3, 4}
	var batch []byte
	for i := 0; i < depth; i++ {
		batch = appendMaskedFrame(batch, true, OpBinary, key, benchPayload)
	}
	resp := make([]byte, depth*echoLen)
	// Warm up: codec buffers, park wrapper, flow-table route.
	if _, err := conn.Write(batch); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(conn, resp); err != nil {
		b.Fatal(err)
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for served := 0; served < b.N; {
		n := depth
		if remaining := b.N - served; remaining < n {
			n = remaining
		}
		if _, err := conn.Write(batch[:n*len(batch)/depth]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp[:n*echoLen]); err != nil {
			b.Fatal(err)
		}
		served += n
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if b.N >= 1000 {
		perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
		if perOp >= 1 {
			b.Fatalf("%.2f allocs per frame on the steady-state path, want 0", perOp)
		}
	}
}

// TestWSSteadyStateZeroAlloc enforces the 0 allocs/frame claim in a
// plain test run: after warm-up, a thousand echoed frames allocate
// fewer than one object per frame process-wide.
func TestWSSteadyStateZeroAlloc(t *testing.T) {
	conn, echoLen := startWSBench(t)
	const depth, batches = 50, 20
	key := [4]byte{5, 6, 7, 8}
	var batch []byte
	for i := 0; i < depth; i++ {
		batch = appendMaskedFrame(batch, true, OpBinary, key, benchPayload)
	}
	resp := make([]byte, depth*echoLen)
	roundTrip := func() {
		if _, err := conn.Write(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(depth*batches)
	if perFrame >= 1 {
		t.Fatalf("steady-state frame path allocates %.2f objects per frame, want 0 "+
			"(total %d mallocs over %d frames)", perFrame, after.Mallocs-before.Mallocs, depth*batches)
	}
	t.Logf("steady state: %.3f allocs/frame (%d mallocs over %d frames)",
		perFrame, after.Mallocs-before.Mallocs, depth*batches)
}

// TestLargeMessageBuffersRetained pins the codec's retention rule: a
// message between the old flat 64 KiB cap and MaxMessageBytes is one the
// layer accepts, so the buffers it grew are kept and steady echoes of it
// allocate nothing after warm-up; only a buffer grown past the message
// bound is shed.
func TestLargeMessageBuffersRetained(t *testing.T) {
	conn, _ := startWSBench(t)
	payload := bytes.Repeat([]byte("x"), 100<<10)
	frame := appendMaskedFrame(nil, true, OpBinary, [4]byte{9, 8, 7, 6}, payload)
	echo := make([]byte, len(appendFrame(nil, OpBinary, payload)))
	roundTrip := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, echo); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()

	const messages = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < messages; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / messages
	bytesPerMsg := float64(after.TotalAlloc-before.TotalAlloc) / messages
	if perMsg >= 1 || bytesPerMsg >= codecBufSize {
		t.Fatalf("steady 100 KiB echoes allocate %.2f objects / %.0f bytes per message, want 0: "+
			"the codec is shedding a buffer the workload needs", perMsg, bytesPerMsg)
	}

	const maxMsg = 1 << 20
	w := wsWorker{
		rbuf: make([]byte, maxMsg+2*maxHeaderBytes),
		wbuf: make([]byte, 0, maxMsg+2*maxHeaderBytes+1),
		abuf: make([]byte, 0, 2*maxMsg),
	}
	w.release(maxMsg)
	if cap(w.rbuf) != maxMsg+2*maxHeaderBytes {
		t.Errorf("read buffer at the bound was shed: cap %d", cap(w.rbuf))
	}
	if cap(w.wbuf) != codecBufSize || w.abuf != nil {
		t.Errorf("buffers above the bound kept: wbuf cap %d, abuf cap %d", cap(w.wbuf), cap(w.abuf))
	}
}
