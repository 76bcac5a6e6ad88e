package httpaff

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"affinityaccept/internal/http11"
	"affinityaccept/serve"
)

// newTestCtx builds a context wired to a minimal server, no transport.
func newTestCtx() *RequestCtx {
	// A zero serve.Server has no loops: CoarseNow reads the real clock.
	s := &Server{name: []byte("httpaff"), srv: &serve.Server{}}
	s.arenas = []*arena{{s: s}}
	s.cfg.MaxHeaderBytes = 8192
	s.cfg.MaxBodyBytes = 1 << 20
	return &RequestCtx{srv: s, rbuf: make([]byte, 4096), wbuf: make([]byte, 0, 4096)}
}

// parseRaw primes the read buffer as if the bytes had arrived from the
// network, then walks the head directly.
func parseRaw(ctx *RequestCtx, raw string) error {
	copy(ctx.rbuf, raw)
	ctx.rlen = len(raw)
	ctx.rpos = 0
	_, done, err := ctx.walkHead(0, ctx.rlen)
	if err == nil && !done {
		panic("test request has no header terminator")
	}
	return err
}

func TestParseRequestLine(t *testing.T) {
	ctx := newTestCtx()
	if err := parseRaw(ctx, "GET /x/y?a=1&b=2 HTTP/1.1\r\nHost: h\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if got := string(ctx.Method()); got != "GET" {
		t.Errorf("method %q", got)
	}
	if got := string(ctx.Path()); got != "/x/y" {
		t.Errorf("path %q", got)
	}
	if got := string(ctx.Query()); got != "a=1&b=2" {
		t.Errorf("query %q", got)
	}
	if got := string(ctx.URI()); got != "/x/y?a=1&b=2" {
		t.Errorf("uri %q", got)
	}
	if got := string(ctx.Protocol()); got != "HTTP/1.1" {
		t.Errorf("proto %q", got)
	}
	if !ctx.req.keepAlive {
		t.Error("HTTP/1.1 should default to keep-alive")
	}
}

func TestParseHeaders(t *testing.T) {
	ctx := newTestCtx()
	raw := "POST /u HTTP/1.1\r\n" +
		"Host: example.test\r\n" +
		"Content-Length:  42\r\n" +
		"X-Custom:\tspaced value \r\n" +
		"CONNECTION: Keep-Alive\r\n\r\n"
	if err := parseRaw(ctx, raw); err != nil {
		t.Fatal(err)
	}
	if got := string(ctx.Header("host")); got != "example.test" {
		t.Errorf("host %q", got)
	}
	if got := string(ctx.Header("x-custom")); got != "spaced value" {
		t.Errorf("x-custom %q", got)
	}
	if ctx.req.head.ContentLength != 42 {
		t.Errorf("content-length %d", ctx.req.head.ContentLength)
	}
	if !ctx.req.keepAlive {
		t.Error("explicit Keep-Alive ignored")
	}
	if got := ctx.Header("absent"); got != nil {
		t.Errorf("absent header = %q, want nil", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want *protoError
	}{
		{"no spaces", "GARBAGE\r\n\r\n", errBadRequest},
		{"one space", "GET /\r\n\r\n", errBadRequest},
		{"empty uri", "GET  HTTP/1.1\r\n\r\n", errBadRequest},
		{"bad version", "GET / SPDY/3\r\n\r\n", errBadVersion},
		{"header without colon", "GET / HTTP/1.1\r\nbroken\r\n\r\n", errBadRequest},
		{"bad content length", "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", errBadRequest},
		{"huge content length", "GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", errBadRequest},
		{"chunked", "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", errChunked},
		{"empty content length", "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n", errBadRequest},
		{"signed content length", "GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\n", errBadRequest},
		{"comma content length", "GET / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n", errBadRequest},
		{"hex content length", "GET / HTTP/1.1\r\nContent-Length: 0x20\r\n\r\n", errBadRequest},
		{"duplicate content length, same value",
			"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n", errBadRequest},
		{"duplicate content length, different values",
			"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\n", errBadRequest},
		{"duplicate content length, folded case",
			"POST / HTTP/1.1\r\ncontent-length: 4\r\nCONTENT-LENGTH: 9\r\n\r\n", errBadRequest},
		{"space before colon", "POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\n", errBadRequest},
		{"tab before colon", "POST / HTTP/1.1\r\nContent-Length\t: 5\r\n\r\n", errBadRequest},
		{"folded line", "POST / HTTP/1.1\r\nX-A: a\r\n Content-Length: 5\r\n\r\n", errBadRequest},
		{"bare LF in a value", "GET / HTTP/1.1\r\nX-A: a\nContent-Length: 5\r\n\r\n", errBadRequest},
		{"bare LF in the request line", "GET /a\nb HTTP/1.1\r\n\r\n", errBadRequest},
		{"bare CR in the target", "GET /a\rb HTTP/1.1\r\n\r\n", errBadRequest},
		{"NUL in the target", "GET /a\x00b HTTP/1.1\r\n\r\n", errBadRequest},
		{"DEL in the target", "GET /a\x7fb HTTP/1.1\r\n\r\n", errBadRequest},
		{"tab in the target", "GET /a\tb HTTP/1.1\r\n\r\n", errBadRequest},
		{"non-token method", "G(T / HTTP/1.1\r\n\r\n", errBadRequest},
		{"control byte in the method", "G\x01T / HTTP/1.1\r\n\r\n", errBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newTestCtx()
			if err := parseRaw(ctx, tc.raw); err != tc.want {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestHTTP10KeepAliveOptIn(t *testing.T) {
	ctx := newTestCtx()
	if err := parseRaw(ctx, "GET / HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if ctx.req.keepAlive {
		t.Error("HTTP/1.0 should default to close")
	}
	if err := parseRaw(ctx, "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if !ctx.req.keepAlive {
		t.Error("HTTP/1.0 with Connection: keep-alive should keep alive")
	}
}

// contentLength parses v as a request's Content-Length value through
// the head walk.
func contentLength(v []byte) (int, bool) {
	ctx := newTestCtx()
	if parseRaw(ctx, "GET / HTTP/1.1\r\nContent-Length: "+string(v)+"\r\n\r\n") != nil {
		return 0, false
	}
	return int(ctx.req.head.ContentLength), true
}

func TestHelpers(t *testing.T) {
	if !http11.EqualFold([]byte("Content-LENGTH"), "content-length") {
		t.Error("equalFold should fold ASCII case")
	}
	if http11.EqualFold([]byte("abc"), "abd") || http11.EqualFold([]byte("ab"), "abc") {
		t.Error("equalFold false positives")
	}
	if got := string(http11.TrimOWS([]byte("\t  x y \t"))); got != "x y" {
		t.Errorf("trimOWS = %q", got)
	}
	if n, ok := contentLength([]byte("1234")); !ok || n != 1234 {
		t.Errorf("contentLength(1234) = %d, %v", n, ok)
	}
	for _, bad := range []string{"", "12a", "-1", "99999999999999999999"} {
		if _, ok := contentLength([]byte(bad)); ok {
			t.Errorf("contentLength(%q) accepted", bad)
		}
	}
	// Overflow boundary: the parser caps at 2^30, and — crucially — must
	// not wrap around into a small accepted value on 64-bit overflow
	// territory ("18446744073709551617" would wrap to 1 in uint64 math).
	if n, ok := contentLength([]byte("1073741824")); !ok || n != 1<<30 {
		t.Errorf("contentLength(2^30) = %d, %v; want accepted", n, ok)
	}
	for _, bad := range []string{"1073741825", "18446744073709551617"} {
		if n, ok := contentLength([]byte(bad)); ok {
			t.Errorf("contentLength(%q) accepted as %d, want overflow rejection", bad, n)
		}
	}
}

// TestLongPipelineKeepsBuffer: a client that pipelines without pause,
// its reads ending mid-head and parking, must not grow the read buffer.
// Each request that needs a read moves to the buffer's front and its
// head is walked again there, so the buffer stays at its initial size.
func TestLongPipelineKeepsBuffer(t *testing.T) {
	var stream []byte
	for i := 0; i < 2000; i++ {
		stream = fmt.Appendf(stream, "GET /p%d HTTP/1.1\r\nHost: h\r\nX-Pad: %0*d\r\n\r\n", i, i%40, 0)
	}
	ctx := newTestCtx()
	size := len(ctx.rbuf)
	ctx.begin(&conn{Conn: &serve.Conn{Conn: &scriptedConn{data: stream, chunks: []int{1000, 333, 2900}}}}, 0)
	consumed := 0
	for i := 0; ; i++ {
		err := readParked(ctx)
		if err == errClientGone {
			break
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := fmt.Sprintf("/p%d", i); string(ctx.Path()) != want {
			t.Fatalf("request %d: path %q, want %q", i, ctx.Path(), want)
		}
		consumed += ctx.rpos - ctx.start
	}
	if consumed != len(stream) {
		t.Fatalf("requests account for %d of %d bytes", consumed, len(stream))
	}
	if len(ctx.rbuf) != size {
		t.Fatalf("read buffer grew from %d to %d bytes under a pipeline of small requests", size, len(ctx.rbuf))
	}
}

// recordingConn is a scriptedConn that records each read's buffer size
// and byte count.
type recordingConn struct {
	scriptedConn
	asked, got []int
}

func (c *recordingConn) Read(b []byte) (int, error) {
	n, err := c.scriptedConn.Read(b)
	c.asked, c.got = append(c.asked, len(b)), append(c.got, n)
	return n, err
}

// TestBodyReadEndsShort: the read that completes a request body sent
// alone comes back short, so the park after it need not probe for more
// input. Reads take the buffer's free space, not just the bytes still
// owed, and the buffer keeps room past the body, also on the second
// request, which reuses the buffer the first one grew.
func TestBodyReadEndsShort(t *testing.T) {
	body := strings.Repeat("b", 10000)
	req := "POST /u HTTP/1.1\r\nContent-Length: 10000\r\n\r\n" + body
	for _, chunk := range []int{3000, 1 << 20} {
		ctx := newTestCtx()
		for round := 0; round < 2; round++ {
			rc := &recordingConn{scriptedConn: scriptedConn{data: []byte(req), chunks: []int{chunk}}}
			ctx.begin(&conn{Conn: &serve.Conn{Conn: rc}}, 0)
			if err := readParked(ctx); err != nil {
				t.Fatalf("chunk %d, round %d: %v", chunk, round, err)
			}
			if string(ctx.Body()) != body || ctx.buffered() != 0 {
				t.Fatalf("chunk %d, round %d: body of %d bytes, %d buffered", chunk, round, len(ctx.Body()), ctx.buffered())
			}
			if last := len(rc.got) - 1; rc.got[last] >= rc.asked[last] {
				t.Errorf("chunk %d, round %d: the read that completed the body filled its buffer (reads asked %v, got %v)",
					chunk, round, rc.asked, rc.got)
			}
			ctx.end()
		}
	}
}

// TestParseZeroAlloc pins the zero-copy claim: once the header slice
// capacity is warm, parsing a request performs no allocations at all.
func TestParseZeroAlloc(t *testing.T) {
	ctx := newTestCtx()
	raw := "GET /hot/path?q=1 HTTP/1.1\r\nHost: bench.test\r\nUser-Agent: alloc-test\r\nAccept: */*\r\n\r\n"
	if err := parseRaw(ctx, raw); err != nil { // warm the header slice
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := parseRaw(ctx, raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parse allocates %.1f objects per request, want 0", allocs)
	}
}

// TestSerializeZeroAlloc pins the response side: serializing a response
// into a warm write buffer performs no allocations.
func TestSerializeZeroAlloc(t *testing.T) {
	ctx := newTestCtx()
	if err := parseRaw(ctx, "GET / HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	body := []byte("hello, core-local world")
	render := func() {
		ctx.resp.reset()
		ctx.SetHeader("X-Trace", "abc123")
		ctx.Write(body)
		ctx.appendResponse(false)
		ctx.wbuf = ctx.wbuf[:0]
	}
	render() // warm wbuf, body and extra capacities
	if allocs := testing.AllocsPerRun(200, render); allocs != 0 {
		t.Fatalf("serialize allocates %.1f objects per response, want 0", allocs)
	}
}

// refResponse is the response serialization written out field by field,
// independently of appendResponse: what it must produce byte for byte.
func refResponse(name string, status int, ctype, extra string, body []byte, closing, head bool, sec int64) string {
	var b strings.Builder
	if text := http.StatusText(status); status == http.StatusOK {
		b.WriteString("HTTP/1.1 200 OK\r\n")
	} else if text != "" {
		fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, text)
	} else {
		fmt.Fprintf(&b, "HTTP/1.1 %d Status\r\n", status)
	}
	fmt.Fprintf(&b, "Server: %s\r\nDate: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n",
		name, time.Unix(sec, 0).UTC().Format(http.TimeFormat), ctype, len(body))
	b.WriteString(extra)
	if closing {
		b.WriteString("Connection: close\r\n")
	}
	b.WriteString("\r\n")
	if !head {
		b.Write(body)
	}
	return b.String()
}

// TestHeadMatchesReference serializes a table of responses through
// appendResponse and checks each against refResponse. The cases run in
// sequence on one arena, twice, so each status and content type follows
// another. A second rollover of the coarse clock, across midnight, is
// driven through the arena's cached head middle directly.
func TestHeadMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		server  string
		method  string
		status  int
		ctype   string
		extra   [][2]string
		closing bool
	}{
		{name: "200", status: 200},
		{name: "404", status: 404},
		{name: "unknown status", status: 599},
		{name: "200 again", status: 200},
		{name: "custom content type", status: 200, ctype: "application/json"},
		{name: "SetHeader extras", status: 201, extra: [][2]string{{"X-Trace", "abc"}, {"Cache-Control", "no-store"}}},
		{name: "Connection: close", status: 200, closing: true},
		{name: "HEAD", method: "HEAD", status: 200},
		{name: "HEAD non-200", method: "HEAD", status: 304, ctype: "text/html"},
		{name: "custom ServerName", server: "edge-7", status: 200},
	}
	body := []byte("hello, core-local world")
	for pass := 0; pass < 2; pass++ {
		ctx := newTestCtx()
		for _, tc := range cases {
			if tc.server != "" {
				ctx = newTestCtx()
				ctx.srv.name = []byte(tc.server)
			}
			method := tc.method
			if method == "" {
				method = "GET"
			}
			if err := parseRaw(ctx, method+" / HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			var want string
			for try := 0; ; try++ {
				ctx.resp.reset()
				ctx.SetStatus(tc.status)
				if tc.ctype != "" {
					ctx.SetContentType(tc.ctype)
				}
				extra := ""
				for _, h := range tc.extra {
					ctx.SetHeader(h[0], h[1])
					extra += h[0] + ": " + h[1] + "\r\n"
				}
				ctx.Write(body)
				ctx.wbuf = ctx.wbuf[:0]
				before := time.Now().Unix()
				ctx.appendResponse(tc.closing)
				if after := time.Now().Unix(); after != before && try < 3 {
					continue // the second rolled over mid-case: redo it
				}
				want = refResponse(string(ctx.srv.name), tc.status, ctx.resp.contentType, extra,
					body, tc.closing, method == "HEAD", before)
				break
			}
			if got := string(ctx.wbuf); got != want {
				t.Errorf("pass %d, %s:\n got %q\nwant %q", pass, tc.name, got, want)
			}
		}
	}

	t.Run("second rollover", func(t *testing.T) {
		a := newTestCtx().srv.arenas[0]
		t0 := time.Date(2026, 3, 1, 23, 59, 59, 0, time.UTC).UnixNano()
		for i, now := range []int64{t0, t0 + 999_999_999, t0 + 1e9, t0 + 1e9 + 1, t0 + 2e9} {
			got := string(a.appendMid(nil, now))
			want := "Server: httpaff\r\nDate: " + time.Unix(0, now).UTC().Format(http.TimeFormat) +
				"\r\nContent-Type: "
			if got != want {
				t.Errorf("step %d: got %q, want %q", i, got, want)
			}
		}
	})
}
