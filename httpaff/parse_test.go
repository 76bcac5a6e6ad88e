package httpaff

import (
	"bytes"
	"testing"

	"affinityaccept/internal/http11"
	"affinityaccept/serve"
)

// newTestCtx builds a context wired to a minimal server, no transport.
func newTestCtx() *RequestCtx {
	// A zero serve.Server has no loops: CoarseNow reads the real clock.
	s := &Server{name: []byte("httpaff"), srv: &serve.Server{}, arenas: []*arena{{}}}
	s.cfg.MaxHeaderBytes = 8192
	s.cfg.MaxBodyBytes = 1 << 20
	return &RequestCtx{srv: s, rbuf: make([]byte, 4096), wbuf: make([]byte, 0, 4096)}
}

// load primes the read buffer as if the bytes had arrived from the
// network, then parses the head directly.
func parseRaw(ctx *RequestCtx, raw string) error {
	copy(ctx.rbuf, raw)
	ctx.rlen = len(raw)
	ctx.rpos = 0
	end := bytes.Index(ctx.rbuf[:ctx.rlen], crlfCRLF)
	if end < 0 {
		panic("test request has no header terminator")
	}
	return ctx.parseHead(ctx.rbuf[:end+2])
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
	if ctx.req.contentLength != 42 {
		t.Errorf("content-length %d", ctx.req.contentLength)
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
	if n, ok := parseUint([]byte("1234")); !ok || n != 1234 {
		t.Errorf("parseUint(1234) = %d, %v", n, ok)
	}
	for _, bad := range []string{"", "12a", "-1", "99999999999999999999"} {
		if _, ok := parseUint([]byte(bad)); ok {
			t.Errorf("parseUint(%q) accepted", bad)
		}
	}
	// Overflow boundary: the parser caps at 2^30, and — crucially — must
	// not wrap around into a small accepted value on 64-bit overflow
	// territory ("18446744073709551617" would wrap to 1 in uint64 math).
	if n, ok := parseUint([]byte("1073741824")); !ok || n != 1<<30 {
		t.Errorf("parseUint(2^30) = %d, %v; want accepted", n, ok)
	}
	for _, bad := range []string{"1073741825", "18446744073709551617"} {
		if n, ok := parseUint([]byte(bad)); ok {
			t.Errorf("parseUint(%q) accepted as %d, want overflow rejection", bad, n)
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
