package httpaff

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"affinityaccept/serve"
)

// fuzzSeeds is the shared seed corpus: every shape the handwritten
// parser tests exercise, valid and hostile. The committed corpus under
// testdata/fuzz/FuzzParseHead extends it with fuzzer-found inputs.
var fuzzSeeds = []string{
	"GET /x/y?a=1&b=2 HTTP/1.1\r\nHost: h\r\n\r\n",
	"POST /u HTTP/1.1\r\nHost: example.test\r\nContent-Length:  42\r\nX-Custom:\tspaced value \r\nCONNECTION: Keep-Alive\r\n\r\n",
	"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
	"GARBAGE\r\n\r\n",
	"GET /\r\n\r\n",
	"GET  HTTP/1.1\r\n\r\n",
	"GET / SPDY/3\r\n\r\n",
	"GET / HTTP/1.1\r\nbroken\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
	"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length:\r\n\r\n",
	"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n",
	"POST / HTTP/1.1\r\ncontent-length: 4\r\nCONTENT-LENGTH: 9\r\n\r\n",
	"HEAD /h HTTP/1.1\r\n\r\n",
	"GET /ws HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: x\r\nSec-WebSocket-Version: 13\r\n\r\n",
	"\r\n\r\n",
	"A B C\r\nX:\r\n\r\n",
	// Bare LF and bare CR: only CRLF ends a line, so each stays inside
	// the line it sits in; a line holding a bare LF is refused.
	"GET / HTTP/1.1\nHost: h\n\n",
	"GET / HTTP/1.1\r\nX-A: a\nb\r\nHost: h\r\n\r\n",
	"GET / HTTP/1.1\r\n\n\r\n\r\n",
	"\nGET / HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\r\nX-A: a\rb\r\nHost: h\r\n\r\n",
	"GET / HTTP/1.1\r\r\n\r\n",
	"GET / HTTP/1.1\rHost: h\r\n\r\n",
	// Connection is a token list: a close token anywhere closes.
	"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
	"GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n",
	// Field names are tokens ending at the colon: whitespace before it,
	// or a folded line, fails closed.
	"POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
	"POST / HTTP/1.1\r\nX-A: a\r\n Content-Length: 5\r\n\r\nhello",
	// The method is a token and the target holds no control byte.
	"GET /a\rb HTTP/1.1\r\n\r\n",
	"GET /a\x00b HTTP/1.1\r\n\r\n",
	"GET /a\x7fb HTTP/1.1\r\n\r\n",
	"G(T / HTTP/1.1\r\n\r\n",
}

// blankLine is the CRLF pair that ends a request head.
var blankLine = []byte("\r\n\r\n")

// FuzzParseHead hammers the zero-copy head walk with arbitrary bytes.
// The walk's contract under fuzzing:
//
//   - never panic, whatever the bytes;
//   - given a blank line, it reaches a verdict: a protocol error, or a
//     head ending exactly where the first CRLF CRLF ends;
//   - on success, the request-line views are non-empty, alias the
//     input buffer, the method is a token, the target holds no control
//     byte, DEL or space, and Content-Length is within the buffering
//     cap;
//   - parsing is deterministic: the same bytes parse to the same
//     result twice (the walk must not leave state behind in the ctx).
func FuzzParseHead(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.Contains(data, blankLine) {
			// readRequest decides on a head once its blank line has
			// arrived; complete the terminator ourselves.
			data = append(data, blankLine...)
		}
		ctx := newTestCtx()
		if len(data) > len(ctx.rbuf) {
			ctx.rbuf = make([]byte, len(data))
		}
		ctx.rlen = copy(ctx.rbuf, data)
		end, done, err := ctx.walkHead(0, ctx.rlen)
		if err != nil {
			var pe *protoError
			if !errors.As(err, &pe) {
				t.Fatalf("walkHead returned a non-protocol error: %v", err)
			}
			return
		}
		if want := bytes.Index(data, blankLine) + len(blankLine); !done || end != want {
			t.Fatalf("walk stopped at %d (done %v), want the head's end %d in %q", end, done, want, data)
		}
		head := data[:end]
		if len(ctx.req.method) == 0 || len(ctx.req.uri) == 0 || len(ctx.req.proto) == 0 {
			t.Fatalf("accepted request with empty views: method=%q uri=%q proto=%q from %q",
				ctx.req.method, ctx.req.uri, ctx.req.proto, head)
		}
		for _, c := range ctx.req.method {
			if !strings.ContainsRune("!#$%&'*+-.^_`|~", rune(c)) && !('0' <= c && c <= '9') &&
				!('a' <= c|0x20 && c|0x20 <= 'z') {
				t.Fatalf("accepted method %q, not a token, from %q", ctx.req.method, head)
			}
		}
		for _, c := range ctx.req.uri {
			if c <= ' ' || c == 0x7f {
				t.Fatalf("accepted target %q with a control byte or space, from %q", ctx.req.uri, head)
			}
		}
		if cl := ctx.req.head.ContentLength; cl < -1 || cl > 1<<30 {
			t.Fatalf("accepted Content-Length %d outside [0, 2^30] (-1: none) from %q", cl, head)
		}
		for _, h := range ctx.req.head.Fields {
			if len(h.Name) == 0 {
				t.Fatalf("accepted header with empty key from %q", head)
			}
		}
		method1, uri1, nHeaders := string(ctx.req.method), string(ctx.req.uri), len(ctx.req.head.Fields)

		// Determinism: a second walk of the same bytes in the same ctx
		// (the keep-alive reuse pattern) must agree.
		if _, _, err := ctx.walkHead(0, ctx.rlen); err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if string(ctx.req.method) != method1 || string(ctx.req.uri) != uri1 || len(ctx.req.head.Fields) != nHeaders {
			t.Fatalf("reparse disagreed: %q/%q/%d vs %q/%q/%d",
				ctx.req.method, ctx.req.uri, len(ctx.req.head.Fields), method1, uri1, nHeaders)
		}
	})
}

// scriptedConn delivers a fixed byte stream in scripted read sizes,
// cycling through chunks, then reports io.EOF. After each chunk the
// next read would block, as a socket's does until more bytes arrive.
type scriptedConn struct {
	net.Conn // nil: only Read and SetReadDeadline are called
	data     []byte
	chunks   []int
	reads    int
	cut      bool // the last read ended a chunk
}

func (c *scriptedConn) Read(b []byte) (int, error) {
	if c.cut {
		c.cut = false
		return 0, serve.ErrWouldBlock
	}
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(b), len(c.data), c.chunks[c.reads%len(c.chunks)])
	c.reads++
	n = copy(b, c.data[:n])
	c.data = c.data[n:]
	c.cut = true
	return n, nil
}

func (c *scriptedConn) SetReadDeadline(time.Time) error { return nil }

// readAll runs readRequest over stream, delivered in the given read
// sizes, until it fails. A read that would block ends the pass as a
// parked one does: the request's bytes move to the connection, the
// context is reset, and the next pass resumes. It returns every request
// it parsed, rendered to a string (copied before the next read can move
// the bytes), the request bytes they were counted as, and the terminal
// error's class.
func readAll(stream []byte, chunks []int) (reqs []string, consumed int, class string) {
	ctx := newTestCtx()
	ctx.begin(&conn{Conn: &serve.Conn{Conn: &scriptedConn{data: stream, chunks: chunks}}}, 0)
	for {
		err := readParked(ctx)
		if err != nil {
			var pe *protoError
			if errors.As(err, &pe) {
				return reqs, consumed, strconv.Itoa(pe.code)
			}
			return reqs, consumed, err.Error()
		}
		consumed += ctx.rpos - ctx.start
		r := fmt.Sprintf("%q %q %q %d|", ctx.req.method, ctx.req.uri, ctx.req.proto, ctx.rpos-ctx.start)
		for _, h := range ctx.req.head.Fields {
			r += fmt.Sprintf("%q=%q|", h.Name, h.Value)
		}
		reqs = append(reqs, r+string(ctx.req.body))
	}
}

// readParked runs readRequest as the server does: a read that would
// block ends the pass, the request's bytes move to the connection and
// the context is reset, and the next pass resumes over them.
func readParked(ctx *RequestCtx) error {
	for {
		err := ctx.readRequest()
		if err != serve.ErrWouldBlock {
			return err
		}
		c := ctx.conn
		ctx.hold()
		ctx.end()
		ctx.begin(c, 0)
	}
}

// withBody appends to a seed request the body its Content-Length
// declares, when that is small.
func withBody(seed string) string {
	lower := strings.ToLower(seed)
	i := strings.Index(lower, "content-length:")
	if i < 0 {
		return seed
	}
	v, _, _ := strings.Cut(lower[i+len("content-length:"):], "\r\n")
	if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n > 0 && n <= 64 {
		return seed + strings.Repeat("b", n)
	}
	return seed
}

// FuzzReadRequestSplits pins that parsing depends on the bytes, not on
// how reads split them or where the connection parks: a stream of
// pipelined requests delivered in fuzzer-chosen read sizes, parking
// after each, yields the same requests (method, target, version, size,
// headers, body) and the same terminal error as the stream delivered in
// reads as large as the buffer takes. A clean end of stream after whole
// requests must account for every byte.
func FuzzReadRequestSplits(f *testing.F) {
	for i := range fuzzSeeds {
		var stream string
		for j := 0; j <= i%3; j++ {
			stream += withBody(fuzzSeeds[(i+j)%len(fuzzSeeds)])
		}
		f.Add([]byte(stream), []byte{byte(i * 13)})
	}
	// Reads that end inside a pipelined head after its first lines,
	// so the walk resumes on a request that starts mid-buffer.
	heads := "GET /one HTTP/1.1\r\nHost: a\r\nX-A: 1111\r\n\r\n" +
		"DELETE /second HTTP/1.1\r\nHost: bb\r\nX-B: 22222222\r\n\r\n" +
		"PUT /third/one HTTP/1.0\r\nHost: ccc\r\nX-C: 3\r\n\r\n"
	f.Add([]byte(heads), []byte{39})
	f.Add([]byte(heads), []byte{59, 20})
	// A body that crosses the initial buffer's end, behind a request
	// that makes it start mid-buffer.
	big := "GET /a HTTP/1.1\r\nHost: h\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 5000\r\n\r\n" +
		strings.Repeat("x", 5000) + "GET /c HTTP/1.1\r\n\r\n"
	f.Add([]byte(big), []byte{})
	f.Add([]byte(big), []byte{200, 7, 255, 0})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		if len(stream) > 64<<10 {
			t.Skip("stream beyond the fuzzed range")
		}
		chunks := []int{1} // no cuts: a byte at a time
		if len(cuts) > 0 {
			chunks = make([]int, len(cuts))
			for i, c := range cuts {
				chunks[i] = 1 + int(c)
			}
		}
		split, _, splitErr := readAll(stream, chunks)
		whole, consumed, wholeErr := readAll(stream, []int{len(stream) + 1})
		if splitErr != wholeErr || !slices.Equal(split, whole) {
			t.Fatalf("split reads %v gave %d requests then %q; one read gave %d then %q\nsplit: %q\nwhole: %q",
				chunks, len(split), splitErr, len(whole), wholeErr, split, whole)
		}
		if wholeErr == errClientGone.Error() && consumed != len(stream) {
			t.Fatalf("requests account for %d of %d bytes before a clean end", consumed, len(stream))
		}
	})
}
