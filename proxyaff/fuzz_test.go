package proxyaff

import (
	"bytes"
	"fmt"
	"testing"
)

// responseSeeds are the upstream response shapes the relay tests send,
// valid and refused.
var responseSeeds = []string{
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
	"HTTP/1.1 200 OK\r\nX-Legacy: 1\r\n\r\nold-school body",
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close, X-Conn-Scoped\r\nX-Conn-Scoped: v\r\nX-App: 1\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
	"HTTP/1.1 204 No Content\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n",
	"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: x\r\n\r\n\x81\x02hi",
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
	"HTTP/1.1 200 OK\r\nContent-Length: 11529215046068469760\r\n\r\n",
	"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 0\r\n\r\n",
	"HTTP/2 200\r\n\r\n",
	"HTTP/1.1 200 OK\nContent-Length: 0\n\n",
	"HTTP/1.1 200 OK\r\nX-A: a\nb\r\n\r\n",
	// Whitespace before the colon, and a folded line: refused.
	"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nX-A: a\r\n Content-Length: 2\r\n\r\nok",
}

// walkResponse walks data as the relay does, delivered in reads of the
// given sizes (cycling), until the head is done, refused, or the bytes
// run out, and renders the verdict.
func walkResponse(data []byte, chunks []int, upgrade bool) (string, *responseHead) {
	h := &responseHead{}
	for n, i := 0, 0; ; i++ {
		done, fault := h.walk(data[:n], upgrade)
		switch {
		case fault != "":
			return "502 " + fault, h
		case done:
			r := fmt.Sprintf("%q %d keep-alive=%v length=%d end=%d|",
				h.Start, h.code, h.keepAlive, h.ContentLength, h.next)
			for _, f := range h.Fields {
				r += fmt.Sprintf("%q=%q|", f.Name, f.Value)
			}
			return r, h
		case n == len(data):
			return "incomplete", h
		}
		n = min(len(data), n+chunks[i%len(chunks)])
	}
}

// FuzzParseResponseHead drives the relay's response-head walk, the
// status line plus the grammar shared with httpaff, with arbitrary
// bytes. Its contract:
//
//   - never panic, whatever the bytes;
//   - the verdict depends on the bytes, not on how reads split them;
//   - an accepted head ends exactly where the first CRLF CRLF ends, its
//     status is final (or a 101 the request asked for), no line holds
//     a bare LF, its field names are non-empty and neither names nor
//     values carry surrounding whitespace, and its Content-Length is
//     absent (-1) or within the relay's cap.
func FuzzParseResponseHead(f *testing.F) {
	for i, s := range responseSeeds {
		f.Add([]byte(s), []byte{byte(i * 7)}, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte, upgrade bool) {
		if len(data) > 64<<10 {
			t.Skip("head beyond the fuzzed range")
		}
		chunks := []int{1} // no cuts: a byte at a time
		if len(cuts) > 0 {
			chunks = make([]int, len(cuts))
			for i, c := range cuts {
				chunks[i] = 1 + int(c)
			}
		}
		split, _ := walkResponse(data, chunks, upgrade)
		whole, h := walkResponse(data, []int{len(data) + 1}, upgrade)
		if split != whole {
			t.Fatalf("split reads %v gave %q; one read gave %q\nfor %q", chunks, split, whole, data)
		}
		if whole == "incomplete" || whole[:4] == "502 " {
			return
		}
		if want := bytes.Index(data, []byte("\r\n\r\n")) + 4; h.next != want {
			t.Fatalf("walk ended at %d, want the head's end %d in %q", h.next, want, data)
		}
		for i, c := range data[:h.next] {
			if c == '\n' && (i == 0 || data[i-1] != '\r') {
				t.Fatalf("accepted a bare LF at %d in %q", i, data)
			}
		}
		if h.code < 200 && !(h.code == 101 && upgrade) || h.code > 999 {
			t.Fatalf("accepted status %d (upgrade %v) from %q", h.code, upgrade, data)
		}
		if h.ContentLength < -1 || h.ContentLength > maxUpstreamLength {
			t.Fatalf("accepted Content-Length %d from %q", h.ContentLength, data)
		}
		for _, f := range h.Fields {
			if n := f.Name; len(n) == 0 || bytes.ContainsAny(n, ":\n") || isSpace(n[0]) || isSpace(n[len(n)-1]) {
				t.Fatalf("accepted field name %q from %q", n, data)
			}
			if v := f.Value; len(v) > 0 && (isSpace(v[0]) || isSpace(v[len(v)-1])) {
				t.Fatalf("field value %q keeps its whitespace, from %q", v, data)
			}
		}
	})
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' }
