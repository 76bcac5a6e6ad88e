package http11

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
)

// TestWalkRefuses: each shape a second parser could frame differently
// fails closed with the error the callers map to their answer.
func TestWalkRefuses(t *testing.T) {
	for _, tc := range []struct {
		head string
		want error
	}{
		{"GET / HTTP/1.1\r\nContent-Length : 5\r\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\nContent-Length\t: 5\r\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\nX-A: a\r\n Content-Length: 5\r\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\n: v\r\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\nno colon\r\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\nX-A: a\nContent-Length: 5\r\n\r\n", ErrMalformed},
		{"GET /a\nb HTTP/1.1\r\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\n\n\r\n", ErrMalformed},
		{"GET / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\n", ErrDuplicateLength},
		{"GET / HTTP/1.1\r\nContent-Length: 1073741825\r\n\r\n", ErrLength},
		{"GET / HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\n", ErrLength},
		{"GET / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n", ErrLength},
		{"GET / HTTP/1.1\r\nContent-Length:\r\n\r\n", ErrLength},
		{"GET / HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n", ErrTransferEncoding},
	} {
		var h Head
		if _, _, err := h.Walk([]byte(tc.head), 0, 0, 1<<30); err != tc.want {
			t.Errorf("%q: %v, want %v", tc.head, err, tc.want)
		}
	}
	var h Head
	if _, done, err := h.Walk([]byte("GET / HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n"), 0, 0, 1<<30); !done || err != nil || h.ContentLength != 1<<30 {
		t.Errorf("Content-Length at the cap: done %v, %v, %d", done, err, h.ContentLength)
	}
}

// TestKeepAliveMatchesNetHTTP: the Connection verdict agrees with
// net/http's, for requests and for responses, at both versions.
func TestKeepAliveMatchesNetHTTP(t *testing.T) {
	for _, conn := range []string{
		"", "Connection: close\r\n", "Connection: keep-alive\r\n", "Connection: Keep-Alive, close\r\n",
		"Connection: close, TE\r\n", "Connection: TE\r\n", "Connection: TE, keep-alive\r\n",
		"Connection: keep-alive\r\nConnection: close\r\n", "Connection: close\r\nConnection: keep-alive\r\n",
	} {
		for _, minor := range []string{"0", "1"} {
			req := "GET / HTTP/1." + minor + "\r\nHost: h\r\n" + conn + "\r\n"
			resp := "HTTP/1." + minor + " 200 OK\r\nContent-Length: 0\r\n" + conn + "\r\n"
			r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(req)))
			if err != nil {
				t.Fatal(err)
			}
			s, err := http.ReadResponse(bufio.NewReader(strings.NewReader(resp)), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				head  string
				close bool
			}{{req, r.Close}, {resp, s.Close}} {
				var h Head
				if _, done, err := h.Walk([]byte(tc.head), 0, 0, 1<<30); !done || err != nil {
					t.Fatalf("%q: done %v, %v", tc.head, done, err)
				}
				if got := h.KeepAlive(minor == "1"); got == tc.close {
					t.Errorf("%q: keep-alive %v, net/http close %v", tc.head, got, tc.close)
				}
			}
		}
	}
}
