package proxyaff

import (
	"bytes"

	"affinityaccept/internal/http11"
)

// Byte-level HTTP/1.1 helpers for the relay path. The primitives
// shared with the httpaff parser live in internal/http11; what remains
// here is specific to parsing the *upstream* side of an exchange,
// where the proxy is the client.

var (
	crlf     = []byte("\r\n")
	crlfCRLF = []byte("\r\n\r\n")
)

// parseContentLength parses an upstream response's Content-Length
// without allocating. Unlike the request-side parser's 2^30 cap (a
// request-smuggling bound on what this server will buffer), a relayed
// response body is streamed in 32 KiB chunks and never buffered whole,
// so the only cap is what an int64 byte count can express.
func parseContentLength(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
		if n > 1<<60 {
			return 0, false
		}
	}
	return n, true
}

// idempotentMethod reports whether the request method is safe to
// replay on a fresh connection after a stale pooled connection failed
// before yielding a response byte. A write failure does not prove the
// backend never *processed* the request — only idempotent methods
// (RFC 9110 §9.2.2, matching net/http.Transport's retry set) may be
// repeated without risking double execution.
func idempotentMethod(m []byte) bool {
	return http11.EqualFold(m, "get") || http11.EqualFold(m, "head") ||
		http11.EqualFold(m, "options") || http11.EqualFold(m, "trace")
}

// hopByHop reports whether the header named key is connection-scoped
// (RFC 9110 §7.6.1) and must not be forwarded across the proxy in
// either direction.
func hopByHop(key []byte) bool {
	switch len(key) {
	case 2:
		return http11.EqualFold(key, "te")
	case 7:
		return http11.EqualFold(key, "trailer") || http11.EqualFold(key, "upgrade")
	case 10:
		return http11.EqualFold(key, "connection") || http11.EqualFold(key, "keep-alive")
	case 16:
		return http11.EqualFold(key, "proxy-connection")
	case 17:
		return http11.EqualFold(key, "transfer-encoding")
	case 18:
		return http11.EqualFold(key, "proxy-authenticate")
	case 19:
		return http11.EqualFold(key, "proxy-authorization")
	}
	return false
}

// parseStatusLine extracts the status code from an upstream status line
// ("HTTP/1.1 200 OK"; the reason phrase is optional) and reports
// whether the upstream speaks keep-alive by default (HTTP/1.1). ok is
// false on anything else.
func parseStatusLine(line []byte) (code int, keepAlive, ok bool) {
	const prefix = len("HTTP/1.x ") // status code starts at 9
	if len(line) < prefix+3 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, false, false
	}
	if v := line[7]; v == '1' {
		keepAlive = true
	} else if v != '0' {
		return 0, false, false
	}
	for _, c := range line[prefix : prefix+3] {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		code = code*10 + int(c-'0')
	}
	if len(line) > prefix+3 && line[prefix+3] != ' ' {
		return 0, false, false
	}
	return code, keepAlive, true
}

// nextLine splits buf at the first CRLF, returning the line and the
// rest (nil when the terminator is absent, consuming everything).
func nextLine(buf []byte) (line, rest []byte) {
	if i := bytes.Index(buf, crlf); i >= 0 {
		return buf[:i], buf[i+2:]
	}
	return buf, nil
}
