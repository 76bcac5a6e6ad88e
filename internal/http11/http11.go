// Package http11 holds the byte-level HTTP/1.1 primitives shared by
// the server-side parser (httpaff) and the client-side relay parser
// (proxyaff). Everything here is allocation-free and inlinable — these
// run on both layers' zero-allocation hot paths.
package http11

// EqualFold reports whether b equals the lowercase ASCII string s,
// folding A-Z, without allocating.
func EqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// TrimOWS strips optional whitespace (SP / HTAB) from both ends.
func TrimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// TokenListContains reports whether the comma-separated token list
// (a Connection header value, e.g. "close, TE") contains token, ASCII
// case-insensitively, ignoring optional whitespace around tokens. token
// is a lowercase literal, or a header name as received.
func TokenListContains[T string | []byte](list []byte, token T) bool {
	for len(list) > 0 {
		var tok []byte
		if i := indexComma(list); i >= 0 {
			tok, list = list[:i], list[i+1:]
		} else {
			tok, list = list, nil
		}
		if foldEqual(TrimOWS(tok), token) {
			return true
		}
	}
	return false
}

// foldEqual is EqualFold with both sides folded.
func foldEqual[T string | []byte](a []byte, b T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func indexComma(b []byte) int {
	for i := 0; i < len(b); i++ {
		if b[i] == ',' {
			return i
		}
	}
	return -1
}
