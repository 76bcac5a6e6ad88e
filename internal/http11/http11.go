// Package http11 is the one HTTP/1.1 head grammar (RFC 9112) for both
// directions: httpaff walks request heads with it, proxyaff upstream
// response heads, and each keeps only its own start-line parser. It
// works in place on the caller's buffer and allocates nothing once the
// field slice is warm.
package http11

import (
	"bytes"
	"errors"
)

// Head failures. A caller maps each to its own answer (a 400 or 501 to
// a client, a 502 for an upstream); none is recoverable on the
// connection, since the message's end is then unknown.
var (
	ErrMalformed       = errors.New("http11: malformed head line")
	ErrLength          = errors.New("http11: invalid Content-Length")
	ErrDuplicateLength = errors.New("http11: duplicate Content-Length")
	// Chunked framing is self-delimiting only to a decoder, and neither
	// layer decodes it: a request's body could not be buffered, and the
	// relay could not tell when an upstream connection is clean again.
	ErrTransferEncoding = errors.New("http11: Transfer-Encoding is not supported")
)

// Field is one field line split into its name, as received, and its
// value, stripped of optional whitespace; both alias the walked buffer.
type Field struct {
	Name, Value []byte
}

// Head is one message head, walked in place: its start line, for the
// caller to parse, and its fields in arrival order with the framing
// they declare.
type Head struct {
	Start  []byte
	Fields []Field
	// ContentLength is the declared body length, -1 when the head has
	// no Content-Length field.
	ContentLength int64

	connection       bool // some field is a Connection field
	close, keepAlive bool // tokens seen across every Connection field
}

// Walk parses the complete lines in buf[from:] into h and returns the
// offset it stopped at: the first incomplete line, or, when done, the
// end of the blank line closing the head. Only CRLF ends a line, found
// by one LF scan. A bare LF stays inside its line, so the verdict does
// not depend on how reads split the bytes, and the line is refused:
// net/http would end a line there and see another head. The head
// starts at start; from is start, or where the last walk of this head
// stopped, since after a short read h keeps what it parsed and the walk
// resumes once more bytes have arrived. A Content-Length beyond
// maxLength is an ErrLength.
func (h *Head) Walk(buf []byte, start, from int, maxLength int64) (next int, done bool, err error) {
	for {
		lf, bare := from, false
		for {
			i := bytes.IndexByte(buf[lf:], '\n')
			if i < 0 {
				return from, false, nil
			}
			if lf += i; lf > from && buf[lf-1] == '\r' {
				break
			}
			lf, bare = lf+1, true
		}
		line := buf[from : lf-1]
		switch {
		case bare:
			return lf + 1, false, ErrMalformed
		case from == start:
			h.Start, h.Fields, h.ContentLength = line, h.Fields[:0], -1
			h.connection, h.close, h.keepAlive = false, false, false
		case len(line) == 0:
			return lf + 1, true, nil
		default:
			if err := h.field(line, maxLength); err != nil {
				return lf + 1, false, err
			}
		}
		from = lf + 1
	}
}

// KeepAlive reports whether the connection persists past this message
// (RFC 9112 §9.3): no Connection field carries "close", and the
// version persists by default (HTTP/1.1) or a "keep-alive" token opts
// in (HTTP/1.0). net/http decides the same way, for requests and for
// responses.
func (h *Head) KeepAlive(persistent bool) bool {
	return !h.close && (persistent || h.keepAlive)
}

// Nominates reports whether any Connection field lists token, a
// connection option or the name of a further connection-scoped field
// (RFC 9110 §7.6.1). Every Connection field is part of one list, so a
// second field nominates as much as the first.
func (h *Head) Nominates(token []byte) bool {
	if !h.connection {
		return false
	}
	for _, f := range h.Fields {
		if EqualFold(f.Name, "connection") && TokenListContains(f.Value, token) {
			return true
		}
	}
	return false
}

// ValidRequestLine reports whether a request line's method is a token
// (RFC 9110 §9.1) and its target holds no control byte, DEL or space,
// as net/http requires of both. A target that passes cannot end the
// line early for an upstream that takes a bare CR for a line end.
func ValidRequestLine(method, target []byte) bool {
	for _, c := range method {
		if lineBytes[c]&tokenByte == 0 {
			return false
		}
	}
	for _, c := range target {
		if lineBytes[c]&targetByte == 0 {
			return false
		}
	}
	return true
}

// Request-line byte classes, one table lookup per byte.
const (
	tokenByte  = 1 << iota // a tchar (RFC 9110 §5.6.2)
	targetByte             // anything but a CTL, DEL or SP
)

var lineBytes = func() (t [256]uint8) {
	for c := '!'; c < 256; c++ {
		if c != 0x7f {
			t[c] = targetByte
		}
	}
	for _, c := range "!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz" {
		t[c] |= tokenByte
	}
	return t
}()

// field parses one "name: value" line. The name ends at the colon and
// neither starts nor ends with whitespace (RFC 9112 §5.1): whitespace
// before the colon, or a line that starts with whitespace (obsolete
// line folding), fails closed, because a parser that trimmed it would
// frame a body by a field net/http does not see.
func (h *Head) field(line []byte, maxLength int64) error {
	col := bytes.IndexByte(line, ':')
	if col <= 0 || isOWS(line[0]) || isOWS(line[col-1]) {
		return ErrMalformed
	}
	name, val := line[:col], TrimOWS(line[col+1:])
	h.Fields = append(h.Fields, Field{Name: name, Value: val})
	switch len(name) {
	case len("connection"):
		if !EqualFold(name, "connection") {
			break
		}
		h.connection = true
		h.close = h.close || TokenListContains(val, "close")
		h.keepAlive = h.keepAlive || TokenListContains(val, "keep-alive")
	case len("content-length"):
		if !EqualFold(name, "content-length") {
			break
		}
		// Two Content-Length fields are a request-smuggling vector (RFC
		// 9112 §6.3): parsers that disagree on which copy wins disagree
		// on where the next message starts. Reject them outright,
		// matching values included.
		if h.ContentLength >= 0 {
			return ErrDuplicateLength
		}
		n, ok := parseLength(val, maxLength)
		if !ok {
			return ErrLength
		}
		h.ContentLength = n
	case len("transfer-encoding"):
		if EqualFold(name, "transfer-encoding") {
			return ErrTransferEncoding
		}
	}
	return nil
}

// parseLength parses a non-negative decimal no larger than max; false
// on empty input, any non-digit (sign, comma list, hex, space) or a
// value past max. The bound is checked before each step, so no input
// can wrap into an accepted value.
func parseLength(b []byte, max int64) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// TrimOWS strips optional whitespace (SP / HTAB) from both ends.
func TrimOWS(b []byte) []byte {
	for len(b) > 0 && isOWS(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isOWS(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isOWS(c byte) bool { return c == ' ' || c == '\t' }

// TokenListContains reports whether the comma-separated token list
// (a Connection header value, e.g. "close, TE") contains token, ASCII
// case-insensitively, ignoring optional whitespace around tokens. token
// is a lowercase literal, or a header name as received.
func TokenListContains[T string | []byte](list []byte, token T) bool {
	for len(list) > 0 {
		var tok []byte
		if i := bytes.IndexByte(list, ','); i >= 0 {
			tok, list = list[:i], list[i+1:]
		} else {
			tok, list = list, nil
		}
		if EqualFold(TrimOWS(tok), token) {
			return true
		}
	}
	return false
}

// EqualFold reports whether a equals b, ASCII case-insensitively,
// without allocating.
func EqualFold[T string | []byte](a []byte, b T) bool {
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
