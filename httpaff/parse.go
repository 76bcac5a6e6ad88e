package httpaff

import (
	"bytes"
	"errors"
	"os"
	"time"

	"affinityaccept/internal/evloop"
	"affinityaccept/internal/http11"
	"affinityaccept/internal/obs"
)

// protoError is a request-level protocol failure the server answers
// with a status code before closing the connection.
type protoError struct {
	code int
	text string
}

func (e *protoError) Error() string { return e.text }

var (
	errBadRequest     = &protoError{400, "httpaff: malformed request"}
	errHeaderTooLarge = &protoError{431, "httpaff: request headers exceed MaxHeaderBytes"}
	errBodyTooLarge   = &protoError{413, "httpaff: request body exceeds MaxBodyBytes"}
	errChunked        = &protoError{501, "httpaff: Transfer-Encoding is not supported"}
	errBadVersion     = &protoError{505, "httpaff: unsupported HTTP version"}

	// errClientGone: clean EOF between requests — not an error worth a
	// response, the client simply finished.
	errClientGone = errors.New("httpaff: client closed the connection between requests")
)

var (
	crlfCRLF    = []byte("\r\n\r\n")
	protoHTTP11 = []byte("HTTP/1.1")
	protoHTTP10 = []byte("HTTP/1.0")
)

// parseUint parses a non-negative decimal without allocating; false on
// empty input, non-digits, or overflow past 2^30.
func parseUint(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

// armReadDeadline bounds the in-request reads; it replaces whatever
// deadline the previous park armed. Without a ReadTimeout the idle
// timeout applies: a connection that never completes its request is
// occupying a worker — the serve model runs handlers inline, one
// connection per worker, so an unbounded read here would let a few
// silent clients wedge the whole server even though the operator asked
// for idle connections to be dropped.
func (ctx *RequestCtx) armReadDeadline() {
	ctx.armDeadline(ctx.srv.cfg.ReadTimeout)
}

// armHeadDeadline bounds the head (request line + headers) reads. The
// separate, typically tighter HeaderTimeout is the slowloris defense:
// the deadline is absolute from the first blocking head read, so a
// client dripping one header byte per second is cut off on schedule no
// matter how many drips land.
func (ctx *RequestCtx) armHeadDeadline() {
	timeout := ctx.srv.cfg.HeaderTimeout
	if timeout == 0 {
		timeout = ctx.srv.cfg.ReadTimeout
	}
	ctx.armDeadline(timeout)
}

func (ctx *RequestCtx) armDeadline(timeout time.Duration) {
	if timeout == 0 {
		timeout = ctx.srv.cfg.IdleTimeout
	}
	var dl time.Time
	if timeout > 0 {
		// The worker's coarse clock (one stamp per event-loop
		// iteration) replaces a time.Now call per request. It trails
		// time.Now by up to one poll interval, which is added so the
		// deadline fires no earlier than timeout: without it a timeout
		// near that interval could be past on arming, and a fresh
		// connection whose request was still in flight was cut off.
		dl = ctx.srv.srv.CoarseNow(ctx.worker).Add(timeout + evloop.PollInterval)
	}
	ctx.conn.SetReadDeadline(dl)
}

// readRequest reads and parses the next request into ctx.req, consuming
// its bytes from the read buffer. Requests already fully buffered
// (pipelining) are parsed without touching the connection. Returns a
// *protoError for answerable protocol failures, errClientGone for a
// clean EOF between requests, or the transport error.
func (ctx *RequestCtx) readRequest() error {
	// Compact: slide unconsumed pipelined bytes to the front so every
	// request's slices index one contiguous region.
	if ctx.rpos > 0 {
		ctx.rlen = copy(ctx.rbuf, ctx.rbuf[ctx.rpos:ctx.rlen])
		ctx.rpos = 0
	}
	armed := false  // a read deadline has been armed for this request
	headDL := false // ...and it is the (typically tighter) head deadline
	scan := 0
	headerEnd := -1
	for {
		if ctx.rlen > scan {
			if i := bytes.Index(ctx.rbuf[scan:ctx.rlen], crlfCRLF); i >= 0 {
				headerEnd = scan + i + len(crlfCRLF)
				break
			}
			// The terminator may straddle the next read; back up by
			// its length minus one.
			if scan = ctx.rlen - (len(crlfCRLF) - 1); scan < 0 {
				scan = 0
			}
		}
		if ctx.rlen >= ctx.srv.cfg.MaxHeaderBytes {
			return errHeaderTooLarge
		}
		if ctx.rlen == len(ctx.rbuf) {
			ctx.grow(2 * len(ctx.rbuf))
		}
		if !armed {
			ctx.armHeadDeadline()
			armed, headDL = true, true
		}
		n, err := ctx.conn.Read(ctx.rbuf[ctx.rlen:])
		ctx.rlen += n
		if err != nil && n == 0 {
			if ctx.rlen == 0 {
				return errClientGone
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// A started-but-never-finished head is the slowloris
				// signature; count it for the worker serving the pass,
				// tagged onto the victim flow group's journey.
				ctx.srv.admitw[ctx.worker].headerTimeouts.Add(1)
				port, group := ctx.conn.Flow()
				ctx.srv.srv.RecordGroupEvent(ctx.worker, obs.KindHeaderTimeout,
					group, port, int64(ctx.rlen), 0)
			}
			return err // mid-request EOF or timeout
		}
	}
	if headerEnd > ctx.srv.cfg.MaxHeaderBytes {
		return errHeaderTooLarge
	}
	if err := ctx.parseHead(ctx.rbuf[:headerEnd-2]); err != nil {
		return err
	}
	// Body: Content-Length bytes immediately following the headers.
	if ctx.req.contentLength > 0 {
		if ctx.req.contentLength > ctx.srv.cfg.MaxBodyBytes {
			return errBodyTooLarge
		}
		total := headerEnd + ctx.req.contentLength
		if total > len(ctx.rbuf) {
			ctx.grow(total)
		}
		for ctx.rlen < total {
			// The body gets its own budget under ReadTimeout: when a
			// distinct HeaderTimeout armed the head reads, re-arm here
			// so a tight header deadline doesn't strangle a legitimate
			// large upload.
			if !armed || (headDL && ctx.srv.cfg.HeaderTimeout > 0) {
				ctx.armReadDeadline()
				armed, headDL = true, false
			}
			n, err := ctx.conn.Read(ctx.rbuf[ctx.rlen:total])
			ctx.rlen += n
			if err != nil && n == 0 {
				return err
			}
		}
		ctx.req.body = ctx.rbuf[headerEnd:total]
		ctx.rpos = total
	} else {
		ctx.rpos = headerEnd
	}
	return nil
}

// grow resizes the read buffer to at least n bytes, preserving content.
// Growth allocates — it happens only until the buffer fits the
// workload's largest request, then the arena retains the grown buffer.
func (ctx *RequestCtx) grow(n int) {
	if n < 2*len(ctx.rbuf) {
		n = 2 * len(ctx.rbuf)
	}
	nb := make([]byte, n)
	copy(nb, ctx.rbuf[:ctx.rlen])
	ctx.rbuf = nb
}

// parseHead parses the request line and header fields from head, which
// ends with the CRLF of the last header line (the blank line is already
// stripped). All slices stored into ctx.req alias head.
func (ctx *RequestCtx) parseHead(head []byte) error {
	req := &ctx.req
	req.reset()

	eol := bytes.Index(head, crlf)
	if eol < 0 {
		eol = len(head) // request without headers: "GET / HTTP/1.1"
	}
	line := head[:eol]
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return errBadRequest
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 <= 0 {
		return errBadRequest
	}
	sp2 += sp1 + 1
	req.method = line[:sp1]
	req.uri = line[sp1+1 : sp2]
	req.proto = line[sp2+1:]
	if len(req.uri) == 0 {
		return errBadRequest
	}
	switch {
	case bytes.Equal(req.proto, protoHTTP11):
		req.keepAlive = true
	case bytes.Equal(req.proto, protoHTTP10):
		req.keepAlive = false
	default:
		return errBadVersion
	}
	if q := bytes.IndexByte(req.uri, '?'); q >= 0 {
		req.path, req.query = req.uri[:q], req.uri[q+1:]
	} else {
		req.path = req.uri
	}

	rest := head
	if eol < len(head) {
		rest = head[eol+2:]
	} else {
		rest = nil
	}
	seenCL := false
	for len(rest) > 0 {
		eol := bytes.Index(rest, crlf)
		if eol < 0 {
			line, rest = rest, nil
		} else {
			line, rest = rest[:eol], rest[eol+2:]
		}
		if len(line) == 0 {
			continue
		}
		col := bytes.IndexByte(line, ':')
		if col <= 0 {
			return errBadRequest
		}
		key := http11.TrimOWS(line[:col])
		val := http11.TrimOWS(line[col+1:])
		req.headers = append(req.headers, headerField{key: key, val: val})
		switch {
		case http11.EqualFold(key, "content-length"):
			// Duplicate Content-Length headers are a request-smuggling
			// vector (RFC 9112 §6.3): two parsers disagreeing on which
			// copy wins disagree on where the next request starts.
			// Reject them outright, matching values included.
			if seenCL {
				return errBadRequest
			}
			seenCL = true
			n, ok := parseUint(val)
			if !ok {
				return errBadRequest
			}
			req.contentLength = n
		case http11.EqualFold(key, "connection"):
			if http11.EqualFold(val, "close") {
				req.keepAlive = false
			} else if http11.EqualFold(val, "keep-alive") {
				req.keepAlive = true
			}
		case http11.EqualFold(key, "transfer-encoding"):
			return errChunked
		}
	}
	return nil
}
