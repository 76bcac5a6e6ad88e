package httpaff

import (
	"bytes"
	"errors"
	"time"

	"affinityaccept/internal/evloop"
	"affinityaccept/internal/http11"
	"affinityaccept/serve"
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
	protoHTTP11 = []byte("HTTP/1.1")
	protoHTTP10 = []byte("HTTP/1.0")
)

// maxContentLength caps a request's Content-Length before MaxBodyBytes
// is consulted: a larger value is malformed (400), not merely too large.
const maxContentLength = 1 << 30

// deadline names the read deadline a request is read under.
type deadline uint8

const (
	dlNone deadline = iota // between requests
	dlHead                 // the head's: HeaderTimeout
	dlBody                 // the body's: ReadTimeout
)

// armDeadline arms the request's read deadline at its first read, and
// the body's at the body's first read when a separate HeaderTimeout
// bounds the head. Each is absolute from that read across parks, so
// trickling bytes cannot extend it; the park sweep enforces it. Without
// a ReadTimeout the idle timeout applies: a request that never
// completes is an idle connection.
func (ctx *RequestCtx) armDeadline(d deadline) {
	c, cfg := ctx.conn, &ctx.srv.cfg
	if c.dl >= d || (c.dl != dlNone && cfg.HeaderTimeout == 0) {
		return
	}
	c.dl = d
	timeout := cfg.ReadTimeout
	if d == dlHead && cfg.HeaderTimeout > 0 {
		timeout = cfg.HeaderTimeout
	}
	if timeout == 0 {
		timeout = cfg.IdleTimeout
	}
	var dl time.Time
	if timeout > 0 {
		// The worker's coarse clock replaces a time.Now per request. It
		// trails time.Now by up to one poll interval, which is added so
		// the deadline fires no earlier than timeout.
		dl = ctx.srv.srv.CoarseNow(ctx.worker).Add(timeout + evloop.PollInterval)
	}
	c.SetReadDeadline(dl)
}

// readRequest reads and parses the next request, which starts at
// ctx.rpos, into ctx.req in place: one forward walk over the head's
// lines finds its end and fills ctx.req, resuming after a short read at
// the first incomplete line. The bytes move only when the request needs
// room for a read or its body: to the buffer's front, where the walk
// starts over so no parsed slice aliases moved bytes, or, already at
// the front, into a larger buffer (grow). No read waits: on an empty
// socket it returns serve.ErrWouldBlock, and the pass parks the bytes
// with the connection (hold). Otherwise it returns a *protoError for
// answerable protocol failures, errClientGone for a clean EOF between
// requests, or the transport error.
func (ctx *RequestCtx) readRequest() error {
	maxHead := ctx.srv.cfg.MaxHeaderBytes
	next, done := ctx.rpos, false
	for {
		// Only lines ending within MaxHeaderBytes of the request's start
		// count, so the verdict does not depend on how reads split it.
		var err error
		if next, done, err = ctx.walkHead(next, min(ctx.rlen, ctx.rpos+maxHead)); err != nil {
			return err
		}
		if done {
			cl := int(ctx.req.head.ContentLength)
			if cl > ctx.srv.cfg.MaxBodyBytes {
				return errBodyTooLarge
			}
			if ctx.rpos == 0 || next+cl <= len(ctx.rbuf) {
				break
			}
		} else if ctx.rlen-ctx.rpos >= maxHead {
			return errHeaderTooLarge
		}
		if ctx.rpos > 0 {
			ctx.rlen = copy(ctx.rbuf, ctx.rbuf[ctx.rpos:ctx.rlen])
			ctx.rpos, next = 0, 0
			continue
		}
		if ctx.rlen == len(ctx.rbuf) {
			ctx.grow(2 * len(ctx.rbuf))
		}
		ctx.armDeadline(dlHead)
		n, err := ctx.conn.TryRead(ctx.rbuf[ctx.rlen:])
		ctx.rlen += n
		if err != nil && n == 0 {
			if ctx.rlen == 0 && err != serve.ErrWouldBlock {
				return errClientGone
			}
			return err // would block, mid-request EOF, or transport error
		}
	}
	// Body: Content-Length bytes immediately following the headers.
	// Reads take the buffer's free space, and the buffer keeps room past
	// the body, so the read that completes a body sent alone comes back
	// short and the next park need not probe for more input; bytes that
	// arrive past the body are the next pipelined request.
	if cl := int(ctx.req.head.ContentLength); cl > 0 {
		total := next + cl
		if total >= len(ctx.rbuf) {
			ctx.grow(total + 1)
		}
		for ctx.rlen < total {
			// The body gets its own budget under ReadTimeout, so a tight
			// header deadline does not strangle a legitimate upload.
			ctx.armDeadline(dlBody)
			n, err := ctx.conn.TryRead(ctx.rbuf[ctx.rlen:])
			ctx.rlen += n
			if err != nil && n == 0 {
				return err
			}
		}
		ctx.req.body = ctx.rbuf[next:total]
		next = total
	}
	ctx.conn.dl = dlNone
	ctx.start, ctx.rpos = ctx.rpos, next
	return nil
}

// grow resizes the read buffer to at least n bytes, preserving content
// and leaving the old buffer, which parsed slices may alias, intact.
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

// walkHead parses the complete lines in rbuf[from:end] into ctx.req
// through the shared head grammar (slices alias rbuf; the head starts
// at ctx.rpos) and returns the offset it stopped at: the first
// incomplete line, or, when done, the end of the blank line closing the
// head. The request line is parsed once the head is done.
func (ctx *RequestCtx) walkHead(from, end int) (next int, done bool, err error) {
	if from == ctx.rpos {
		ctx.req.reset()
	}
	next, done, err = ctx.req.head.Walk(ctx.rbuf[:end], ctx.rpos, from, maxContentLength)
	if err != nil {
		if errors.Is(err, http11.ErrTransferEncoding) {
			return next, false, errChunked
		}
		return next, false, errBadRequest
	}
	if !done {
		return next, false, nil
	}
	if err := ctx.req.parseRequestLine(ctx.req.head.Start); err != nil {
		return next, false, err
	}
	ctx.req.keepAlive = ctx.req.head.KeepAlive(ctx.req.keepAlive)
	return next, true, nil
}

// parseRequestLine parses "METHOD target VERSION" and sets keepAlive to
// the version's default. A method that is not a token, or a target with
// a control byte, is a 400: proxyaff forwards the line as it stands.
func (req *request) parseRequestLine(line []byte) error {
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return errBadRequest
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 <= 0 {
		return errBadRequest // no version, or an empty target
	}
	sp2 += sp1 + 1
	req.method = line[:sp1]
	req.uri = line[sp1+1 : sp2]
	req.proto = line[sp2+1:]
	if !http11.ValidRequestLine(req.method, req.uri) {
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
	return nil
}
