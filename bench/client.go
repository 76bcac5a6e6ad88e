package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

var loopback = net.IPv4(127, 0, 0, 1)

// Explicit source ports are taken from below the kernel's ephemeral
// range, so a pinned client can collide neither with a listener bound
// to ":0" nor with a churn client's kernel-chosen port.
const (
	pinPortLo = 10000
	pinPortHi = 30000
)

// portPicker walks candidate source ports from a seeded start. One
// picker serves a whole process, so successive set-ups never retry a
// port; the stride puts consecutive seeds' walks far apart, so two runs
// with neighbouring seeds do not compete for the same ports either. The
// lock is for two clients that reconnect at once.
type portPicker struct {
	mu   sync.Mutex
	next int
}

const seedStride = 7919

func newPortPicker(seed int64) *portPicker {
	span := int64(pinPortHi - pinPortLo)
	return &portPicker{next: pinPortLo + int(((seed%span)*seedStride%span+span)%span)}
}

// pick returns the next candidate port whose flow group owner reports
// as worker want.
func (p *portPicker) pick(owner func(uint16) int, want int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for tries := 0; tries < pinPortHi-pinPortLo; tries++ {
		port := p.next
		if p.next++; p.next >= pinPortHi {
			p.next = pinPortLo
		}
		if owner(uint16(port)) == want {
			return port, nil
		}
	}
	return 0, fmt.Errorf("no source port in [%d,%d) is owned by worker %d", pinPortLo, pinPortHi, want)
}

// dialPinned connects to addr from a source port the server routes to
// worker want: a keep-alive connection's flow group, hence the worker
// that serves every one of its requests, is a function of its source
// port, and leaving the port to the kernel makes the two clients share
// a worker or not by luck (see README, "unpinned bimodality"). A port
// that is taken is skipped.
func (p *portPicker) dialPinned(addr string, owner func(uint16) int, want int) (net.Conn, error) {
	for tries := 0; tries < 256; tries++ {
		port, err := p.pick(owner, want)
		if err != nil {
			return nil, err
		}
		d := net.Dialer{LocalAddr: &net.TCPAddr{IP: loopback, Port: port}, Timeout: 5 * time.Second}
		c, err := d.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) && !errors.Is(err, syscall.EADDRNOTAVAIL) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("256 candidate source ports for worker %d were all in use", want)
}

// benchIDHeader carries a traced request's identifier to the handler.
// The value is 16 hex digits, patched in place before each write.
const benchIDHeader = "X-Bench-Id"

// request is one serialized HTTP request plus the body its response
// must carry.
type request struct {
	wire  []byte
	idOff int // offset of the 16 id digits in wire, -1 without tracing
	want  []byte
}

func buildRequest(method, path string, body, want []byte, closing, traced bool) *request {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if closing {
		b.WriteString("Connection: close\r\n")
	}
	if body != nil {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	idOff := -1
	if traced {
		b.WriteString(benchIDHeader + ": ")
		idOff = b.Len()
		b.WriteString("0000000000000000\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	return &request{wire: b.Bytes(), idOff: idOff, want: want}
}

// repeat returns the request n times over, for one pipelined write.
func (r *request) repeat(n int) []byte { return bytes.Repeat(r.wire, n) }

const hexDigits = "0123456789abcdef"

func putID(dst []byte, id uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[id&15]
		id >>= 4
	}
}

func parseID(b []byte) (uint64, bool) {
	if len(b) != 16 {
		return 0, false
	}
	var id uint64
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}

var (
	crlfCRLF   = []byte("\r\n\r\n")
	status200  = []byte("HTTP/1.1 200 OK\r\n")
	clenHeader = []byte("\r\nContent-Length: ")
)

var (
	errStatus    = errors.New("response status is not 200")
	errNoLength  = errors.New("response has no Content-Length")
	errLength    = errors.New("response Content-Length differs from the expected body's")
	errBody      = errors.New("response body differs from the expected body")
	errTruncated = errors.New("response truncated")
	errSurplus   = errors.New("bytes left over after the last response")
)

// parseHead checks the status line of a response head (ending in the
// blank line) and returns its Content-Length.
func parseHead(head []byte) (int, error) {
	if !bytes.HasPrefix(head, status200) {
		return 0, errStatus
	}
	i := bytes.Index(head, clenHeader)
	if i < 0 {
		return 0, errNoLength
	}
	v := head[i+len(clenHeader):]
	n, err := strconv.Atoi(string(v[:bytes.IndexByte(v, '\r')]))
	if err != nil || n < 0 {
		return 0, errNoLength
	}
	return n, nil
}

// respReader reads and verifies HTTP responses from one connection
// through a fixed buffer.
type respReader struct {
	rd   io.Reader
	buf  []byte
	r, w int
	// firstByte is when the first read of the current operation
	// returned (tracer clock); reset to 0 by the caller.
	firstByte int64
}

// The largest response is /large's 64 KiB body plus its head.
const respBufSize = 128 << 10

func newRespReader(rd io.Reader) *respReader {
	return &respReader{rd: rd, buf: make([]byte, respBufSize)}
}

func (c *respReader) fill() error {
	if c.w == len(c.buf) {
		if c.r == 0 {
			return errors.New("response larger than the read buffer")
		}
		c.w = copy(c.buf, c.buf[c.r:c.w])
		c.r = 0
	}
	n, err := c.rd.Read(c.buf[c.w:])
	if n > 0 {
		if c.firstByte == 0 {
			c.firstByte = nanos()
		}
		c.w += n
		return nil
	}
	if err == nil || err == io.EOF {
		return errTruncated
	}
	return err
}

// readResponse consumes one response and verifies it: status 200, a
// Content-Length equal to len(want), and exactly the bytes of want.
func (c *respReader) readResponse(want []byte) error {
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	// Offsets are relative to c.r, which fill may move.
	scan, bodyAt := 0, 0
	for {
		if i := bytes.Index(c.buf[c.r+scan:c.w], crlfCRLF); i >= 0 {
			bodyAt = scan + i + len(crlfCRLF)
			break
		}
		if scan = c.w - c.r - (len(crlfCRLF) - 1); scan < 0 {
			scan = 0
		}
		if err := c.fill(); err != nil {
			return err
		}
	}
	n, err := parseHead(c.buf[c.r : c.r+bodyAt])
	if err != nil {
		return err
	}
	if n != len(want) {
		return errLength
	}
	for c.w-c.r < bodyAt+n {
		if err := c.fill(); err != nil {
			return err
		}
	}
	if !bytes.Equal(c.buf[c.r+bodyAt:c.r+bodyAt+n], want) {
		return errBody
	}
	c.r += bodyAt + n
	return nil
}

// drained reports an error if bytes remain buffered: after the last
// response of an operation the connection must be silent.
func (c *respReader) drained() error {
	if c.r != c.w {
		return errSurplus
	}
	return nil
}
