package wsaff

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"strings"
)

// Client is a minimal RFC 6455 client — handshake, masked sends, frame
// reads with automatic pong replies. It exists so the subsystem's own
// examples and tests can drive a wsaff server without duplicating the
// codec; it is intentionally not a full-featured client library (no
// fragmented sends, no extension negotiation, one goroutine's use at a
// time).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	key  [4]byte
	mbuf []byte // masked-send scratch, reused across Send calls
}

// Dial connects to addr and upgrades on path.
func Dial(addr, path string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, path)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the upgrade handshake on an already-open
// connection (benchmarks dial with explicit source ports to target flow
// groups). On error the caller still owns the connection.
func NewClient(conn net.Conn, path string) (*Client, error) {
	var nonce [16]byte
	rand.Read(nonce[:])
	wsKey := base64.StdEncoding.EncodeToString(nonce[:])
	req := "GET " + path + " HTTP/1.1\r\nHost: wsaff\r\nUpgrade: websocket\r\n" +
		"Connection: Upgrade\r\nSec-WebSocket-Key: " + wsKey + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	rand.Read(c.key[:])
	status, err := c.br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if !strings.Contains(status, "101") {
		return nil, fmt.Errorf("wsaff: upgrade refused: %s", strings.TrimSpace(status))
	}
	accept := ""
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(v)
		}
	}
	if want := string(appendAcceptKey(nil, []byte(wsKey))); accept != want {
		return nil, fmt.Errorf("wsaff: bad Sec-WebSocket-Accept %q", accept)
	}
	return c, nil
}

// NetConn exposes the underlying connection (for deadlines).
func (c *Client) NetConn() net.Conn { return c.conn }

// Close closes the transport without a closing handshake.
func (c *Client) Close() error { return c.conn.Close() }

// Send writes one complete masked message frame, reusing an internal
// buffer so a steady send loop does not allocate.
func (c *Client) Send(op Op, payload []byte) error {
	c.mbuf = appendMaskedFrame(c.mbuf[:0], true, op, c.key, payload)
	_, err := c.conn.Write(c.mbuf)
	return err
}

// ReadMessage reads the next data or close message, reassembling
// fragments, replying to pings automatically and skipping pongs. It
// returns OpClose (payload = close code + reason, possibly empty) when
// the server initiated a close; the payload buffer is the caller's to
// keep.
func (c *Client) ReadMessage() (Op, []byte, error) {
	var assembled []byte
	var msgOp Op
	for {
		h, payload, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case h.op == OpPing:
			if err := c.Send(OpPong, payload); err != nil {
				return 0, nil, err
			}
		case h.op == OpPong:
			// keep-alive noise
		case h.op == OpClose:
			return OpClose, payload, nil
		case h.op == OpContinuation:
			if msgOp == 0 {
				return 0, nil, fmt.Errorf("wsaff: server sent continuation without a message")
			}
			assembled = append(assembled, payload...)
			if h.fin {
				return msgOp, assembled, nil
			}
		default:
			if h.fin {
				return h.op, payload, nil
			}
			msgOp = h.op
			assembled = append(assembled, payload...)
		}
	}
}

// readFrame reads one server frame (servers never mask).
func (c *Client) readFrame() (header, []byte, error) {
	buf := make([]byte, 2, maxHeaderBytes)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return header{}, nil, err
	}
	for {
		h, n, err := decodeHeader(buf)
		if err != nil {
			return header{}, nil, err
		}
		if n > 0 {
			payload := make([]byte, h.length)
			if _, err := io.ReadFull(c.br, payload); err != nil {
				return header{}, nil, err
			}
			return h, payload, nil
		}
		buf = append(buf, 0)
		if _, err := io.ReadFull(c.br, buf[len(buf)-1:]); err != nil {
			return header{}, nil, err
		}
	}
}

// Echo round-trips one message and verifies the echo, for closed-loop
// load generators: it sends payload and reads messages until one
// matches (skipping interleaved broadcasts), returning how many frames
// it consumed.
func (c *Client) Echo(op Op, payload []byte) (skipped int, err error) {
	if err := c.Send(op, payload); err != nil {
		return 0, err
	}
	for {
		gotOp, got, err := c.ReadMessage()
		if err != nil {
			return skipped, err
		}
		if gotOp == OpClose {
			return skipped, io.EOF
		}
		if gotOp == op && bytes.Equal(got, payload) {
			return skipped, nil
		}
		skipped++
	}
}
