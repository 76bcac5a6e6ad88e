package wsaff

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is one WebSocket connection. Reads only ever happen inside a
// worker pass (the serve layer runs one pass at a time per connection),
// so read state needs no lock. Writes can come from three places — the
// serving pass (replies), a shard loop (broadcasts and pings) and
// application goroutines (Send) — so every transport write happens
// under writeMu, with the pass's replies batched in the worker's codec
// buffer and flushed in one locked write per pass.
type Conn struct {
	ws     *WS
	tc     transport
	remote net.Addr

	writeMu   sync.Mutex
	w         *wsWorker // non-nil while a pass on this conn is running
	wErr      error     // sticky transport write error
	closeSent bool

	// regMu serializes registration transitions — join, shard move,
	// subscribe/unsubscribe, teardown — against each other, so a finish
	// racing a concurrent move or subscribe can never re-register a
	// dead connection (a zombie the wheel would ping forever). It nests
	// strictly outside the shard mutexes and is never taken on the
	// frame path.
	regMu      sync.Mutex
	dead       bool         // finish ran; no further registration
	shard      int32        // current shard index; moves with §3.3.2 migration
	slot       int          // wheel slot in that shard (under regMu; set by shard.add)
	subscribed atomic.Bool  // registered in the shard's broadcast set
	lastActive atomic.Int64 // unix nanos of last inbound traffic
	opened     bool         // OnOpen delivered (pass-side state)
	finOnce    sync.Once    // OnClose delivered

	// Data is free for the application (a chat nickname, a session).
	// Guard it yourself if you touch it outside OnOpen/OnMessage.
	Data any
}

// transport is the connection httpaff hands an upgrade
// (RequestCtx.NetConn): the same value for the connection's whole life,
// whose reads replay parked and post-upgrade residual input, whose
// Close is legal from any goroutine — it unlinks a parked connection
// from its event loop — and which carries its worker's coarse clock.
type transport interface {
	net.Conn
	InputPending() bool
	CoarseNow() time.Time
}

// RemoteAddr reports the client address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// Worker reports the shard (worker) the connection currently belongs
// to; after a flow-group migration the next pass moves it.
func (c *Conn) Worker() int { return int(atomic.LoadInt32(&c.shard)) }

// Subscribe registers the connection in its worker shard's broadcast
// set; Broadcast will deliver to it until Unsubscribe or close. A
// no-op on a connection that has already finished.
func (c *Conn) Subscribe() {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if !c.dead && c.subscribed.CompareAndSwap(false, true) {
		c.ws.shards[c.Worker()].subscribe(c)
		c.ws.subscribers.Inc()
	}
}

// Unsubscribe removes the connection from the broadcast set.
func (c *Conn) Unsubscribe() {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if c.subscribed.CompareAndSwap(true, false) {
		c.ws.shards[c.Worker()].unsubscribe(c)
		c.ws.subscribers.Dec()
	}
}

// Send writes one complete message frame. Called from inside a handler
// callback it batches into the worker's codec buffer and goes out in
// the pass's single flush; called from any other goroutine it writes
// through directly. It returns the connection's sticky write error.
func (c *Conn) Send(op Op, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.wErr != nil {
		return c.wErr
	}
	if c.w != nil {
		c.w.wbuf = appendFrame(c.w.wbuf, op, payload)
		c.ws.framesOut.Add(1)
		return nil
	}
	return c.directFrame(op, payload)
}

// directFrame writes header + payload straight to the transport.
// writeMu must be held. The header goes through a stack buffer, so the
// out-of-pass path allocates nothing either — it just pays two write
// syscalls instead of riding the pass's batch.
func (c *Conn) directFrame(op Op, payload []byte) error {
	var hdr [maxHeaderBytes]byte
	h := appendHeader(hdr[:0], true, op, len(payload))
	if _, err := c.tc.Write(h); err != nil {
		c.wErr = err
		return err
	}
	if len(payload) > 0 {
		if _, err := c.tc.Write(payload); err != nil {
			c.wErr = err
			return err
		}
	}
	c.ws.framesOut.Add(1)
	return nil
}

// writeRaw writes pre-encoded frame bytes (a shard-shared broadcast
// frame, a static ping). writeMu must be held.
func (c *Conn) writeRaw(frame []byte) error {
	if c.wErr != nil {
		return c.wErr
	}
	if c.w != nil {
		c.w.wbuf = append(c.w.wbuf, frame...)
	} else if _, err := c.tc.Write(frame); err != nil {
		c.wErr = err
		return err
	}
	c.ws.framesOut.Add(1)
	return nil
}

// Close initiates the closing handshake: it sends a close frame and
// closes the transport — taking a parked socket off its event loop
// first. Safe from any goroutine, idempotent.
func (c *Conn) Close(code uint16, reason string) error {
	c.sendClose(code, reason)
	c.finish(code)
	return nil
}

// sendClose writes the close frame once, directly (never batched — a
// close must not sit in a buffer behind a park).
func (c *Conn) sendClose(code uint16, reason string) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closeSent {
		return
	}
	c.closeSent = true
	if c.wErr != nil {
		return
	}
	var buf [2 + maxHeaderBytes + 125]byte
	frame := appendClose(buf[:0], code, reason)
	if _, err := c.tc.Write(frame); err != nil {
		c.wErr = err
		return
	}
	c.ws.framesOut.Add(1)
}

// finish tears the connection down exactly once: unregisters it from
// its shard, closes the transport (detaching any event-loop park state
// with it) and delivers OnClose.
func (c *Conn) finish(code uint16) {
	c.finOnce.Do(func() {
		c.regMu.Lock()
		c.dead = true
		if c.subscribed.CompareAndSwap(true, false) {
			c.ws.shards[c.Worker()].unsubscribe(c)
			c.ws.subscribers.Dec()
		}
		c.ws.shards[c.Worker()].remove(c)
		opened := c.opened
		c.regMu.Unlock()
		c.tc.Close()
		if !opened {
			return // never joined (Upgrade flush failed): nothing to report
		}
		c.ws.open.Dec()
		c.ws.closes.Add(1)
		if c.ws.cfg.OnClose != nil {
			c.ws.cfg.OnClose(c, code)
		}
	})
}

// passFlushEvery bounds how many outbound bytes batch before a
// mid-pass flush.
const passFlushEvery = 32 << 10

// endPass flushes the pass's batched frames and detaches the codec.
func (c *Conn) endPass() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	w := c.w
	c.w = nil
	if w == nil || len(w.wbuf) == 0 {
		return c.wErr
	}
	buf := w.wbuf
	w.wbuf = w.wbuf[:0]
	if c.wErr != nil {
		return c.wErr
	}
	if _, err := c.tc.Write(buf); err != nil {
		c.wErr = err
	}
	return c.wErr
}

// flushMidPass flushes when the pass's batch has grown past
// passFlushEvery, so deep frame pipelines stream instead of ballooning
// the worker buffer. The batch length is only readable under writeMu —
// a shard loop may be appending broadcast frames to it concurrently.
func (c *Conn) flushMidPass() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.w == nil || len(c.w.wbuf) < passFlushEvery || c.wErr != nil {
		return c.wErr
	}
	buf := c.w.wbuf
	c.w.wbuf = c.w.wbuf[:0]
	if _, err := c.tc.Write(buf); err != nil {
		c.wErr = err
	}
	return c.wErr
}

// parkDeadline arms the park read deadline implementing IdleTimeout;
// a zero deadline (IdleTimeout disabled) clears it. The transport
// records it for the owning worker's event-loop sweep, which reaps a
// dead peer without a goroutine waiting on it.
func (c *Conn) parkDeadline() {
	var dl time.Time
	if t := c.ws.cfg.IdleTimeout; t > 0 {
		dl = c.tc.CoarseNow().Add(t)
	}
	c.tc.SetReadDeadline(dl)
}

// pass serves one takeover pass: read frames until the inbound stream
// reaches a clean frame/message boundary with nothing buffered, then
// park. It runs inline on the worker goroutine — that inlining is what
// makes the lock-free worker codec sound.
func (ws *WS) pass(worker int, c *Conn) (park bool) {
	if worker < 0 || worker >= len(ws.workers) {
		c.finish(CloseAbnormal)
		return false
	}
	first := !c.opened
	if first {
		// First pass: the 101 has flushed and the takeover is
		// committed, so the connection now joins the subsystem — shard
		// membership and the open gauge. (Registering at Upgrade time
		// would leak the conn if the 101 flush failed: the takeover is
		// never installed and no pass ever runs.)
		c.regMu.Lock()
		c.opened = true
		atomic.StoreInt32(&c.shard, int32(worker))
		ws.shards[worker].add(c)
		c.regMu.Unlock()
		ws.open.Inc()
	} else if cur := int(atomic.LoadInt32(&c.shard)); cur != worker {
		// §3.3.2 migration moved this connection's flow group since the
		// last pass: move its shard registration too, so broadcasts and
		// pings for it are issued from the worker that now owns it.
		ws.moveShard(c, cur, worker)
	}
	w := &ws.workers[worker]
	w.acquire()
	c.writeMu.Lock()
	c.w = w // sends from handler callbacks batch into w.wbuf from here on
	c.writeMu.Unlock()
	c.lastActive.Store(c.tc.CoarseNow().UnixNano())

	if first && ws.cfg.OnOpen != nil {
		ws.cfg.OnOpen(c)
	}

	park, code, reason := ws.readFrames(c, w)
	err := c.endPass()
	w.release(ws.cfg.MaxMessageBytes)
	if err != nil && park {
		park, code = false, CloseAbnormal
	}
	if !park {
		if code != CloseAbnormal {
			c.sendClose(code, reason)
		}
		c.finish(code)
		return false
	}
	c.parkDeadline()
	return true
}

// readFrames is the pass's frame loop. It returns park=true at a clean
// boundary (park the connection), or park=false with the close code to
// finish with — CloseAbnormal meaning the transport already failed and
// no close frame can be sent.
func (ws *WS) readFrames(c *Conn, w *wsWorker) (park bool, code uint16, reason string) {
	nc := c.tc
	var (
		rlen, pos  int
		assembling bool
		msgOp      Op
		armed      bool
	)
	w.abuf = w.abuf[:0]
	maxMsg := ws.cfg.MaxMessageBytes
	// A requeued pass always has the park wake-up byte (and an upgrade
	// pass may have residual post-upgrade bytes) queued for replay; a
	// fresh upgrade with a silent client has nothing, and must park
	// rather than block the worker on a read. The replayed input makes
	// this first read return without touching the transport.
	if !nc.InputPending() {
		return true, 0, ""
	}
	n, err := nc.Read(w.rbuf)
	if err != nil && n == 0 {
		return false, CloseAbnormal, ""
	}
	rlen = n
	for {
		// Parse every complete frame currently buffered.
		for {
			h, hn, err := decodeHeader(w.rbuf[pos:rlen])
			if err != nil {
				return false, CloseProtocolError, err.Error()
			}
			if hn == 0 {
				break // incomplete header
			}
			if !h.masked {
				return false, CloseProtocolError, errUnmaskedClient.Error()
			}
			if h.length > int64(maxMsg) || (assembling && int64(len(w.abuf))+h.length > int64(maxMsg)) {
				return false, CloseTooBig, "message exceeds MaxMessageBytes"
			}
			total := pos + hn + int(h.length)
			if total > rlen {
				// Complete header, incomplete payload: grow to fit the
				// whole frame, then fall through to the read below.
				if total > len(w.rbuf) {
					nb := make([]byte, total+maxHeaderBytes)
					copy(nb, w.rbuf[:rlen])
					w.rbuf = nb
				}
				break
			}
			payload := w.rbuf[pos+hn : total]
			unmask(h.key, 0, payload)
			pos = total
			ws.framesIn.Add(1)
			c.lastActive.Store(nc.CoarseNow().UnixNano())

			switch {
			case h.op == OpPing:
				c.Send(OpPong, payload)
			case h.op == OpPong:
				ws.pongsRecvd.Add(1)
			case h.op == OpClose:
				code := CloseNoStatus
				if len(payload) >= 2 {
					code = binary.BigEndian.Uint16(payload)
				}
				return false, code, ""
			case h.op == OpContinuation:
				if !assembling {
					return false, CloseProtocolError, "continuation without a message in flight"
				}
				w.abuf = append(w.abuf, payload...)
				if h.fin {
					assembling = false
					ws.deliver(c, msgOp, w.abuf)
					w.abuf = w.abuf[:0]
				}
			default: // OpText, OpBinary
				if assembling {
					return false, CloseProtocolError, "new data frame inside a fragmented message"
				}
				if h.fin {
					ws.deliver(c, h.op, payload)
				} else {
					msgOp = h.op
					assembling = true
					w.abuf = append(w.abuf, payload...)
				}
			}
			if c.flushMidPass() != nil {
				return false, CloseAbnormal, ""
			}
		}
		// Buffer parsed to a boundary?
		if pos == rlen && !assembling {
			return true, 0, ""
		}
		// Mid-frame or mid-message: block for more bytes. Compact first
		// so a long-lived connection's buffer doesn't creep, and arm the
		// in-pass read deadline once — a peer that stalls mid-frame is
		// occupying a worker, exactly like a stalled HTTP request.
		if pos > 0 {
			rlen = copy(w.rbuf, w.rbuf[pos:rlen])
			pos = 0
		}
		if rlen == len(w.rbuf) {
			nb := make([]byte, 2*len(w.rbuf))
			copy(nb, w.rbuf[:rlen])
			w.rbuf = nb
		}
		if !armed {
			armed = true
			var dl time.Time
			if t := ws.cfg.IdleTimeout; t > 0 {
				dl = nc.CoarseNow().Add(t)
			}
			nc.SetReadDeadline(dl)
		}
		n, err := nc.Read(w.rbuf[rlen:])
		rlen += n
		if err != nil && n == 0 {
			return false, CloseAbnormal, ""
		}
	}
}

// deliver hands one complete message to the application.
func (ws *WS) deliver(c *Conn, op Op, payload []byte) {
	ws.messagesIn.Add(1)
	ws.cfg.OnMessage(c, op, payload)
}

// moveShard migrates a connection's shard registration after its flow
// group moved. Under regMu so a concurrent finish (a shard loop hitting
// a write error on this conn) cannot interleave with the remove/add
// pair and leave a finished conn re-registered; the shard locks are
// still taken one at a time inside it.
func (ws *WS) moveShard(c *Conn, from, to int) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if c.dead {
		return
	}
	sub := c.subscribed.Load()
	ws.shards[from].remove(c)
	if sub {
		ws.shards[from].unsubscribe(c)
	}
	atomic.StoreInt32(&c.shard, int32(to))
	ws.shards[to].add(c)
	if sub {
		ws.shards[to].subscribe(c)
	}
}
