package wsaff

import (
	"sync"
	"time"
)

// wheelSlots is the timer wheel's resolution: each connection sits in
// one slot and is examined once per PingInterval, wheelSlots ticks
// spreading the examinations so a million idle sockets never ping in
// one burst.
const wheelSlots = 8

// shard is one worker's slice of the connection population: every open
// connection whose flow group the worker owns, held in exactly one slot
// of the timer wheel that paces their keep-alive pings, and the
// worker-local broadcast subscriber set. Each shard has its own mutex —
// the whole point is that publishing to a million subscribers takes no
// process-wide lock, only per-worker ones, and the hot registration
// operations (a connection's own worker adding, moving or removing it)
// contend only with that worker's shard.
type shard struct {
	mu    sync.Mutex
	subs  map[*Conn]struct{}             // broadcast subscribers
	wheel [wheelSlots]map[*Conn]struct{} // every open conn, in its Conn.slot
	next  int                            // wheel slot the next added conn lands in (spread)

	// pub queues pending broadcast frames (pre-encoded, read-only). A
	// shard that falls broadcastBuffer behind drops broadcasts — and
	// counts them — rather than stalling the publisher on a slow worker's
	// sockets.
	pub chan []byte

	// scratch is the delivery snapshot buffer: deliveries write to
	// sockets outside the shard lock (a slow socket must not block
	// registrations), and reusing the slice keeps the fan-out loop
	// allocation-free in the steady state. Only the shard loop touches
	// it.
	scratch []*Conn
}

const broadcastBuffer = 128

func (s *shard) init() {
	s.subs = make(map[*Conn]struct{})
	for i := range s.wheel {
		s.wheel[i] = make(map[*Conn]struct{})
	}
	s.pub = make(chan []byte, broadcastBuffer)
}

func (s *shard) add(c *Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.slot = s.next
	s.wheel[s.next][c] = struct{}{}
	s.next = (s.next + 1) % wheelSlots
}

func (s *shard) remove(c *Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.wheel[c.slot], c)
}

func (s *shard) subscribe(c *Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[c] = struct{}{}
}

func (s *shard) unsubscribe(c *Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, c)
}

// snapshot copies the shard's full connection set (shutdown teardown).
func (s *shard) snapshot() []*Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Conn
	for i := range s.wheel {
		for c := range s.wheel[i] {
			out = append(out, c)
		}
	}
	return out
}

// snapshotInto refills dst from the given set under the shard lock.
func (s *shard) snapshotInto(dst []*Conn, set map[*Conn]struct{}) []*Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = dst[:0]
	for c := range set {
		dst = append(dst, c)
	}
	return dst
}

// Broadcast sends one message frame to every subscriber. The frame is
// encoded once and the per-worker shard loops deliver it to their local
// subscriber sets concurrently; a shard whose queue is full drops the
// broadcast for its subscribers (and counts it) rather than stalling
// the publisher. Safe from any goroutine.
func (ws *WS) Broadcast(op Op, payload []byte) {
	ws.broadcasts.Add(1)
	frame := appendFrame(make([]byte, 0, maxHeaderBytes+len(payload)), op, payload)
	for i := range ws.shards {
		select {
		case ws.shards[i].pub <- frame:
		default:
			ws.bcastDrops.Add(1)
		}
	}
}

// shardLoop is one worker shard's service goroutine: it delivers queued
// broadcasts to the shard's subscribers and drives the ping wheel. One
// goroutine per worker, touching only that worker's registration state
// — the fan-out equivalent of the serve layer's one-worker-one-queue
// discipline.
func (ws *WS) shardLoop(s *shard) {
	tickEvery := ws.cfg.PingInterval / wheelSlots
	var ticker *time.Ticker
	var tick <-chan time.Time
	if ws.cfg.PingInterval > 0 {
		ticker = time.NewTicker(tickEvery)
		tick = ticker.C
		defer ticker.Stop()
	}
	cursor := 0
	for {
		select {
		case frame := <-s.pub:
			s.scratch = s.snapshotInto(s.scratch, s.subs)
			for _, c := range s.scratch {
				c.writeMu.Lock()
				err := c.writeRaw(frame)
				c.writeMu.Unlock()
				if err != nil {
					c.finish(CloseAbnormal)
				} else {
					ws.bcastSent.Add(1)
				}
			}
		case <-tick:
			s.scratch = s.snapshotInto(s.scratch, s.wheel[cursor])
			cursor = (cursor + 1) % wheelSlots
			ws.pingSlot(s.scratch)
		case <-ws.stopCh:
			return
		}
	}
}

// pingFrame is the static keep-alive ping (no payload).
var pingFrame = []byte{0x80 | byte(OpPing), 0}

// pingSlot examines one wheel slot's connections: sockets quiet longer
// than PingInterval get a ping (whose pong will ride the park→route→
// pass path, keeping even keep-alive traffic on the owning worker).
// Sockets silent past IdleTimeout are not its business: the park
// deadline reaps them, and OnParkClose reports the 1006.
func (ws *WS) pingSlot(conns []*Conn) {
	now := time.Now()
	for _, c := range conns {
		if now.Sub(time.Unix(0, c.lastActive.Load())) < ws.cfg.PingInterval {
			continue
		}
		c.writeMu.Lock()
		err := c.writeRaw(pingFrame)
		c.writeMu.Unlock()
		if err != nil {
			c.finish(CloseAbnormal)
			continue
		}
		ws.pingsSent.Add(1)
	}
}
