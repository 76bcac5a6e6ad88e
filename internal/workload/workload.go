// Package workload is the httperf-style load generator of §6.2: many
// client connections issuing HTTP requests against the simulated server
// over a SpecWeb-inspired static file mix, with client think time, a
// group pattern (one file, think, two files, think, three files, close),
// a 10-second give-up timeout, and per-connection service-time
// recording.
package workload

import (
	"math/rand"

	"affinityaccept/internal/core"
	"affinityaccept/internal/sim"
	"affinityaccept/internal/tcp"
)

// Pattern describes request grouping on one connection: Groups[i]
// requests are issued back to back, separated by Think between groups.
type Pattern struct {
	Groups []int
	Think  sim.Cycles
}

// TotalRequests sums the group sizes.
func (p Pattern) TotalRequests() int {
	n := 0
	for _, g := range p.Groups {
		n += g
	}
	return n
}

// PaperPattern is the default workload: 6 requests as 1/2/3 with 100 ms
// thinks.
func PaperPattern(e *sim.Engine) Pattern {
	return Pattern{Groups: []int{1, 2, 3}, Think: e.Millis(100)}
}

// GroupsFor splits n requests into groups of at most three, mirroring
// the paper's 1/2/3 shape for its default of six.
func GroupsFor(n int) []int {
	if n <= 0 {
		n = 1
	}
	switch n {
	case 6:
		return []int{1, 2, 3}
	}
	var groups []int
	sizes := []int{1, 2, 3}
	i := 0
	for n > 0 {
		g := sizes[i%len(sizes)]
		if g > n {
			g = n
		}
		groups = append(groups, g)
		n -= g
		i++
	}
	return groups
}

// Config parameterizes the generator.
type Config struct {
	Stack   *tcp.Stack
	Pattern Pattern

	// Connections is the closed-loop concurrency: each finished
	// connection is immediately replaced.
	Connections int
	// OpenRate, when nonzero, switches to open-loop arrivals at this
	// many connections per second (used for the §6.5 latency runs,
	// which fix offered load rather than saturating).
	OpenRate float64

	// Timeout is the client's give-up time (default 10 s).
	Timeout sim.Cycles
	// DelayedAck is the standalone-ack delay after a think group ends.
	DelayedAck sim.Cycles

	// Files is the catalogue size (default 30,000).
	Files int
	// MeanFileBytes scales the file mix (default ~700 bytes, range
	// 30–5670 as in the paper).
	MeanFileBytes int

	// Seed drives the generator's private RNG.
	Seed int64
}

// Gen drives the workload.
type Gen struct {
	cfg   Config
	s     *tcp.Stack
	rng   *rand.Rand
	files []int

	nextPort uint32
	nextIP   uint32

	measureFrom sim.Time

	// Completed counts connections that finished all requests.
	Completed uint64
	// TimedOut counts connections abandoned at the timeout.
	TimedOut uint64
	// Retransmits counts client-side retransmissions (dropped packets).
	Retransmits uint64
	// Refused counts connections the server reset (queue overflow).
	Refused uint64
	// Latencies records per-connection service time in seconds for
	// connections finishing after measureFrom.
	Latencies Sample
}

// clientConn is the client half of one connection.
type clientConn struct {
	conn     *tcp.Conn
	start    sim.Time
	group    int
	inGroup  int
	reqsLeft int
	done     bool

	// progress increments on every packet received; retransmit timers
	// compare snapshots of it to detect a stalled exchange.
	progress uint64
	// awaiting is true while a request is outstanding; duplicate
	// responses (from retransmitted requests) are ignored.
	awaiting bool
	// lastResp remembers the response size of the request in flight so
	// a retransmission asks for the same file.
	lastResp int
	// reqSeq is the serial of the next request; the server uses it to
	// discard retransmitted segments it already holds.
	reqSeq int
}

// New builds a generator over a stack. It installs itself as the
// stack's Deliver callback.
func New(cfg Config) *Gen {
	if cfg.Stack == nil {
		panic("workload: need a stack")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = cfg.Stack.Eng.CyclesOf(10)
	}
	if cfg.DelayedAck == 0 {
		cfg.DelayedAck = cfg.Stack.Eng.Millis(40)
	}
	if cfg.Files == 0 {
		cfg.Files = 30000
	}
	if cfg.MeanFileBytes == 0 {
		cfg.MeanFileBytes = 700
	}
	if len(cfg.Pattern.Groups) == 0 {
		cfg.Pattern = PaperPattern(cfg.Stack.Eng)
	}
	g := &Gen{
		cfg: cfg,
		s:   cfg.Stack,
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
		// Latency recording is off until BeginMeasure arms it.
		measureFrom: ^sim.Time(0),
	}
	g.buildFiles()
	g.s.Deliver = g.deliver
	return g
}

// buildFiles draws the catalogue: a right-skewed mix in [30, 5670]
// rescaled to the requested mean, like the static half of SpecWeb.
func (g *Gen) buildFiles() {
	g.files = make([]int, g.cfg.Files)
	var sum float64
	raw := make([]float64, g.cfg.Files)
	for i := range raw {
		// Exponential body plus a light tail, clipped to the paper's range.
		v := g.rng.ExpFloat64()
		if v > 8 {
			v = 8
		}
		raw[i] = v
		sum += v
	}
	meanRaw := sum / float64(len(raw))
	for i, v := range raw {
		b := int(v / meanRaw * float64(g.cfg.MeanFileBytes))
		if b < 30 {
			b = 30
		}
		if max := g.cfg.MeanFileBytes * 81 / 10; b > max {
			b = max
		}
		g.files[i] = b
	}
}

// MeanFileSize reports the catalogue's actual mean, for Figure 9 axes.
func (g *Gen) MeanFileSize() float64 {
	sum := 0
	for _, b := range g.files {
		sum += b
	}
	return float64(sum) / float64(len(g.files))
}

// Start launches the configured load at the engine's current time.
// Closed-loop connections are staggered over 50 ms to avoid a synthetic
// SYN burst.
func (g *Gen) Start() {
	e := g.s.Eng
	if g.cfg.OpenRate > 0 {
		g.scheduleArrival(e)
		return
	}
	// Spread starts over roughly one connection lifetime so the initial
	// SYN wave matches the steady-state rate.
	stagger := sim.Cycles(uint64(len(g.cfg.Pattern.Groups)))*g.cfg.Pattern.Think + e.Millis(60)
	for i := 0; i < g.cfg.Connections; i++ {
		delay := sim.Time(g.rng.Int63n(int64(stagger) + 1))
		e.After(delay, func(e *sim.Engine, _ *sim.Core) {
			g.open(e)
		})
	}
}

// BeginMeasure starts latency recording at the given virtual time.
func (g *Gen) BeginMeasure(at sim.Time) { g.measureFrom = at }

func (g *Gen) scheduleArrival(e *sim.Engine) {
	gap := e.CyclesOf(1 / g.cfg.OpenRate)
	// Uniform jitter around the mean arrival gap.
	jit := sim.Time(1)
	if gap > 1 {
		jit = sim.Time(g.rng.Int63n(int64(gap)))
	}
	e.After(gap/2+jit, func(e *sim.Engine, _ *sim.Core) {
		g.open(e)
		g.scheduleArrival(e)
	})
}

// open starts one connection: SYN now (with retransmission), timeout
// armed.
func (g *Gen) open(e *sim.Engine) {
	g.nextPort++
	g.nextIP++
	key := core.FlowKey{
		Proto:   6,
		SrcIP:   0x0a000000 + g.nextIP%1600, // 25 machines x 64 slots
		DstIP:   0x0a00ffff,
		SrcPort: uint16(g.nextPort),
		DstPort: 80,
	}
	cc := &clientConn{start: e.Now(), reqsLeft: g.cfg.Pattern.TotalRequests()}
	cc.conn = g.s.NewConn(key, cc)
	g.sendRetrying(e, cc, func(e *sim.Engine) {
		g.s.ClientSend(e, cc.conn, tcp.PktSYN, g.s.Cfg.Costs.AckBytes, 0, 0)
	}, 0)
	e.After(g.cfg.Timeout, func(e *sim.Engine, _ *sim.Core) {
		g.timeout(e, cc)
	})
}

// rto is TCP's retransmission timeout schedule (200 ms, doubling).
func (g *Gen) rto(attempt int) sim.Cycles {
	d := g.s.Eng.Millis(200)
	return d << uint(attempt)
}

const maxRetransmits = 6

// sendRetrying sends via the provided closure and re-sends it whenever
// no packet has been received since, on TCP's backoff schedule. The
// overall 10 s client timeout bounds the retries.
func (g *Gen) sendRetrying(e *sim.Engine, cc *clientConn, send func(e *sim.Engine), attempt int) {
	send(e)
	if attempt >= maxRetransmits {
		return
	}
	snapshot := cc.progress
	e.After(g.rto(attempt), func(e *sim.Engine, _ *sim.Core) {
		if cc.done || cc.progress != snapshot {
			return
		}
		g.Retransmits++
		g.sendRetrying(e, cc, send, attempt+1)
	})
}

func (g *Gen) timeout(e *sim.Engine, cc *clientConn) {
	if cc.done {
		return
	}
	cc.done = true
	g.TimedOut++
	g.s.ClientAbort(e, cc.conn)
	if e.Now() >= g.measureFrom {
		g.Latencies.Observe(e.Seconds(g.cfg.Timeout))
	}
	g.replace(e)
}

// replace sustains closed-loop concurrency.
func (g *Gen) replace(e *sim.Engine) {
	if g.cfg.OpenRate > 0 {
		return
	}
	g.open(e)
}

// sendReq issues the next request on a connection, with retransmission.
func (g *Gen) sendReq(e *sim.Engine, cc *clientConn) {
	respBytes := g.files[g.rng.Intn(len(g.files))]
	cc.awaiting = true
	cc.lastResp = respBytes
	cc.reqSeq++
	seq := cc.reqSeq
	g.sendRetrying(e, cc, func(e *sim.Engine) {
		g.s.ClientSend(e, cc.conn, tcp.PktREQ, g.s.Cfg.Costs.ReqBytes, cc.lastResp, seq)
	}, 0)
}

// deliver handles server-to-client packets.
func (g *Gen) deliver(e *sim.Engine, conn *tcp.Conn, kind uint8, bytes int) {
	cc, _ := conn.ClientData.(*clientConn)
	if cc == nil || cc.done {
		return
	}
	cc.progress++
	switch kind {
	case tcp.PktRST:
		// Refused: give up this connection and retry as a fresh one
		// after a SYN-retry-scale backoff, as a real client would.
		cc.done = true
		g.Refused++
		e.After(g.s.Eng.Millis(1000), func(e *sim.Engine, _ *sim.Core) {
			g.replace(e)
		})
	case tcp.PktSYNACK:
		if cc.awaiting || cc.group > 0 || cc.inGroup > 0 {
			return // duplicate SYN-ACK from a retransmitted SYN
		}
		g.s.ClientSend(e, conn, tcp.PktACK3, g.s.Cfg.Costs.AckBytes, 0, 0)
		cc.group = 0
		cc.inGroup = 0
		g.sendReq(e, cc)
	case tcp.PktRESP:
		if !cc.awaiting {
			return // duplicate response from a retransmitted request
		}
		cc.awaiting = false
		cc.inGroup++
		cc.reqsLeft--
		if cc.reqsLeft <= 0 {
			// All requests served: close gracefully and record latency.
			cc.done = true
			g.Completed++
			g.s.ClientSend(e, conn, tcp.PktFIN, g.s.Cfg.Costs.AckBytes, 0, 0)
			if e.Now() >= g.measureFrom {
				g.Latencies.Observe(e.Seconds(e.Now() - cc.start))
			}
			g.replace(e)
			return
		}
		if cc.inGroup >= g.cfg.Pattern.Groups[cc.group] {
			// Group done: delayed ack now, next group after think time.
			cc.group++
			cc.inGroup = 0
			e.After(g.cfg.DelayedAck, func(e *sim.Engine, _ *sim.Core) {
				if !cc.done {
					g.s.ClientSend(e, conn, tcp.PktACKData, g.s.Cfg.Costs.AckBytes, 0, 0)
				}
			})
			e.After(g.cfg.Pattern.Think, func(e *sim.Engine, _ *sim.Core) {
				if !cc.done {
					g.sendReq(e, cc)
				}
			})
			return
		}
		g.sendReq(e, cc)
	}
}
