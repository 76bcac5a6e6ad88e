package tcp

import (
	"affinityaccept/internal/core"
	"affinityaccept/internal/locks"
	"affinityaccept/internal/mem"
	"affinityaccept/internal/nic"
	"affinityaccept/internal/perfctr"
	"affinityaccept/internal/sim"
)

// ListenKind selects the listen-socket design under test (§6.2).
type ListenKind int

const (
	// StockAccept is unmodified Linux: one lock, one request table, one
	// accept queue per listen socket.
	StockAccept ListenKind = iota
	// FineAccept clones the listen socket per core with fine-grained
	// locks but accepts round-robin, without connection affinity.
	FineAccept
	// AffinityAccept is the paper's design: local accepts, connection
	// stealing, flow-group migration.
	AffinityAccept
)

// String names the listen kind as the paper does.
func (k ListenKind) String() string {
	switch k {
	case StockAccept:
		return "Stock-Accept"
	case FineAccept:
		return "Fine-Accept"
	default:
		return "Affinity-Accept"
	}
}

// App is the application half of the stack: web-server models implement
// it and call the Stack's syscalls back. The hooks run in softirq
// context: k identifies the interrupted core and carries the accounting
// context, so wakeup costs land in softirq_net_rx as they do in Linux.
type App interface {
	// ConnReady signals a new connection in core's accept queue; core is
	// -1 when the listen socket has no per-core association
	// (Stock-Accept and Fine-Accept wake any waiter).
	ConnReady(k *K, coreID int)
	// ConnReadable signals request data arrived on an accepted conn.
	ConnReadable(k *K, conn *Conn)
	// ConnClosed signals the peer closed or aborted an accepted conn.
	ConnClosed(k *K, conn *Conn)
}

// Delivery receives server-to-client packets at their arrival time.
type Delivery func(e *sim.Engine, conn *Conn, kind uint8, bytes int)

// Config assembles a simulated machine + kernel.
type Config struct {
	Machine mem.Machine
	Listen  ListenKind
	Costs   Costs

	// Backlog is the listen() queue bound (default 128 per core).
	Backlog int
	// StealRatio / watermarks forward to core.Config (zero = defaults).
	StealRatio      int
	HighPct, LowPct float64

	// StealingDisabled turns off connection stealing (LB experiments).
	StealingDisabled bool
	// MigrateEvery enables flow-group migration at this period (cycles);
	// zero disables it.
	MigrateEvery sim.Cycles

	// FlowGroups is the NIC steering granularity (default 4096).
	FlowGroups int
	// NICMode overrides steering (default ModeFlowGroups).
	NICMode nic.Mode
	// NICBandwidthBits overrides the port rate (default 10 Gbit).
	NICBandwidthBits uint64
	// FDirCapacity bounds the per-flow table in ModePerFlowFDir.
	FDirCapacity int

	// ReqTablePerCore selects the per-core request-table variant instead
	// of the shared bucket-locked table (§5.2 ablation).
	ReqTablePerCore bool

	// EhashBuckets sizes the established table (default 65536).
	EhashBuckets int
	// ReqHashBuckets sizes the request table (default 2048).
	ReqHashBuckets int

	// Profiling enables DProf object tracking (Table 4 / Figure 4).
	Profiling bool
	// LockStat enables lock_stat accounting overhead (Table 2).
	LockStat bool
	// SilentOverflow suppresses the reset normally sent when an accept
	// queue overflows (tcp_abort_on_overflow off, stock Linux default):
	// clients retransmit into the void until their own timeout fires,
	// which is the behaviour behind §6.5's 10-second medians.
	SilentOverflow bool
	// SoftwareRFS enables Google's Receive Flow Steering in software
	// (the paper's §7.2 comparison): packets are routed to the last
	// sendmsg() core by the receiving core, at per-packet routing cost.
	SoftwareRFS bool

	Seed int64
}

func (c *Config) fill() {
	cores := c.Machine.Cores()
	if cores == 0 {
		panic("tcp: config needs a machine")
	}
	if c.Costs == (Costs{}) {
		c.Costs = DefaultCosts()
	}
	if c.Backlog == 0 {
		c.Backlog = core.DefaultBacklogPerCore * cores
	}
	if c.FlowGroups == 0 {
		c.FlowGroups = core.DefaultFlowGroups
	}
	if c.EhashBuckets == 0 {
		c.EhashBuckets = 65536
	}
	if c.ReqHashBuckets == 0 {
		c.ReqHashBuckets = 2048
	}
}

// perCore bundles one core's kernel-side state.
type perCore struct {
	cloneLock  *locks.Lock // clone listen-socket lock (Fine/Affinity)
	cloneQueue *mem.Object // accept-queue head lines
	runqueue   *mem.Object
	reqTable   *reqTable // per-core request table (ablation mode)
}

// Stats are the stack-level counters experiments sample.
type Stats struct {
	ConnsAccepted uint64
	Requests      uint64
	// RequestsLocal counts responses written on the same core that
	// receives the connection's packets — the affinity the paper is
	// after.
	RequestsLocal  uint64
	SynDrops       uint64
	AcceptDrops    uint64
	Aborts         uint64
	ConnsClosed    uint64
	BytesTx        uint64
	FDirMigrations uint64
	// RFSRouted counts packets re-dispatched by software RFS.
	RFSRouted uint64
}

// Stack is the simulated kernel instance.
type Stack struct {
	Cfg Config
	Eng *sim.Engine
	Mem *mem.Model
	NIC *nic.NIC
	Ctr *perfctr.Set

	App     App
	Deliver Delivery

	flow   *core.FlowTable
	queues *core.Queues[*Conn]

	// Stock-Accept state.
	listenLock *locks.Lock
	stockQueue []*Conn
	listenSock *mem.Object // the single listen tcp_sock
	listenFile *mem.Object // its file: refcount shared in every design
	acceptCur  *mem.Object // Fine-Accept's shared round-robin cursor
	fineCursor int
	reqShared  *reqTable
	estab      *estabTable
	per        []perCore
	liveConns  map[*Conn]struct{}

	// Software-RFS state: the in-memory steering table and the memory
	// home override for packets handed over between cores.
	rfsTable     *mem.Object
	skbAllocHome int

	Stats Stats
}

// NewStack builds the kernel, NIC and memory system for one run.
func NewStack(cfg Config) *Stack {
	cfg.fill()
	cores := cfg.Machine.Cores()
	eng := sim.New(sim.Config{
		Cores:        cores,
		CoresPerChip: cfg.Machine.CoresPerChip,
		Freq:         cfg.Machine.Freq,
		Seed:         cfg.Seed,
	})
	m := mem.NewModel(cfg.Machine)
	m.Profiling = cfg.Profiling
	m.EvictHits = true
	m.Clock = func() sim.Time { return eng.Now() }

	s := &Stack{
		Cfg:       cfg,
		Eng:       eng,
		Mem:       m,
		Ctr:       perfctr.NewSet(),
		flow:      core.NewFlowTable(cfg.FlowGroups, cores),
		liveConns: make(map[*Conn]struct{}),
	}

	s.queues = core.NewQueues[*Conn](core.Config{
		Cores:      cores,
		Backlog:    cfg.Backlog,
		StealRatio: cfg.StealRatio,
		HighPct:    cfg.HighPct,
		LowPct:     cfg.LowPct,
	})

	nicCfg := nic.Config{
		Rings:         cores,
		Mode:          cfg.NICMode,
		FlowTable:     s.flow,
		BandwidthBits: cfg.NICBandwidthBits,
		Freq:          cfg.Machine.Freq,
		FDirCapacity:  cfg.FDirCapacity,
	}
	s.NIC = nic.New(nicCfg, s.softirq)

	// Global kernel objects. The listen socket and its file live on core
	// 0's chip, as they would after boot-time allocation.
	s.listenSock, _ = m.Alloc(0, TypeTCPSock)
	s.listenFile, _ = m.Alloc(0, TypeFile)
	s.acceptCur, _ = m.Alloc(0, TypeAcceptCursor)
	s.skbAllocHome = -1
	if cfg.SoftwareRFS {
		s.rfsTable, _ = m.Alloc(0, TypeReqHash)
	}
	s.estab = newEstabTable(m, cfg.EhashBuckets)
	if !cfg.ReqTablePerCore {
		s.reqShared = newReqTable(m, cfg.ReqHashBuckets, 0, "reqhash")
	}

	s.listenLock = locks.NewSocketLock("listen_sock", cfg.Costs.SockLockSpinLimit)
	s.listenLock.HandoffDelay = cfg.Costs.MutexHandoff

	s.per = make([]perCore, cores)
	for i := range s.per {
		pc := &s.per[i]
		// Clone accept-queue locks are plain spinlocks: they protect a
		// few queue-pointer updates and are rarely contended, exactly
		// the fine-grained locks §3.2 introduces.
		pc.cloneLock = locks.New("clone_sock")
		pc.cloneQueue, _ = m.Alloc(i, TypeCloneQueue)
		pc.runqueue, _ = m.Alloc(i, TypeRunqueue)
		if cfg.ReqTablePerCore {
			pc.reqTable = newReqTable(m, cfg.ReqHashBuckets/cores+1, i, "reqhash_percore")
		}
	}
	if cfg.LockStat {
		s.applyLockStat()
	}
	return s
}

func (s *Stack) applyLockStat() {
	ov := s.Cfg.Costs.LockStatOverhead
	s.listenLock.Overhead = ov
	for i := range s.per {
		s.per[i].cloneLock.Overhead = ov
	}
	if s.reqShared != nil {
		s.reqShared.setOverhead(ov)
	}
	for i := range s.per {
		if s.per[i].reqTable != nil {
			s.per[i].reqTable.setOverhead(ov)
		}
	}
	s.estab.setOverhead(ov)
}

// Start arms periodic activities (flow-group migration).
func (s *Stack) Start() {
	if s.Cfg.Listen == AffinityAccept && s.Cfg.MigrateEvery > 0 {
		s.scheduleMigration()
	}
}

func (s *Stack) scheduleMigration() {
	s.Eng.After(s.Cfg.MigrateEvery, func(e *sim.Engine, _ *sim.Core) {
		moves := core.Balance(s.flow, s.queues, s.coreHasCapacity)
		s.Stats.FDirMigrations += uint64(len(moves))
		s.scheduleMigration()
	})
}

// coreHasCapacity reports whether a core has CPU to spare for extra
// connections: cores squeezed by unrelated CPU-bound work (a reduced
// user share) must neither steal nor attract flow groups, whatever
// their queue length says.
func (s *Stack) coreHasCapacity(coreID int) bool {
	us := s.Eng.Cores[coreID].UserShare
	return us <= 0 || us >= 1
}

// FlowTable exposes steering state to experiments.
func (s *Stack) FlowTable() *core.FlowTable { return s.flow }

// Queues exposes the accept queues to experiments and tests.
func (s *Stack) Queues() *core.Queues[*Conn] { return s.queues }

// ListenLockStats aggregates the listen-socket lock statistics the way
// Table 2 reports them: the single socket lock under Stock-Accept, or
// the clone locks plus request-table bucket locks otherwise.
func (s *Stack) ListenLockStats() locks.Stats {
	if s.Cfg.Listen == StockAccept {
		return s.listenLock.Stats
	}
	var agg locks.Stats
	for i := range s.per {
		agg.Merge(s.per[i].cloneLock.Stats)
		if s.per[i].reqTable != nil {
			agg.Merge(s.per[i].reqTable.lockStats())
		}
	}
	if s.reqShared != nil {
		agg.Merge(s.reqShared.lockStats())
	}
	return agg
}

// LiveConns returns the still-open connections (harvested for DProf at
// the end of profiling runs).
func (s *Stack) LiveConns() []*Conn {
	out := make([]*Conn, 0, len(s.liveConns))
	for c := range s.liveConns {
		out = append(out, c)
	}
	return out
}

// HarvestProfiles folds live objects into DProf statistics.
func (s *Stack) HarvestProfiles() {
	var objs []*mem.Object
	for c := range s.liveConns {
		for _, o := range []*mem.Object{c.sock, c.reqSock, c.fd, c.wqMeta, c.sk192} {
			if o != nil {
				objs = append(objs, o)
			}
		}
		for _, r := range c.rxPending {
			if r.skb != nil {
				objs = append(objs, r.skb)
			}
		}
		objs = append(objs, c.txInflight...)
	}
	objs = append(objs, s.listenSock, s.listenFile)
	s.Mem.HarvestLive(objs)
}

// ---- kernel entry context ----

// K tracks one kernel entry: cycles are measured as the core-clock delta
// between Enter and Leave (so lock waits and cache stalls are included,
// as a real cycle counter would), instructions and misses are explicit.
type K struct {
	s     *Stack
	c     *sim.Core
	e     perfctr.Entry
	start sim.Time
	instr uint64
}

// Enter opens a kernel entry on a core.
func (s *Stack) Enter(c *sim.Core, e perfctr.Entry) *K {
	s.Ctr.AddCall(e)
	return &K{s: s, c: c, e: e, start: c.Now()}
}

// Leave closes the entry and attributes its cycles.
func (k *K) Leave() {
	k.s.Ctr.Add(k.e, k.c.Now()-k.start, k.instr)
}

// Work charges base execution.
func (k *K) Work(op Op) {
	k.c.Charge(op.Cycles)
	k.instr += op.Instr
}

// WorkCycles charges raw cycles with an instruction estimate.
func (k *K) WorkCycles(cyc sim.Cycles, instr uint64) {
	k.c.Charge(cyc)
	k.instr += instr
}

// Touch accesses a field of an object, charging coherence costs.
func (k *K) Touch(o *mem.Object, f mem.FieldID, write bool) {
	k.s.Mem.IssueNow = k.c.Now()
	res := k.s.Mem.Access(k.c.ID, o, f, write)
	k.c.Charge(res.Cycles)
	k.instr++
	if res.Miss {
		k.s.Ctr.AddMiss(k.e)
	}
}

// TouchRepeat accesses a field n times back to back.
func (k *K) TouchRepeat(o *mem.Object, f mem.FieldID, write bool, n int) {
	k.s.Mem.IssueNow = k.c.Now()
	res := k.s.Mem.AccessRepeat(k.c.ID, o, f, write, n)
	k.c.Charge(res.Cycles)
	k.instr += uint64(n)
	if res.Miss {
		k.s.Ctr.AddMiss(k.e)
	}
}

// ColdWalk charges n capacity misses (cold working-set lines) to the
// current entry.
func (k *K) ColdWalk(n int) {
	if n <= 0 {
		return
	}
	k.s.Mem.IssueNow = k.c.Now()
	res := k.s.Mem.ColdMisses(k.c.ID, n)
	k.c.Charge(res.Cycles)
	k.instr += uint64(n)
	for i := 0; i < n; i++ {
		k.s.Ctr.AddMiss(k.e)
	}
}

// TouchInit performs an initialization write.
func (k *K) TouchInit(o *mem.Object, f mem.FieldID) {
	k.s.Mem.IssueNow = k.c.Now()
	res := k.s.Mem.AccessInit(k.c.ID, o, f)
	k.c.Charge(res.Cycles)
	k.instr++
	if res.Miss {
		k.s.Ctr.AddMiss(k.e)
	}
}

// Alloc allocates a tracked object on this core.
func (k *K) Alloc(t *mem.TypeInfo) *mem.Object {
	k.s.Mem.IssueNow = k.c.Now()
	o, cyc := k.s.Mem.Alloc(k.c.ID, t)
	k.c.Charge(cyc)
	return o
}

// Free releases a tracked object from this core (remote frees pay).
func (k *K) Free(o *mem.Object) {
	if o == nil {
		return
	}
	k.s.Mem.IssueNow = k.c.Now()
	cyc := k.s.Mem.Free(k.c.ID, o)
	k.c.Charge(cyc)
}
