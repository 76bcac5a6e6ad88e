package tcp

import (
	"affinityaccept/internal/mem"
	"affinityaccept/internal/nic"
	"affinityaccept/internal/perfctr"
	"affinityaccept/internal/sim"
)

// Accept implements accept() on the calling core for the configured
// listen-socket design. It returns nil when no connection is available.
// Aborted connections reaching the queue head are discarded in place.
func (s *Stack) Accept(c *sim.Core) *Conn {
	k := s.Enter(c, perfctr.SysAccept4)
	defer k.Leave()
	for {
		conn := s.acceptOne(k)
		if conn == nil {
			return nil
		}
		if conn.aborted {
			// Client gave up while queued: free and keep looking.
			s.dropEstablished(k, conn)
			continue
		}
		s.finishAccept(k, conn)
		return conn
	}
}

// acceptOne dequeues one connection according to the listen design.
func (s *Stack) acceptOne(k *K) *Conn {
	c := k.c
	cost := &s.Cfg.Costs
	k.Work(cost.Accept)

	switch s.Cfg.Listen {
	case StockAccept:
		s.listenLock.Acquire(c, true)
		at := c.Now()
		k.WorkCycles(cost.StockLockWork, uint64(cost.StockLockWork)/2)
		k.touchListenSock()
		var conn *Conn
		if len(s.stockQueue) > 0 {
			conn = s.stockQueue[0]
			copy(s.stockQueue, s.stockQueue[1:])
			s.stockQueue = s.stockQueue[:len(s.stockQueue)-1]
		}
		s.listenLock.Unlock(c, at)
		return conn

	case FineAccept:
		// Round-robin over clone queues through a shared cursor: the
		// cursor line itself bounces between every accepting core.
		// Fetch-and-add semantics spread concurrent acceptors over
		// different queues instead of converging on one.
		k.Touch(s.acceptCur, 0, true)
		start := s.fineCursor
		n := len(s.per)
		s.fineCursor = (s.fineCursor + 1) % n
		for i := 0; i < n; i++ {
			idx := (start + i) % n
			k.Touch(s.per[idx].cloneQueue, 1, false) // length peek
			if s.queues.Len(idx) == 0 {
				continue
			}
			lock := s.per[idx].cloneLock
			lock.Acquire(c, true)
			at := c.Now()
			k.Touch(s.per[idx].cloneQueue, 0, true)
			k.Touch(s.per[idx].cloneQueue, 1, true)
			conn, ok := s.queues.PopAt(idx)
			lock.Unlock(c, at)
			if ok {
				return conn
			}
		}
		return nil

	default: // AffinityAccept
		lock := s.per[c.ID].cloneLock
		lock.Acquire(c, true)
		at := c.Now()
		k.Touch(s.per[c.ID].cloneQueue, 0, true)
		k.Touch(s.per[c.ID].cloneQueue, 1, true)
		var (
			conn *Conn
			from int
			ok   bool
		)
		if s.Cfg.StealingDisabled || !s.coreHasCapacity(c.ID) {
			// Stealing disabled, or this core has no CPU to spare for
			// foreign connections: local accepts only.
			conn, ok = s.queues.PopAt(c.ID)
			from = c.ID
		} else {
			conn, from, ok = s.queues.Pop(c.ID)
		}
		lock.Unlock(c, at)
		if !ok {
			return nil
		}
		if from != c.ID {
			// Stolen: pay for the victim's queue lock and lines.
			vlock := s.per[from].cloneLock
			vlock.Acquire(c, true)
			vat := c.Now()
			k.Touch(s.per[from].cloneQueue, 0, true)
			k.Touch(s.per[from].cloneQueue, 1, true)
			vlock.Unlock(c, vat)
		}
		return conn
	}
}

// finishAccept installs the connection into the accepting process: file
// descriptor allocation, request-socket teardown, socket touches.
func (s *Stack) finishAccept(k *K, conn *Conn) {
	c := k.c
	k.ColdWalk(s.Cfg.Costs.AcceptCold)
	// Every accept bumps the listen file's reference count — the one
	// line that stays shared even under Affinity-Accept.
	k.Touch(s.listenFile, 0, true)

	// Read and free the request socket (it carried the handshake state
	// into the accept queue; Fine-Accept frees it on a remote core).
	if conn.reqSock != nil {
		k.Touch(conn.reqSock, 1, false)
		k.Touch(conn.reqSock, 2, false)
		k.Touch(conn.reqSock, 3, false)
		k.Free(conn.reqSock)
		conn.reqSock = nil
	}

	conn.fd = k.Alloc(TypeSockFD)
	k.TouchInit(conn.fd, 0)
	k.TouchInit(conn.fd, 2)
	k.Touch(conn.sock, sockInitBlock, false)
	k.Touch(conn.sock, sockHot[hotLock], true)
	k.Touch(conn.sock, sockHot[hotRcvBuf], false)

	conn.State = StateAccepted
	conn.AppCore = c.ID
	conn.acceptedAt = c.Now()
	s.Stats.ConnsAccepted++
}

// PostAcceptSetup models the fcntl(O_NONBLOCK) and getsockname() calls
// servers issue on fresh connections (Table 3's small entries).
func (s *Stack) PostAcceptSetup(c *sim.Core, conn *Conn) {
	k := s.Enter(c, perfctr.SysFcntl)
	k.Work(s.Cfg.Costs.Fcntl)
	k.Touch(conn.fd, 2, true)
	k.Leave()

	k = s.Enter(c, perfctr.SysGetsockname)
	k.Work(s.Cfg.Costs.Getsockname)
	k.Touch(conn.sock, sockInitBlock, false)
	k.Leave()
}

// Read implements read() of the next pending request. ok=false means
// the socket has no data (the caller blocks).
func (s *Stack) Read(c *sim.Core, conn *Conn) (PendingReq, bool) {
	k := s.Enter(c, perfctr.SysRead)
	defer k.Leave()
	cost := &s.Cfg.Costs
	k.Work(cost.Read)
	k.ColdWalk(cost.ReadCold)
	k.TouchRepeat(conn.sock, sockHot[hotLock], true, cost.SockTouchRepeat)
	k.TouchRepeat(conn.sock, sockHot[hotRxSeq], true, cost.SockTouchRepeat)
	k.Touch(conn.sock, sockHot[hotRxQueue], true)
	k.Touch(conn.sock, sockHot[hotRcvBuf], true)
	k.Touch(conn.sock, sockHot[hotTimers], true)
	k.Touch(conn.sock, sockHot[hotCong1], false)
	// The receive path crosses the same long tail of socket state the
	// softirq side writes, re-transferring those lines under Fine.
	for i := hotTailFirst; i <= hotTailLast-5; i++ {
		k.Touch(conn.sock, sockHot[i], true)
	}
	if len(conn.rxPending) == 0 {
		return PendingReq{}, false
	}
	req := conn.rxPending[0]
	copy(conn.rxPending, conn.rxPending[1:])
	conn.rxPending = conn.rxPending[:len(conn.rxPending)-1]

	// Copy the payload to user space and release the packet buffer —
	// on this core, which is remote from its allocator under Fine.
	k.Touch(req.skb, 1, false)
	k.Touch(req.skb, 2, false)
	k.WorkCycles(sim.Cycles(uint64(req.ReqBytes)*uint64(cost.CopyPerByteMilli)/1000),
		uint64(req.ReqBytes/16))
	k.skbFree(req.skb)
	req.skb = nil
	return req, true
}

// Writev implements writev() of one HTTP response: build and transmit
// the response segments from this core, updating the Twenty-Policy FDir
// table when that driver mode is active. It returns the time the last
// byte leaves the wire.
func (s *Stack) Writev(c *sim.Core, conn *Conn, respBytes int) sim.Time {
	k := s.Enter(c, perfctr.SysWritev)
	defer k.Leave()
	cost := &s.Cfg.Costs
	k.Work(cost.Writev)
	k.ColdWalk(cost.WritevCold)

	k.TouchRepeat(conn.sock, sockHot[hotLock], true, cost.SockTouchRepeat)
	k.TouchRepeat(conn.sock, sockHot[hotTxSeq], true, cost.SockTouchRepeat)
	k.Touch(conn.sock, sockHot[hotTxQueue], true)
	k.Touch(conn.sock, sockHot[hotWmem], true)
	k.Touch(conn.sock, sockHot[hotCong1], true)
	k.Touch(conn.sock, sockHot[hotCong2], true)
	k.Touch(conn.sock, sockHot[hotTimers], true)
	k.Touch(conn.sock, sockHot[hotRcvBuf], false)
	k.Touch(conn.wqMeta, 0, true)
	k.Touch(conn.wqMeta, 1, true)
	// Transmit also walks the socket's shared tail (sndbuf accounting,
	// timestamps, pacing state).
	for i := hotTailLast - 5; i <= hotTailLast; i++ {
		k.Touch(conn.sock, sockHot[i], true)
	}

	// Response payload pages, filled on this core.
	page := k.Alloc(TypePage4K)
	k.TouchInit(page, 0)
	k.TouchInit(page, 1)
	conn.txInflight = append(conn.txInflight, page)

	total := respBytes + cost.RespHeader
	var lastTx sim.Time
	for sent := 0; sent < total; {
		seg := total - sent
		if seg > cost.MSS {
			seg = cost.MSS
		}
		sent += seg
		skb := k.skbAlloc()
		conn.txInflight = append(conn.txInflight, skb)
		k.Work(cost.RespTx)
		k.WorkCycles(sim.Cycles(uint64(seg)*uint64(cost.CopyTxPerByteMil)/1000),
			uint64(seg/16))
		lastTx = s.NIC.Tx(c, &nic.Packet{
			Key:   conn.Key.Reverse(),
			Bytes: seg + cost.HeaderWire,
			Kind:  PktRESP,
			Conn:  conn,
		})
		s.Stats.BytesTx += uint64(seg + cost.HeaderWire)

		if s.NIC.Mode() == nic.ModePerFlowFDir {
			conn.twentyCount++
			if conn.twentyCount%s.NIC.TwentyPeriod() == 0 {
				s.NIC.FDirUpdate(s.Eng, c, conn.Key)
			}
		}
	}

	s.rfsNoteSend(k, conn)
	s.Stats.Requests++
	// Locality is judged where the response is actually produced: the
	// core running this writev versus the core receiving the flow's
	// packets (an unpinned worker may run far from the accepting core).
	if c.ID == conn.SoftirqCore {
		s.Stats.RequestsLocal++
	}
	s.deliverAt(lastTx+cost.HalfRTT, conn, PktRESP, respBytes)
	return lastTx
}

// CloseConn implements the shutdown()+close() teardown servers perform
// when the client has finished.
func (s *Stack) CloseConn(c *sim.Core, conn *Conn) {
	cost := &s.Cfg.Costs

	k := s.Enter(c, perfctr.SysShutdown)
	k.Work(cost.Shutdown)
	if conn.sock != nil {
		k.Touch(conn.sock, sockHot[hotLock], true)
		k.Touch(conn.sock, sockHot[hotTxSeq], true)
	}
	k.Leave()

	k = s.Enter(c, perfctr.SysClose)
	k.Work(cost.Close)
	k.ColdWalk(cost.CloseCold)
	if conn.sock != nil {
		s.estab.remove(k, conn)
	}
	for _, r := range conn.rxPending {
		k.skbFree(r.skb)
	}
	conn.rxPending = nil
	for _, skb := range conn.txInflight {
		k.skbFree(skb)
	}
	conn.txInflight = nil
	k.Free(conn.fd)
	k.Free(conn.wqMeta)
	k.Free(conn.sk192)
	k.Free(conn.sock)
	conn.fd, conn.wqMeta, conn.sk192, conn.sock = nil, nil, nil, nil
	conn.State = StateClosed
	delete(s.liveConns, conn)
	s.Stats.ConnsClosed++
	k.Leave()

	// Socket teardown defers freeing through RCU.
	k = s.Enter(c, perfctr.SoftirqRCU)
	k.Work(cost.RCU)
	k.Leave()
}

// PollWait charges one poll() call watching nfds descriptors (the
// accept thread's wait). It touches the listen file, keeping that line
// shared across every polling core.
func (s *Stack) PollWait(c *sim.Core, nfds int) {
	k := s.Enter(c, perfctr.SysPoll)
	k.Work(s.Cfg.Costs.Poll)
	k.ColdWalk(s.Cfg.Costs.PollCold)
	for i := 0; i < nfds; i++ {
		k.Work(s.Cfg.Costs.PollPerFD)
	}
	pe := k.Alloc(TypePollEntry)
	k.TouchInit(pe, 0)
	k.Touch(s.listenFile, 0, false)
	k.Free(pe)
	k.Leave()
}

// EpollWait charges one epoll_wait() returning nReady events
// (lighttpd's event loop).
func (s *Stack) EpollWait(c *sim.Core, nReady int) {
	k := s.Enter(c, perfctr.SysEpollWait)
	k.Work(s.Cfg.Costs.Epoll)
	k.ColdWalk(s.Cfg.Costs.PollCold)
	for i := 0; i < nReady; i++ {
		k.Work(s.Cfg.Costs.PollPerFD)
	}
	k.Leave()
}

// FutexOp charges one futex system call (Apache's accept->worker
// handoff runs on futexes).
func (s *Stack) FutexOp(c *sim.Core) {
	k := s.Enter(c, perfctr.SysFutex)
	k.Work(s.Cfg.Costs.Futex)
	k.ColdWalk(s.Cfg.Costs.FutexCold)
	k.Leave()
}

// FutexWake charges a futex wake of a (possibly remote) thread.
func (s *Stack) FutexWake(c *sim.Core, t *Thread) {
	k := s.Enter(c, perfctr.SysFutex)
	k.Work(s.Cfg.Costs.Futex)
	k.ColdWalk(s.Cfg.Costs.FutexCold)
	k.WakeThread(t)
	k.Leave()
}

// Thread is a schedulable application thread's kernel-side footprint.
type Thread struct {
	Task   *mem.Object
	KStack *mem.Object
	Core   int
}

// NewThread allocates a thread's task_struct and kernel stack on a core.
func (s *Stack) NewThread(coreID int) *Thread {
	task, _ := s.Mem.Alloc(coreID, TypeTaskStruct)
	kst, _ := s.Mem.Alloc(coreID, TypeThreadStack)
	return &Thread{Task: task, KStack: kst, Core: coreID}
}

// ScheduleIn charges a context switch into the given thread on core c.
func (s *Stack) ScheduleIn(c *sim.Core, t *Thread) {
	k := s.Enter(c, perfctr.Schedule)
	k.Work(s.Cfg.Costs.Schedule)
	k.ColdWalk(s.Cfg.Costs.ScheduleCold)
	k.Touch(s.per[c.ID].runqueue, 0, true)
	if t != nil {
		k.Touch(t.Task, 0, true) // state
		k.Touch(t.Task, 1, true) // sched entity
		k.Touch(t.KStack, 0, false)
		k.Touch(t.KStack, 1, true)
	}
	k.Leave()
}

// ScheduleOut charges parking the given thread on core c.
func (s *Stack) ScheduleOut(c *sim.Core, t *Thread) {
	k := s.Enter(c, perfctr.Schedule)
	k.Work(s.Cfg.Costs.Schedule)
	k.ColdWalk(s.Cfg.Costs.ScheduleCold)
	k.Touch(s.per[c.ID].runqueue, 0, true)
	if t != nil {
		k.Touch(t.Task, 0, true)
	}
	k.Leave()
}

// WakeThread models a wakeup of a (possibly remote) parked thread from
// the current kernel context: runqueue insert plus task-state write.
func (k *K) WakeThread(t *Thread) {
	if t == nil {
		return
	}
	k.Touch(k.s.per[t.Core].runqueue, 0, true)
	k.Touch(t.Task, 0, true)
	k.Touch(t.KStack, 0, false)
	half := Op{k.s.Cfg.Costs.Schedule.Cycles / 2, k.s.Cfg.Costs.Schedule.Instr / 2}
	k.Work(half)
}

// Core returns the core this kernel context runs on.
func (k *K) Core() *sim.Core { return k.c }

// Stack returns the owning stack.
func (k *K) Stack() *Stack { return k.s }

// Engine returns the simulation engine.
func (k *K) Engine() *sim.Engine { return k.s.Eng }

// UserWork charges application-level (user-space) execution: cycles of
// compute plus cold working-set misses drawn through the local memory
// controller. It is not attributed to any kernel entry.
func (s *Stack) UserWork(c *sim.Core, cycles sim.Cycles, coldLines int) {
	c.Charge(cycles)
	s.Mem.IssueNow = c.Now()
	res := s.Mem.ColdMisses(c.ID, coldLines)
	c.Charge(res.Cycles)
}
