package tcp

import (
	"affinityaccept/internal/mem"
	"affinityaccept/internal/nic"
	"affinityaccept/internal/perfctr"
	"affinityaccept/internal/sim"
)

// softirq is the NIC's packet handler: it runs on the core owning the
// receiving DMA ring, in softirq_net_rx context. With software RFS the
// receiving core may only route the packet; protocol processing then
// happens on the steering table's destination core.
func (s *Stack) softirq(e *sim.Engine, c *sim.Core, pkt *nic.Packet) {
	if s.rfsRoute(e, c, pkt) {
		return
	}
	s.deliver(e, c, pkt)
}

// deliver performs the protocol processing of one packet on this core.
func (s *Stack) deliver(e *sim.Engine, c *sim.Core, pkt *nic.Packet) {
	conn := pkt.Conn.(*Conn)
	k := s.Enter(c, perfctr.SoftirqNetRX)
	defer k.Leave()
	k.Work(s.Cfg.Costs.SoftirqBase)
	k.ColdWalk(s.Cfg.Costs.SoftirqColdPerPkt)
	conn.SoftirqCore = c.ID

	switch pkt.Kind {
	case PktSYN:
		s.rxSyn(k, conn)
	case PktACK3:
		s.rxAck3(k, conn)
	case PktREQ:
		s.rxReq(k, conn, pkt)
	case PktACKData:
		s.rxAckData(k, conn)
	case PktFIN:
		s.rxFin(k, conn)
	}
}

// skbuff models the allocation and immediate processing of one packet's
// sk_buff on the current core (or, under software RFS, on the routing
// core that DMA'd the packet — whoever frees it later pays remotely).
func (k *K) skbAlloc() *mem.Object {
	k.Work(k.s.Cfg.Costs.SkbWork)
	home := k.c.ID
	if k.s.skbAllocHome >= 0 {
		home = k.s.skbAllocHome
	}
	k.s.Mem.IssueNow = k.c.Now()
	skb, cyc := k.s.Mem.Alloc(home, TypeSKB)
	k.c.Charge(cyc)
	k.TouchInit(skb, 0) // list
	k.TouchInit(skb, 1) // meta
	k.TouchInit(skb, 2) // data_ptrs
	return skb
}

// skbFree releases a transmit/receive buffer: an sk_buff (destructor
// runs) or an attached data page.
func (k *K) skbFree(skb *mem.Object) {
	if skb == nil {
		return
	}
	if skb.Type == TypeSKB {
		k.Touch(skb, 3, false) // destructor
	}
	k.Free(skb)
}

// touchListenSock models the Stock-Accept critical section's cache
// footprint: the listen socket's state is walked end to end while the
// single lock is held, and at high core counts every one of those lines
// is dirty in some other core's cache.
func (k *K) touchListenSock() {
	s := k.s
	k.TouchRepeat(s.listenSock, sockHot[hotLock], true, 2)
	for i := 0; i < len(sockHot); i++ {
		k.Touch(s.listenSock, sockHot[i], i%2 == 0)
	}
	k.Touch(s.listenSock, sockInitBlock, false)
}

// acceptQueueFull applies the kernel's early SYN drop when the target
// accept queue is already full.
func (s *Stack) acceptQueueFull(k *K, coreID int) bool {
	switch s.Cfg.Listen {
	case StockAccept:
		return len(s.stockQueue) >= s.Cfg.Backlog
	default:
		return s.queues.Len(coreID) >= s.queues.MaxLocalLen()
	}
}

// rxSyn handles a connection request: create a request socket, reply
// SYN-ACK. Under Stock-Accept the whole operation serializes on the
// listen socket lock; the clone designs only take a request-table bucket
// lock.
func (s *Stack) rxSyn(k *K, conn *Conn) {
	c := k.c
	cost := &s.Cfg.Costs
	skb := k.skbAlloc()
	defer k.skbFree(skb)
	k.Work(cost.SynExtra)

	if conn.State != StateNew {
		// Duplicate SYN (client retransmission): just re-send SYN-ACK.
		txDone := s.NIC.Tx(c, &nic.Packet{Key: conn.Key.Reverse(), Bytes: cost.AckBytes, Kind: PktSYNACK, Conn: conn})
		s.deliverAt(txDone+cost.HalfRTT, conn, PktSYNACK, 0)
		return
	}
	if s.acceptQueueFull(k, c.ID) {
		// Dropped before any expensive processing (and before the
		// Stock-Accept socket lock), as the kernel's early check does.
		s.Stats.SynDrops++
		if s.Cfg.SilentOverflow {
			// Stock behaviour: say nothing; the client's SYN
			// retransmissions may succeed later or time out.
			return
		}
		// Refusal tells the load generator to give up on this
		// connection rather than retransmitting into a dead slot.
		conn.State = StateClosed
		delete(s.liveConns, conn)
		s.Stats.ConnsClosed++
		s.refuse(k, conn)
		return
	}

	create := func(lockHeld bool) {
		conn.reqSock = k.Alloc(TypeRequestSock)
		k.TouchInit(conn.reqSock, 1) // tuple
		k.TouchInit(conn.reqSock, 2) // state
		k.TouchInit(conn.reqSock, 3) // listener back-pointer
		s.reqTableFor(c.ID).insert(k, conn, lockHeld)
		conn.State = StateSynRcvd
		conn.reqTableCore = c.ID
	}

	if s.Cfg.Listen == StockAccept {
		s.listenLock.Acquire(c, false)
		at := c.Now()
		// Processing under the single lock touches the listen socket's
		// hot state from whichever core the interrupt landed on, and
		// does the whole request-table scan while holding it.
		k.WorkCycles(cost.StockLockWork, uint64(cost.StockLockWork)/2)
		k.touchListenSock()
		create(true)
		s.listenLock.Unlock(c, at)
	} else {
		// Clone designs: only the bucket lock; listen state is per-core.
		k.Touch(s.per[c.ID].cloneQueue, 1, false) // local length check
		create(false)
	}

	// SYN-ACK reply from this core's TX ring.
	txDone := s.NIC.Tx(c, &nic.Packet{Key: conn.Key.Reverse(), Bytes: cost.AckBytes, Kind: PktSYNACK, Conn: conn})
	s.deliverAt(txDone+cost.HalfRTT, conn, PktSYNACK, 0)
}

// rxAck3 completes the three-way handshake: promote the request socket
// to an established tcp_sock and queue it for accept().
func (s *Stack) rxAck3(k *K, conn *Conn) {
	c := k.c
	cost := &s.Cfg.Costs
	skb := k.skbAlloc()
	defer k.skbFree(skb)
	k.Work(cost.Ack3Extra)

	if conn.State != StateSynRcvd {
		// Request socket was dropped or timed out; the kernel sends a
		// RST. Nothing to charge beyond base processing.
		return
	}

	promote := func(lockHeld bool) bool {
		if !s.lookupRequest(k, conn, lockHeld) {
			return false
		}
		// Create the child socket on this core: its memory home is here.
		k.Work(cost.SockAllocWork)
		conn.sock = k.Alloc(TypeTCPSock)
		k.TouchInit(conn.sock, sockInitBlock)
		k.TouchInit(conn.sock, sockHot[hotLock])
		k.TouchInit(conn.sock, sockHot[hotRxSeq])
		k.TouchInit(conn.sock, sockHot[hotTxSeq])
		conn.wqMeta = k.Alloc(TypeSock1K)
		k.TouchInit(conn.wqMeta, 0)
		conn.sk192 = k.Alloc(TypeSock192)
		k.TouchInit(conn.sk192, 0)
		s.estab.insert(k, conn)
		return true
	}

	enqueue := func() bool {
		switch s.Cfg.Listen {
		case StockAccept:
			if len(s.stockQueue) >= s.Cfg.Backlog {
				return false
			}
			k.Touch(s.listenSock, sockHot[hotRxQueue], true)
			k.Touch(s.listenSock, sockHot[hotRcvBuf], true)
			s.stockQueue = append(s.stockQueue, conn)
			return true
		default:
			k.Touch(s.per[c.ID].cloneQueue, 0, true) // head
			k.Touch(s.per[c.ID].cloneQueue, 1, true) // len
			ok, _ := s.queues.Push(c.ID, conn)
			return ok
		}
	}

	if s.Cfg.Listen == StockAccept {
		s.listenLock.Acquire(c, false)
		at := c.Now()
		k.WorkCycles(cost.StockLockWork, uint64(cost.StockLockWork)/2)
		k.touchListenSock()
		ok := promote(true)
		queued := ok && enqueue()
		s.listenLock.Unlock(c, at)
		if !ok {
			return
		}
		if !queued {
			s.dropEstablished(k, conn)
			return
		}
	} else {
		if !promote(false) {
			return
		}
		lock := s.per[c.ID].cloneLock
		lock.Acquire(c, false)
		at := c.Now()
		queued := enqueue()
		lock.Unlock(c, at)
		if !queued {
			s.dropEstablished(k, conn)
			return
		}
	}

	conn.State = StateQueued
	if s.Cfg.Listen == AffinityAccept {
		s.App.ConnReady(k, c.ID)
	} else {
		s.App.ConnReady(k, -1)
	}
}

// lookupRequest finds and removes the request socket. With per-core
// request tables a flow-group migration can strand the entry on another
// core; the lookup then has to scan the other tables (§5.2's problem).
func (s *Stack) lookupRequest(k *K, conn *Conn, lockHeld bool) bool {
	t := s.reqTableFor(k.c.ID)
	if s.Cfg.ReqTablePerCore && conn.reqTableCore != k.c.ID {
		// Miss in the local table: scan others (expensive and intrusive).
		for i := range s.per {
			if i == k.c.ID {
				continue
			}
			if s.per[i].reqTable.lookupRemove(k, conn, false) {
				return true
			}
		}
		return false
	}
	return t.lookupRemove(k, conn, lockHeld)
}

func (s *Stack) reqTableFor(coreID int) *reqTable {
	if s.Cfg.ReqTablePerCore {
		return s.per[coreID].reqTable
	}
	return s.reqShared
}

// dropEstablished tears down a connection whose accept queue overflowed,
// resetting the client (tcp_abort_on_overflow behaviour).
func (s *Stack) dropEstablished(k *K, conn *Conn) {
	s.Stats.AcceptDrops++
	s.estab.remove(k, conn)
	k.Free(conn.sock)
	k.Free(conn.wqMeta)
	k.Free(conn.sk192)
	k.Free(conn.reqSock)
	for _, r := range conn.rxPending {
		k.skbFree(r.skb)
	}
	conn.rxPending = nil
	conn.sock, conn.wqMeta, conn.sk192, conn.reqSock = nil, nil, nil, nil
	wasAborted := conn.aborted
	conn.State = StateClosed
	delete(s.liveConns, conn)
	s.Stats.ConnsClosed++
	if !wasAborted {
		s.refuse(k, conn)
	}
}

// refuse sends the client a reset (unless overflow is silent, the stock
// Linux default behind §6.5's client timeouts).
func (s *Stack) refuse(k *K, conn *Conn) {
	if s.Cfg.SilentOverflow {
		return
	}
	cost := &s.Cfg.Costs
	txDone := s.NIC.Tx(k.c, &nic.Packet{Key: conn.Key.Reverse(), Bytes: cost.AckBytes, Kind: PktRST, Conn: conn})
	s.deliverAt(txDone+cost.HalfRTT, conn, PktRST, 0)
}

// touchSockRx models the receive-side socket work of one data packet.
func (k *K) touchSockRx(conn *Conn) {
	rep := k.s.Cfg.Costs.SockTouchRepeat
	k.TouchRepeat(conn.sock, sockHot[hotLock], true, rep)
	k.TouchRepeat(conn.sock, sockHot[hotRxSeq], true, rep)
	k.TouchRepeat(conn.sock, sockHot[hotRxQueue], true, rep)
	k.Touch(conn.sock, sockHot[hotRcvBuf], true)
	k.Touch(conn.sock, sockHot[hotTimers], true)
	k.Touch(conn.sock, sockInitBlock, false)
	// Long tail of flags/mibs/timestamps crossed on the receive path.
	for i := hotTailFirst; i <= hotTailLast-5; i++ {
		k.Touch(conn.sock, sockHot[i], true)
	}
}

// touchSockAck models processing an acknowledgment of our transmitted
// data: the transmit-side state written by the application core.
func (k *K) touchSockAck(conn *Conn) {
	rep := k.s.Cfg.Costs.SockTouchRepeat
	k.TouchRepeat(conn.sock, sockHot[hotTxSeq], true, rep)
	k.TouchRepeat(conn.sock, sockHot[hotTxQueue], true, rep)
	k.Touch(conn.sock, sockHot[hotWmem], true)
	k.TouchRepeat(conn.sock, sockHot[hotCong1], true, 2)
	k.Touch(conn.sock, sockHot[hotCong2], true)
	k.Touch(conn.wqMeta, 0, true) // write-queue head
	k.Touch(conn.wqMeta, 1, true) // accounting
	for i := hotTailLast - 4; i <= hotTailLast-2; i++ {
		k.Touch(conn.sock, sockHot[i], true)
	}
	// Release acknowledged transmit buffers: allocated on the
	// application core, freed here on the softirq core.
	for _, skb := range conn.txInflight {
		k.skbFree(skb)
	}
	conn.txInflight = conn.txInflight[:0]
}

// rxReq handles an HTTP request packet, which also acknowledges all
// outstanding response data.
func (s *Stack) rxReq(k *K, conn *Conn, pkt *nic.Packet) {
	cost := &s.Cfg.Costs
	k.Work(cost.ReqExtra)
	if conn.State == StateSynRcvd {
		// The handshake ACK was lost but this data packet carries the
		// same acknowledgment: complete the handshake from it.
		s.rxAck3(k, conn)
	}
	if conn.State == StateClosed || conn.sock == nil {
		return
	}
	s.estab.lookup(k, conn)
	if pkt.Seq <= conn.rcvdSeq {
		// Retransmitted segment already received: TCP discards it after
		// the demux, acking what it holds.
		k.Touch(conn.sock, sockHot[hotRxSeq], false)
		return
	}
	conn.rcvdSeq = pkt.Seq
	skb := k.skbAlloc()

	// Requests acknowledge outstanding data: ack processing walks the
	// transmit state the application core last wrote.
	k.Work(cost.AckProc)
	k.touchSockAck(conn)
	k.touchSockRx(conn)

	conn.rxPending = append(conn.rxPending, PendingReq{
		ReqBytes:  pkt.Bytes,
		RespBytes: int(pkt.Aux),
		skb:       skb,
	})
	if conn.State == StateAccepted {
		s.App.ConnReadable(k, conn)
	}
}

// rxAckData handles a standalone client acknowledgment (end of a think
// group: no further request is coming soon, so the client's delayed-ack
// timer fires).
func (s *Stack) rxAckData(k *K, conn *Conn) {
	if conn.State == StateClosed || conn.sock == nil {
		return
	}
	k.Work(s.Cfg.Costs.AckProc)
	s.estab.lookup(k, conn)
	if len(conn.txInflight) > 0 {
		k.touchSockAck(conn)
	}
}

// rxFin handles the client's FIN (graceful close or abort).
func (s *Stack) rxFin(k *K, conn *Conn) {
	cost := &s.Cfg.Costs
	k.Work(cost.FinExtra)
	conn.peerClosed = true

	switch conn.State {
	case StateAccepted:
		if len(conn.txInflight) > 0 {
			k.touchSockAck(conn)
		}
		k.Touch(conn.sock, sockHot[hotLock], true)
		k.Touch(conn.sock, sockHot[hotRxSeq], true)
		s.App.ConnClosed(k, conn)
	case StateQueued:
		// Client gave up while the connection sat in an accept queue;
		// accept() will discard it when it reaches the head.
		conn.aborted = true
		s.Stats.Aborts++
	case StateSynRcvd:
		if conn.reqSock != nil {
			s.reqTableFor(conn.reqTableCore).lookupRemove(k, conn, false)
			k.Free(conn.reqSock)
			conn.reqSock = nil
		}
		conn.State = StateClosed
		delete(s.liveConns, conn)
		s.Stats.ConnsClosed++
		s.Stats.Aborts++
	case StateNew:
		// SYN was dropped before any state existed.
		conn.State = StateClosed
		delete(s.liveConns, conn)
		s.Stats.ConnsClosed++
		s.Stats.Aborts++
	}
}

// deliverAt schedules a server-to-client packet arrival.
func (s *Stack) deliverAt(at sim.Time, conn *Conn, kind uint8, bytes int) {
	if s.Deliver == nil {
		return
	}
	s.Eng.At(at, func(e *sim.Engine, _ *sim.Core) {
		s.Deliver(e, conn, kind, bytes)
	})
}
