package tcp

import (
	"affinityaccept/internal/core"
	"affinityaccept/internal/mem"
	"affinityaccept/internal/sim"
)

// ConnState tracks a server-side connection through its life.
type ConnState int

const (
	StateNew      ConnState = iota // created client-side, SYN not yet processed
	StateSynRcvd                   // request sock exists, SYN-ACK sent
	StateQueued                    // handshake done, waiting in an accept queue
	StateAccepted                  // owned by an application thread
	StateClosed
)

// PendingReq is one HTTP request queued on a connection awaiting read().
type PendingReq struct {
	ReqBytes  int
	RespBytes int
	skb       *mem.Object
}

// Conn is the server-side state of one TCP connection: the coherence
// shadows of its kernel objects plus simulation bookkeeping.
type Conn struct {
	Key   core.FlowKey
	State ConnState

	// SoftirqCore is where the NIC currently delivers this flow's
	// packets (its flow group's ring). Updated on flow-group migration.
	SoftirqCore int
	// AppCore is the core whose application thread accepted the
	// connection (-1 until accepted). Equal to SoftirqCore under
	// Affinity-Accept in the steady state; that equality is the paper.
	AppCore int

	sock    *mem.Object // tcp_sock (allocated at ACK3 on the softirq core)
	reqSock *mem.Object // tcp_request_sock between SYN and accept
	fd      *mem.Object // socket_fd, allocated at accept on the app core
	wqMeta  *mem.Object // slab:size-1024 write-queue bookkeeping
	sk192   *mem.Object // slab:size-192 sock_alloc glue

	// rxPending holds requests delivered but not yet read().
	rxPending []PendingReq
	// txInflight holds response skbs awaiting client acknowledgment.
	txInflight []*mem.Object

	// twentyCount counts transmitted packets for the Twenty-Policy
	// driver's every-20th FDir update.
	twentyCount int

	// reqTableCore records which core's request table holds the request
	// socket (meaningful in the per-core request-table ablation).
	reqTableCore int

	// rcvdSeq is the highest request serial received; retransmitted
	// segments at or below it are discarded, as TCP sequence numbers
	// would arrange.
	rcvdSeq uint32

	// rfsCore is the software-RFS steering entry: the core that last
	// called sendmsg() on this connection (-1 until trained).
	rfsCore int

	// peerClosed is set when the client's FIN (or abort) arrives.
	peerClosed bool
	aborted    bool

	// AppData is the owning application's per-connection state.
	AppData interface{}
	// ClientData is the workload generator's per-connection state.
	ClientData interface{}

	// estabBucket caches the established-table bucket index.
	estabBucket uint32

	acceptedAt sim.Time
}

// Readable reports whether read() would return data.
func (c *Conn) Readable() bool { return len(c.rxPending) > 0 }

// PeerClosed reports whether the client has closed or aborted.
func (c *Conn) PeerClosed() bool { return c.peerClosed }

// Local reports whether the connection is currently being processed on
// the same core that receives its packets — the paper's definition of
// connection affinity.
func (c *Conn) Local() bool { return c.AppCore == c.SoftirqCore }

// Packet kinds on the simulated wire.
const (
	PktSYN uint8 = iota
	PktSYNACK
	PktACK3    // final handshake ack (client -> server)
	PktREQ     // HTTP request, also acks outstanding data
	PktRESP    // HTTP response (server -> client)
	PktACKData // standalone client ack of response data
	PktFIN     // client close (or abort)
	PktRST     // server refused/aborted the connection (overflow)
)
