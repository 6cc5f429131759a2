// Package fabric simulates an RDMA-capable network fabric (nodes, NICs,
// links, one switch) on top of the dfi/internal/sim discrete-event kernel.
//
// It is the reference backend of dfi/internal/transport and has no verb
// surface of its own: *Cluster implements transport.Transport and *Node
// transport.Endpoint, and its queue pairs, completion queues, memory
// regions and multicast groups are reached only through the transport
// interfaces. What it exports beyond them is what only a simulator has:
// the calibrated cost model (Config), fault injection (FaultPlan), and
// per-node knobs and accounting (CPUScale, RegisteredBytes).
//
// Timing follows an analytic FIFO-server link model: each NIC has a TX and
// an RX queue with an availability time; a message reserves
// serialization time on the sender's TX queue, crosses the switch after a
// propagation + forwarding delay, and reserves serialization time on the
// receiver's RX queue (cut-through, so a single stream achieves full link
// bandwidth while incast congestion is modelled faithfully).
//
// WRITEs commit into target memory in increasing address order: the payload
// body is committed strictly before the trailing CommitTail bytes, so
// protocols that place metadata footers after the payload (as DFI does) are
// exercised against the real hazard.
package fabric

import (
	"fmt"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

var _ transport.Transport = (*Cluster)(nil)

// proc asserts the DES execution context. The fabric's blocking waits park
// on sim conds, so only *sim.Proc contexts (which satisfy transport.Ctx
// structurally) can drive them.
func proc(p transport.Ctx) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic("fabric: context is not a *sim.Proc (the DES fabric runs only under the sim kernel)")
	}
	return sp
}

// node asserts a transport endpoint back to the fabric's concrete node.
func node(ep transport.Endpoint) *Node {
	n, ok := ep.(*Node)
	if !ok {
		panic("fabric: endpoint is not a fabric node")
	}
	return n
}

// Cluster is a set of simulated nodes connected through one switch. It
// implements transport.Transport; the kernel runs one process at a time,
// so nothing in it is locked.
type Cluster struct {
	K      *sim.Kernel
	cfg    Config
	nodes  []*Node
	tracer transport.Tracer

	// Freelists for the pooled op-events of the steady-state data path.
	// They are plain slices, not sync.Pools: the kernel is single-threaded
	// so no locking is needed, and — unlike sync.Pool — a GC cycle cannot
	// empty them, which would silently reintroduce a per-WRITE allocation.
	wopFree    []*writeOp
	ropFree    []*readOp
	aopFree    []*atomicOp
	sopFree    []*sendOp
	srefFree   []*stagedRef
	stagedFree [28][]*stagedBuf // staging buffers of capacity 1<<class
}

// NewCluster creates n nodes attached to k using the given cost model.
func NewCluster(k *sim.Kernel, n int, cfg Config) *Cluster {
	c := &Cluster{K: k, cfg: cfg}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &Node{
			cluster:  c,
			id:       i,
			CPUScale: 1.0,
		})
	}
	return c
}

// Config returns the cluster's cost model.
func (c *Cluster) Config() Config { return c.cfg }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NewCond returns a condition variable parked on the sim kernel.
func (c *Cluster) NewCond() transport.Cond {
	return &simCond{c: sim.NewCond(c.K)}
}

// Spawn starts fn as a new sim process named name.
func (c *Cluster) Spawn(parent transport.Ctx, name string, fn func(transport.Ctx)) {
	proc(parent).Spawn(name, func(sp *sim.Proc) { fn(sp) })
}

// SetTracer installs a tracer on the cluster (nil disables tracing).
func (c *Cluster) SetTracer(t transport.Tracer) { c.tracer = t }

// trace reports an op to the installed tracer, if any.
func (c *Cluster) trace(kind transport.OpKind, from, to *Node, bytes int, posted, arrived time.Duration, disp transport.Disposition) {
	if c.tracer == nil {
		return
	}
	c.tracer.Trace(transport.TraceOp{
		Kind: kind, From: from.id, To: to.id, Bytes: bytes,
		Posted: posted, Arrived: arrived, Disposition: disp,
	})
}

// simCond adapts *sim.Cond to transport.Cond by pairing it with a
// broadcast counter (the kernel runs one process at a time, so the
// counter needs no lock).
type simCond struct {
	c   *sim.Cond
	seq uint64
}

func (s *simCond) Seq() uint64 { return s.seq }

func (s *simCond) Wait(p transport.Ctx, since uint64, d time.Duration) bool {
	sp := proc(p)
	deadline := sp.Now() + d
	for s.seq == since {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return false
		}
		s.c.WaitTimeout(sp, remain)
	}
	return true
}

func (s *simCond) Broadcast() {
	s.seq++
	s.c.Broadcast()
}

// Node is one simulated server: a CPU (with a speed scale for straggler
// experiments), one NIC with full-duplex TX/RX link queues, and registered
// memory. It implements transport.Endpoint and is driven only from
// processes of its cluster's kernel.
type Node struct {
	cluster *Cluster
	id      int

	// CPUScale scales compute durations: 0.5 halves the node's CPU
	// frequency (the paper's straggler setup). Network costs are
	// unaffected.
	CPUScale float64

	txFreeAt sim.Time // next instant the TX link can start serializing
	rxFreeAt sim.Time

	atomicFreeAt sim.Time // responder-side serialization of remote atomics

	memBytes int64 // registered memory (accounting, §6.1.4)

	// Cumulative serialization time reserved on the links: busy/elapsed
	// is the link utilization.
	txBusy time.Duration
	rxBusy time.Duration
}

// ID returns the node index within its cluster.
func (n *Node) ID() int { return n.id }

// Compute advances p's virtual time by d scaled by the node's CPU speed.
// All application CPU work in experiments must be charged through Compute
// so straggler scaling applies.
func (n *Node) Compute(p transport.Ctx, d time.Duration) {
	if n.CPUScale != 1.0 {
		d = time.Duration(float64(d) / n.CPUScale)
	}
	p.Sleep(d)
}

// RegisteredBytes returns the amount of memory registered on the node.
func (n *Node) RegisteredBytes() int64 { return n.memBytes }

// reserveTx reserves serialization time on the node's TX link starting no
// earlier than `from`, returning the (start, end) of the reservation. Used
// for unreliable (multicast) sends, which have no end-to-end flow control.
func (n *Node) reserveTx(from sim.Time, ser time.Duration) (sim.Time, sim.Time) {
	start := from
	if n.txFreeAt > start {
		start = n.txFreeAt
	}
	end := start + ser
	n.txFreeAt = end
	return start, end
}

// reserveRx reserves serialization time on the node's RX link.
func (n *Node) reserveRx(from sim.Time, ser time.Duration) (sim.Time, sim.Time) {
	start := from
	if n.rxFreeAt > start {
		start = n.rxFreeAt
	}
	end := start + ser
	n.rxFreeAt = end
	return start, end
}

// reservePath reserves a reliable transfer of serialization time ser from
// node `from` to node `to`, starting no earlier than `earliest`, modelling
// cut-through switching. The sender's TX link is occupied for the
// message's serialization time; delivery additionally queues on the
// receiver's RX link, so incast congestion delays *delivery* (and with it
// every consumption-based signal: ring footers, credits, completive
// two-sided receives) without head-of-line blocking the sender's other
// destinations — NICs interleave QPs, and end-to-end flow control is the
// job of the protocols above (DFI's rings and credits).
func (c *Cluster) reservePath(from, to *Node, earliest sim.Time, ser time.Duration) (txStart, txEnd, rxEnd sim.Time) {
	txStart = earliest
	if from.txFreeAt > txStart {
		txStart = from.txFreeAt
	}
	txEnd = txStart + ser
	from.txFreeAt = txEnd
	from.txBusy += ser
	hop := c.cfg.Propagation + c.cfg.SwitchDelay
	rxStart := txStart + hop
	if to.rxFreeAt > rxStart {
		rxStart = to.rxFreeAt
	}
	rxEnd = rxStart + ser
	to.rxFreeAt = rxEnd
	to.rxBusy += ser
	return txStart, txEnd, rxEnd
}

// memoryRegion is a registered memory region on one node, remotely
// accessible through queue pairs. Commit notifications wake local pollers
// (ConsumeWait-style loops) through the region's condition.
type memoryRegion struct {
	node      *Node
	buf       []byte
	cond      *sim.Cond
	commitSeq uint64
}

// OpenRegion allocates and registers size bytes on ep. The allocation is
// charged to the node's registered-memory accounting.
func (c *Cluster) OpenRegion(ep transport.Endpoint, size int) transport.Region {
	n := node(ep)
	n.memBytes += int64(size)
	return &memoryRegion{node: n, buf: make([]byte, size), cond: sim.NewCond(c.K)}
}

// Deregister releases the region's memory from the accounting.
func (mr *memoryRegion) Deregister() {
	mr.node.memBytes -= int64(len(mr.buf))
}

// Bytes exposes the region's backing memory. Local reads/writes by the
// owning node's processes are free (they model plain loads/stores).
func (mr *memoryRegion) Bytes() []byte { return mr.buf }

// Len returns the region size.
func (mr *memoryRegion) Len() int { return len(mr.buf) }

// Owner returns the owning node.
func (mr *memoryRegion) Owner() transport.Endpoint { return mr.node }

// Store copies src into the region at off. The DES kernel is
// single-threaded, so a plain copy is already synchronized with remote
// verbs; concurrent backends lock here.
func (mr *memoryRegion) Store(off int, src []byte) {
	copy(mr.buf[off:off+len(src)], src)
}

// Load copies region bytes at off into dst (see Store).
func (mr *memoryRegion) Load(off int, dst []byte) {
	copy(dst, mr.buf[off:off+len(dst)])
}

// CommitSeq returns the region's commit counter, incremented on every
// remote commit and every Notify. Pollers snapshot it before scanning and
// pass the snapshot to WaitCommit, which makes the scan-then-wait
// sequence free of lost wake-ups.
func (mr *memoryRegion) CommitSeq() uint64 { return mr.commitSeq }

// WaitCommit parks p until the commit counter passes `since` or until d
// elapses, reporting whether new commits arrived. On wake-up it charges
// the configured polling-detection granularity. Only Notify wakes the
// region's waiters, and only after counting a commit, so a woken waiter
// always returns true: the kernel runs its detection delay on the wake
// (Cond.WaitTimeoutThen) instead of resuming it just to sleep. A timeout
// that meets a commit counted at the same instant still charges the delay.
func (mr *memoryRegion) WaitCommit(p transport.Ctx, since uint64, d time.Duration) bool {
	sp := proc(p)
	detect := mr.node.cluster.cfg.DetectDelay
	if mr.commitSeq == since {
		if d <= 0 {
			return false
		}
		if mr.cond.WaitTimeoutThen(sp, d, detect) {
			return true
		}
		if mr.commitSeq == since {
			return false
		}
	}
	sp.Sleep(detect)
	return true
}

// WaitChange parks p until the next remote commit into the region, or until
// d elapses; it reports whether a commit occurred. A local memory poller
// uses this as a simulation-efficient stand-in for spinning; prefer the
// CommitSeq/WaitCommit pair when work happens between scan and wait.
func (mr *memoryRegion) WaitChange(p transport.Ctx, d time.Duration) bool {
	return mr.WaitCommit(p, mr.commitSeq, d)
}

// Notify records a commit and wakes pollers: called by the verbs when a
// remote write lands, and by the owning node's processes for a local
// store that pollers of this region must notice.
func (mr *memoryRegion) Notify() {
	mr.commitSeq++
	mr.cond.Broadcast()
}

// mrOf asserts an address's region to the fabric's concrete type.
func mrOf(a transport.Addr) *memoryRegion {
	mr, ok := a.MR.(*memoryRegion)
	if !ok {
		panic("fabric: Addr does not reference a fabric memory region")
	}
	return mr
}

// sliceOf bounds-checks and returns the n-byte window at the address.
func sliceOf(a transport.Addr, n int) []byte {
	mr := mrOf(a)
	if a.Off < 0 || a.Off+n > len(mr.buf) {
		panic(fmt.Sprintf("fabric: remote access [%d,%d) outside MR of %d bytes", a.Off, a.Off+n, len(mr.buf)))
	}
	return mr.buf[a.Off : a.Off+n]
}
