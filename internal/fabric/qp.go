package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// completionQueue is a completion queue. Entries are appended by the
// fabric at completion time; processes drain them with Poll or Wait. It
// implements transport.CompletionQueue; its blocking waits park on sim
// conds, so only *sim.Proc contexts can drive them.
type completionQueue struct {
	cfg     *Config
	entries fifo[transport.Completion]
	cond    *sim.Cond
}

// newCQ creates a completion queue on the cluster.
func (c *Cluster) newCQ() *completionQueue {
	return &completionQueue{cfg: &c.cfg, cond: sim.NewCond(c.K)}
}

// push appends an entry and wakes waiters. Called from event context.
func (cq *completionQueue) push(e transport.Completion) {
	cq.entries.push(e)
	cq.cond.Broadcast()
}

// pop removes the head entry; the caller must have checked Len() > 0.
func (cq *completionQueue) pop() transport.Completion { return cq.entries.pop() }

// fifo is a head-indexed queue reused ring-style: pops advance head
// instead of reslicing, and a push into an empty queue rewinds to the
// front (a push into a full one compacts before it grows), so a
// steady push/pop cycle never reallocates.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head == len(f.items) {
		f.head = 0
		f.items = f.items[:0]
	} else if f.head > 0 && len(f.items) == cap(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	f.items = append(f.items, v)
}

// pop removes the head item; the caller must have checked len() > 0. The
// vacated slot is zeroed so it retains no reference.
func (f *fifo[T]) pop() T {
	v := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	f.head++
	return v
}

// Poll drains one completion without blocking, charging one poll cost.
func (cq *completionQueue) Poll(p transport.Ctx) (transport.Completion, bool) {
	p.Sleep(cq.cfg.PollCost)
	if cq.Len() == 0 {
		return transport.Completion{}, false
	}
	return cq.pop(), true
}

// PollBatch drains up to len(out) completions into out, charging one poll
// cost per drained entry — virtual-time-identical to a Poll loop — and
// returns the count. An empty queue costs nothing.
func (cq *completionQueue) PollBatch(p transport.Ctx, out []transport.Completion) int {
	n := 0
	for n < len(out) && cq.Len() > 0 {
		p.Sleep(cq.cfg.PollCost)
		out[n] = cq.pop()
		n++
	}
	return n
}

// Wait blocks until a completion is available and returns it. It charges
// one poll on entry and one after every wake; the kernel runs the latter
// on the wake (Cond.WaitThen) instead of resuming the waiter just to sleep.
func (cq *completionQueue) Wait(p transport.Ctx) transport.Completion {
	sp := proc(p)
	sp.Sleep(cq.cfg.PollCost)
	for cq.Len() == 0 {
		cq.cond.WaitThen(sp, cq.cfg.PollCost)
	}
	return cq.pop()
}

// WaitTimeout blocks until a completion is available or d elapses,
// reporting whether a completion was returned. Polls are charged as in
// Wait; a timed-out wait that finds a completion charges its poll itself.
func (cq *completionQueue) WaitTimeout(p transport.Ctx, d time.Duration) (transport.Completion, bool) {
	sp := proc(p)
	sp.Sleep(cq.cfg.PollCost)
	deadline := sp.Now() + d
	for cq.Len() == 0 {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return transport.Completion{}, false
		}
		if !cq.cond.WaitTimeoutThen(sp, remain, cq.cfg.PollCost) {
			if cq.Len() == 0 {
				return transport.Completion{}, false
			}
			sp.Sleep(cq.cfg.PollCost)
		}
	}
	return cq.pop(), true
}

// WaitNonEmpty blocks until the queue holds at least one completion or d
// elapses, without consuming anything. It reports whether a completion is
// available. Polls are charged as in WaitTimeout.
func (cq *completionQueue) WaitNonEmpty(p transport.Ctx, d time.Duration) bool {
	sp := proc(p)
	sp.Sleep(cq.cfg.PollCost)
	deadline := sp.Now() + d
	for cq.Len() == 0 {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return false
		}
		if !cq.cond.WaitTimeoutThen(sp, remain, cq.cfg.PollCost) {
			if cq.Len() == 0 {
				return false
			}
			sp.Sleep(cq.cfg.PollCost)
		}
	}
	return true
}

// Len returns the number of pending completions.
func (cq *completionQueue) Len() int { return cq.entries.len() }

// arrival is a two-sided message that reached a QP before a receive was
// posted (RC queues it rather than dropping). It holds a reference on the
// SEND's staging buffer until PostRecv copies it out.
type arrival struct {
	st *stagedRef
	id uint64
}

// queuePair is one endpoint of a reliable connection between two nodes.
// Verbs are issued by processes running on the owner node; peer is the
// other endpoint. It implements transport.Queue.
type queuePair struct {
	c     *Cluster
	owner *Node
	peer  *queuePair

	scq *completionQueue // send-side completions (WRITE/READ/SEND/atomics)
	rcq *completionQueue // receive-side completions (matched RECVs)

	recvq   fifo[transport.RecvWR]
	arrived fifo[arrival]

	// RC connections never reorder: fault-injected delay and jitter shift
	// deliveries but must preserve this QP's wire order. lastCommit is the
	// latest scheduled WRITE commit, lastArrive the latest scheduled SEND
	// delivery; later operations are clamped behind them.
	lastCommit sim.Time
	lastArrive sim.Time
}

// Dial connects endpoints a and b with a reliable connection and returns
// the two queue ends, a's first.
func (c *Cluster) Dial(a, b transport.Endpoint) (transport.Queue, transport.Queue) {
	qa := &queuePair{c: c, owner: node(a), scq: c.newCQ(), rcq: c.newCQ()}
	qb := &queuePair{c: c, owner: node(b), scq: c.newCQ(), rcq: c.newCQ()}
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// SendCQ returns the endpoint's send completion queue.
func (q *queuePair) SendCQ() transport.CompletionQueue { return q.scq }

// RecvCQ returns the endpoint's receive completion queue.
func (q *queuePair) RecvCQ() transport.CompletionQueue { return q.rcq }

// PostedRecvs returns the number of posted, unmatched receive buffers.
func (q *queuePair) PostedRecvs() int { return q.recvq.len() }

// Write posts a one-sided RDMA WRITE of src into dst on the peer node. It
// returns after the posting cost; the transfer proceeds asynchronously.
// The source buffer must not be modified until a signaled completion for
// this or a later WR on the same QP has been observed (exactly the
// selective-signaling contract real verbs impose): the commit copies the
// bytes straight out of src, so a caller that reuses it early delivers
// what it wrote there, as a real NIC still DMA-reading the buffer would.
func (q *queuePair) Write(p transport.Ctx, src []byte, dst transport.Addr, opts transport.WriteOptions) {
	q.writeOne(p, src, dst, opts, nil)
}

// WriteBatch posts the given WRITEs back-to-back with a single doorbell
// ring. Virtual timing, fault injection, RC ordering clamps and statistics
// are identical to posting each WR with Write in order. Unlike Write, the
// sources are snapshotted into one pooled buffer at post time, so a batch
// never reads its callers' buffers again: a retransmission may rewrite
// segments whose local slot is refilled before the batch completes.
//
// Per-WR CommitTail is honored: each WR's tail bytes still commit strictly
// last within that WR's address range, so footer-after-payload ordering is
// preserved across a coalesced run of ring-segment writes.
func (q *queuePair) WriteBatch(p transport.Ctx, wrs []transport.WriteWR) {
	if len(wrs) == 0 {
		return
	}
	total := 0
	for i := range wrs {
		total += len(wrs[i].Src)
	}
	st := q.c.stagedRefGet(len(wrs))
	st.buf = q.c.stagedGet(total)
	off := 0
	for i := range wrs {
		n := copy(st.buf.b[off:], wrs[i].Src)
		q.writeOne(p, st.buf.b[off:off+n], wrs[i].Dst, wrs[i].Opts, st)
		off += n
	}
}

// writeOne implements Write and WriteBatch. A Write's commits copy
// straight from src, except that one whose commit a fault delays or
// duplicates snapshots src at post into a staging buffer of its own (a
// duplicate commits after the WR completed, when the caller may lawfully
// have reused src). A WriteBatch WR's src is its part of the batch's
// post-time snapshot, which batch holds. Each WR holds one reference on
// its staging buffer per commit it schedules (two when duplicated), or
// releases it at once if the WR is fault-dropped.
func (q *queuePair) writeOne(p transport.Ctx, src []byte, dst transport.Addr, opts transport.WriteOptions, batch *stagedRef) {
	cfg := &q.c.cfg
	mr := mrOf(dst)
	if mr.node != q.peer.owner {
		panic("fabric: WRITE destination MR not on peer node")
	}
	sliceOf(dst, len(src)) // bounds-check now
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	ser := cfg.serialization(len(src))
	startup := cfg.NICStartup
	if len(src) <= cfg.InlineThreshold && cfg.InlineSaving < startup {
		startup -= cfg.InlineSaving
	}
	_, txEnd, rxEnd := q.c.reservePath(q.owner, q.peer.owner, k.Now()+startup, ser)

	fv := q.c.fault(transport.OpWrite, q.owner, q.peer.owner, rxEnd)
	deliverAt := rxEnd + fv.delay

	// Payload body commits just before the tail; tail commits last.
	tail := opts.CommitTail
	if tail > len(src) {
		tail = len(src)
	}
	body := len(src) - tail

	// RC connections deliver WRITEs in posting order: fault delay may push
	// a write later, but it must never let its stores interleave with (or
	// precede) those of an earlier write on the same QP — otherwise a
	// jitter-delayed retransmission overtaken by a later lap could leave
	// one segment's payload under another's footer. Clamp this write's
	// whole commit window (body included) behind the previous tail.
	if !fv.drop {
		earliest := deliverAt
		if tail > 0 && body > 0 {
			earliest -= cfg.serialization(tail)
		}
		if earliest <= q.lastCommit {
			deliverAt += q.lastCommit + 1 - earliest
		}
	}

	disp := transport.Delivered
	if fv.drop {
		disp = transport.Dropped
	}
	q.c.trace(transport.OpWrite, q.owner, q.peer.owner, len(src), k.Now(), deliverAt, disp)

	// RC semantics: the completion is generated once the responder's ACK
	// returns, i.e. after remote delivery plus the return hop. A
	// probabilistically dropped WRITE still completes — the loss is
	// modelled above the reliability layer (see fault.go); only crashed
	// endpoints suppress completions.
	signaled := opts.Signaled && !fv.dropCompletion
	ackAt := deliverAt + cfg.Propagation + cfg.SwitchDelay + cfg.CompletionDelay
	if fv.drop {
		// No commit will read the staging buffer: drop this WR's reference.
		if batch != nil {
			batch.release(q.c)
		}
		if !signaled {
			return
		}
	}

	// The whole body/commit/ack pipeline — a duplicate's second body and
	// commit included — rides one pooled op, so posting a WRITE allocates
	// nothing.
	w := q.c.getWriteOp()
	w.q, w.mr = q, mr
	w.dstOff = dst.Off
	w.n, w.body, w.tail = len(src), body, tail
	w.id = opts.ID
	if fv.drop {
		w.at(ackAt, wopAck)
		return
	}
	w.src, w.st = src, batch
	if batch == nil && (fv.duplicate || deliverAt > rxEnd) {
		w.st = q.c.stagedRefGet(1)
		w.st.buf = q.c.stagedGet(len(src))
		w.src = w.st.buf.b[:copy(w.st.buf.b, src)]
	} else if batch == nil && dfidebug {
		w.want = append(w.want[:0], src...)
		runtime.Callers(3, w.site[:])
	}
	w.commit(deliverAt, txEnd)
	q.lastCommit = deliverAt
	if fv.duplicate {
		w.st.refs++
		dupAt := deliverAt + cfg.Faults.dupDelay()
		if tail > 0 && body > 0 && dupAt-cfg.serialization(tail) <= q.lastCommit {
			dupAt = q.lastCommit + cfg.serialization(tail) + 1
		}
		q.c.trace(transport.OpWrite, q.owner, q.peer.owner, len(src), k.Now(), dupAt, transport.Injected)
		w.commit(dupAt, txEnd)
		q.lastCommit = dupAt
	}
	if signaled {
		w.at(ackAt, wopAck)
	}
}

// writeOp is the pooled event payload driving the WRITE pipeline (see
// writeOne). Steps fire in scheduler context via sim.Op.
type writeOp struct {
	q   *queuePair
	mr  *memoryRegion
	src []byte     // the bytes each commit copies
	st  *stagedRef // holds src when it is a snapshot; nil when it is the caller's

	// dfidebug: a caller's src as it was at post, and who posted it.
	want []byte
	site [1]uintptr

	dstOff        int
	n, body, tail int
	id            uint64
	pending       int // scheduled steps not yet run; the last one recycles w
}

// writeOp pipeline steps (scheduled through Kernel.AtOp).
const (
	wopBody   uint64 = iota // commit the payload body (bodyAt, when a tail follows)
	wopCommit               // commit tail/body, Notify, release staging (deliverAt)
	wopAck                  // push the signaled completion (ackAt)
)

// at schedules step of w at t.
func (w *writeOp) at(t sim.Time, step uint64) {
	w.pending++
	w.q.c.K.AtOp(t, w, step)
}

// commit schedules one remote commit of src with delivery finishing at t:
// the body strictly before the tail, as the NIC's increasing-address DMA
// order demands (fault delay shifts both), and never before the NIC
// finished reading the source at txEnd.
func (w *writeOp) commit(t, txEnd sim.Time) {
	if w.tail > 0 && w.body > 0 {
		bodyAt := t - w.q.c.cfg.serialization(w.tail)
		if bodyAt <= txEnd {
			bodyAt = txEnd + 1
		}
		w.at(bodyAt, wopBody)
	}
	w.at(t, wopCommit)
}

func (w *writeOp) RunOp(step uint64) {
	switch step {
	case wopBody:
		w.checkSource(0, w.body)
		copy(w.mr.buf[w.dstOff:w.dstOff+w.body], w.src[:w.body])
	case wopCommit:
		from := 0
		if w.tail > 0 {
			from = w.body // committed by wopBody
		}
		w.checkSource(from, w.n)
		copy(w.mr.buf[w.dstOff+from:w.dstOff+w.n], w.src[from:w.n])
		w.mr.Notify()
		if w.st != nil {
			w.st.release(w.q.c)
		}
	case wopAck:
		w.q.scq.push(transport.Completion{ID: w.id, Op: transport.OpWrite, Bytes: w.n})
	}
	if w.pending--; w.pending == 0 {
		putWriteOp(w)
	}
}

// reuseAllowed names the posting functions that reuse a WRITE source
// early on purpose, to show the hazard.
var reuseAllowed = map[string]bool{}

// checkSource is the dfidebug invariant of the verbs contract a Write's
// commit relies on: a caller's source must hold its post-time bytes until
// a signaled completion covers the WR. It panics, naming the call site
// that posted the WR, when src[from:to] has changed; a snapshot (want
// empty) cannot change.
func (w *writeOp) checkSource(from, to int) {
	if !dfidebug || len(w.want) == 0 || bytes.Equal(w.src[from:to], w.want[from:to]) {
		return
	}
	if f, _ := runtime.CallersFrames(w.site[:]).Next(); !reuseAllowed[f.Function] {
		panic(fmt.Sprintf("fabric: WRITE posted by %s (%s:%d) changed bytes %d–%d of its source before they committed: reused before a signaled completion covered it",
			f.Function, f.File, f.Line, from, to))
	}
}

func (c *Cluster) getWriteOp() *writeOp {
	if n := len(c.wopFree); n > 0 {
		w := c.wopFree[n-1]
		c.wopFree[n-1] = nil
		c.wopFree = c.wopFree[:n-1]
		return w
	}
	return new(writeOp)
}

func putWriteOp(w *writeOp) {
	c := w.q.c
	*w = writeOp{want: w.want[:0]}
	c.wopFree = append(c.wopFree, w)
}

// Read posts a one-sided RDMA READ of len(dst) bytes from src on the peer
// node into dst, returning after the posting cost. A signaled completion
// indicates dst holds the data.
//
// Small reads (≤ controlBytes) travel on the control lane: like
// InfiniBand's service levels, they bypass the bulk-data FIFO so a footer
// probe or credit refresh is not queued behind megabytes of in-flight
// segments. Their (negligible) bytes still count toward the statistics.
func (q *queuePair) Read(p transport.Ctx, dst []byte, src transport.Addr, signaled bool, id uint64) {
	q.read(p, dst, src, signaled, id, false)
}

// read implements Read. With sync set the response produces no completion:
// it marks the returned op done and wakes the send CQ's waiters instead,
// and the caller (ReadSync) recycles the op.
func (q *queuePair) read(p transport.Ctx, dst []byte, src transport.Addr, signaled bool, id uint64, sync bool) *readOp {
	cfg := &q.c.cfg
	if mrOf(src).node != q.peer.owner {
		panic("fabric: READ source MR not on peer node")
	}
	sliceOf(src, len(dst))
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	const reqBytes = 16
	serReq := cfg.serialization(reqBytes)
	serResp := cfg.serialization(len(dst))
	var respStart, rxEnd sim.Time
	if len(dst) <= controlBytes {
		hop := cfg.Propagation + cfg.SwitchDelay
		reqRxEnd := k.Now() + cfg.NICStartup + serReq + hop
		respStart = reqRxEnd + cfg.NICStartup
		rxEnd = respStart + serResp + hop
	} else {
		var reqRxEnd sim.Time
		_, _, reqRxEnd = q.c.reservePath(q.owner, q.peer.owner, k.Now()+cfg.NICStartup, serReq)
		// Response: remote NIC DMA-reads memory and serializes on its TX link.
		respStart, _, rxEnd = q.c.reservePath(q.peer.owner, q.owner, reqRxEnd+cfg.NICStartup, serResp)
	}

	fv := q.c.fault(transport.OpRead, q.owner, q.peer.owner, rxEnd)
	if sync && fv.drop && !fv.dropCompletion {
		// ReadSync has no timeout to recover a lost response with: like an
		// RC SEND or an atomic, the NIC retries the READ, and the loss
		// surfaces as one extra round trip. Only a crashed endpoint loses it.
		retry := serReq + serResp + 2*(cfg.Propagation+cfg.SwitchDelay)
		respStart += retry
		rxEnd += retry
		fv.drop = false
	}
	deliverAt := rxEnd + fv.delay

	disp := transport.Delivered
	if fv.drop {
		disp = transport.Dropped
	}
	q.c.trace(transport.OpRead, q.owner, q.peer.owner, len(dst), k.Now(), deliverAt, disp)

	r := q.c.getReadOp()
	r.q, r.dst, r.src = q, dst, sliceOf(src, len(dst))
	r.id, r.signaled, r.sync = id, signaled, sync
	// A dropped async READ loses the response, and with it the
	// completion: the caller must recover with a timed wait and reissue.
	if fv.drop {
		if !sync {
			putReadOp(r)
		}
		return r
	}
	k.AtOp(respStart, r, ropStage)
	k.AtOp(deliverAt, r, ropDeliver)
	return r
}

// readOp is the pooled event payload driving the READ response pipeline:
// the remote NIC snapshots the source at respStart, and the response
// lands (data copy, completion) at deliverAt.
type readOp struct {
	q        *queuePair
	dst, src []byte
	staged   *stagedBuf
	id       uint64
	signaled bool
	sync     bool // ReadSync: no completion, set done and wake its waiter
	done     bool
}

const (
	ropStage   uint64 = iota // snapshot the remote source (respStart)
	ropDeliver               // deliver the response into dst (deliverAt)
)

func (r *readOp) RunOp(step uint64) {
	if step == ropStage {
		r.staged = r.q.c.stagedGet(len(r.dst))
		copy(r.staged.b, r.src)
		return
	}
	copy(r.dst, r.staged.b)
	r.q.c.stagedPut(r.staged)
	if r.sync {
		r.done = true
		r.q.scq.cond.Broadcast()
		return
	}
	if r.signaled {
		r.q.scq.push(transport.Completion{ID: r.id, Op: transport.OpRead, Bytes: len(r.dst)})
	}
	putReadOp(r)
}

func (c *Cluster) getReadOp() *readOp {
	if n := len(c.ropFree); n > 0 {
		r := c.ropFree[n-1]
		c.ropFree[n-1] = nil
		c.ropFree = c.ropFree[:n-1]
		return r
	}
	return new(readOp)
}

func putReadOp(r *readOp) {
	c := r.q.c
	*r = readOp{}
	c.ropFree = append(c.ropFree, r)
}

// ReadSync performs a READ and blocks until the response has landed in
// dst, returning the round-trip time. It produces no completion of its own
// and takes none off the send CQ, so signaled WRs posted around it drain in
// posting order. A probabilistically dropped response is retried by the
// transport and costs one extra round trip (this form has no timeout to
// recover a lost one with); the response from a crashed endpoint never
// arrives. Every wake charges a poll, run by the kernel on the wake
// (Cond.WaitThen).
func (q *queuePair) ReadSync(p transport.Ctx, dst []byte, src transport.Addr) time.Duration {
	sp := proc(p)
	start := sp.Now()
	r := q.read(p, dst, src, false, 0, true)
	sp.Sleep(q.c.cfg.PollCost)
	for !r.done {
		q.scq.cond.WaitThen(sp, q.c.cfg.PollCost)
	}
	putReadOp(r)
	return sp.Now() - start
}

// FetchAdd atomically adds delta to the 8-byte counter at dst on the peer
// node and returns the previous value. It blocks the caller for the full
// round trip (the paper's tuple sequencer uses it synchronously): the
// request rides the control lane to the responder NIC, which executes
// atomics one at a time, and the response wakes the caller. Remote
// atomics to the same NIC serialize, which models sequencer contention.
// ok is false when the atomic could not execute because an endpoint is
// crashed (the QP would surface an error completion), so a caller can
// tell "previous value was 0" from "sequencer node is dead".
func (q *queuePair) FetchAdd(p transport.Ctx, dst transport.Addr, delta uint64) (uint64, bool) {
	cfg := &q.c.cfg
	mr := mrOf(dst)
	if mr.node != q.peer.owner {
		panic("fabric: atomic destination MR not on peer node")
	}
	word := sliceOf(dst, 8)
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	const atomicBytes = 16
	ser := cfg.serialization(atomicBytes)
	hop := cfg.Propagation + cfg.SwitchDelay
	arrive := k.Now() + cfg.NICStartup + ser + hop // control lane

	fv := q.c.fault(transport.OpFetchAdd, q.owner, q.peer.owner, arrive)
	if fv.dropCompletion {
		// One endpoint is crashed: the atomic never executes. Model the
		// QP error completion as a fixed stall returning zero.
		q.c.trace(transport.OpFetchAdd, q.owner, q.peer.owner, 8, k.Now(), k.Now()+crashAtomicPenalty, transport.Dropped)
		p.Sleep(crashAtomicPenalty)
		return 0, false
	}
	arrive += fv.delay

	// Serialize concurrent atomics at the responder NIC.
	execStart := arrive
	if q.peer.owner.atomicFreeAt > execStart {
		execStart = q.peer.owner.atomicFreeAt
	}
	execEnd := execStart + cfg.AtomicRemoteCost
	q.peer.owner.atomicFreeAt = execEnd

	arriveResp := execEnd + ser + hop // control lane
	if fv.drop {
		// "Dropped" atomics are transport retries: the op executes exactly
		// once, the caller just pays an extra round trip for the redo.
		arriveResp += ser + hop + ser + hop
	}

	q.c.trace(transport.OpFetchAdd, q.owner, q.peer.owner, 8, k.Now(), execEnd, transport.Delivered)
	ao := q.c.getAtomicOp()
	ao.mr, ao.word, ao.delta = mr, word, delta
	k.AtOp(execEnd, ao, aopExec)
	k.AtOp(arriveResp, ao, aopWake)
	ao.done.Wait(proc(p))
	old := ao.old
	q.c.putAtomicOp(ao)
	return old, true
}

// atomicOp is the pooled event payload of one remote fetch-and-add: the
// responder executes it at execEnd, the response wakes the caller — the
// only waiter done ever has — at arriveResp.
type atomicOp struct {
	mr    *memoryRegion
	word  []byte
	delta uint64
	old   uint64
	done  *sim.Cond
}

const (
	aopExec uint64 = iota // read-modify-write at the responder (execEnd)
	aopWake               // the response is back (arriveResp)
)

func (ao *atomicOp) RunOp(step uint64) {
	if step == aopWake {
		ao.done.Broadcast()
		return
	}
	ao.old = binary.LittleEndian.Uint64(ao.word)
	binary.LittleEndian.PutUint64(ao.word, ao.old+ao.delta)
	ao.mr.Notify()
}

func (c *Cluster) getAtomicOp() *atomicOp {
	if n := len(c.aopFree); n > 0 {
		ao := c.aopFree[n-1]
		c.aopFree[n-1] = nil
		c.aopFree = c.aopFree[:n-1]
		return ao
	}
	return &atomicOp{done: sim.NewCond(c.K)}
}

func (c *Cluster) putAtomicOp(ao *atomicOp) {
	ao.mr, ao.word = nil, nil
	c.aopFree = append(c.aopFree, ao)
}

// PostRecv posts a receive buffer for two-sided communication. If a
// message already arrived unmatched (RC queues them), it is delivered
// immediately.
func (q *queuePair) PostRecv(buf []byte, id uint64) {
	if q.arrived.len() > 0 {
		a := q.arrived.pop()
		n := copy(buf, a.st.bytes())
		a.st.release(q.c)
		q.rcq.push(transport.Completion{ID: id, Op: transport.OpRecv, Bytes: n, Value: a.id, Buf: buf})
		return
	}
	q.recvq.push(transport.RecvWR{Buf: buf, ID: id})
}

// Send posts a two-sided SEND of src to the peer endpoint. The message is
// delivered into the peer's next posted receive buffer; with reliable
// connections an early message waits for a receive to be posted.
func (q *queuePair) Send(p transport.Ctx, src []byte, signaled bool, id uint64) {
	cfg := &q.c.cfg
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	ser := cfg.serialization(len(src))
	startup := cfg.NICStartup
	if len(src) <= cfg.InlineThreshold && cfg.InlineSaving < startup {
		startup -= cfg.InlineSaving
	}
	_, txEnd, rxEnd := q.c.reservePath(q.owner, q.peer.owner, k.Now()+startup, ser)

	fv := q.c.fault(transport.OpSend, q.owner, q.peer.owner, rxEnd)
	deliverAt := rxEnd + fv.delay
	if fv.drop && !fv.dropCompletion {
		// RC queue pairs are hardware-reliable: a lost SEND packet is
		// retransmitted by the NIC and surfaces as extra latency, not as
		// message loss. Only UD multicast (multicastGroup.Send) and
		// crashed endpoints genuinely lose SENDs.
		deliverAt += ser + 2*(cfg.Propagation+cfg.SwitchDelay)
		fv.drop = false
	}
	// RC SENDs arrive in posting order (see the WRITE ordering clamp).
	if !fv.drop && deliverAt <= q.lastArrive {
		deliverAt = q.lastArrive + 1
	}

	disp := transport.Delivered
	if fv.drop {
		disp = transport.Dropped
	}
	q.c.trace(transport.OpSend, q.owner, q.peer.owner, len(src), k.Now(), deliverAt, disp)

	o := q.c.getSendOp()
	o.q, o.src, o.id, o.n = q, src, id, len(src)
	o.at(txEnd, sopStage)
	if !fv.drop {
		o.deliveries++
		o.at(deliverAt, sopDeliver)
		q.lastArrive = deliverAt
		if fv.duplicate {
			dupAt := deliverAt + q.c.cfg.Faults.dupDelay()
			q.c.trace(transport.OpSend, q.owner, q.peer.owner, len(src), k.Now(), dupAt, transport.Injected)
			o.deliveries++
			o.at(dupAt, sopDeliver)
			q.lastArrive = dupAt
		}
	}
	if signaled && !fv.dropCompletion {
		// Like WRITE: a probabilistically dropped SEND still completes
		// locally; only crashed endpoints go silent.
		ackAt := deliverAt + cfg.Propagation + cfg.SwitchDelay + cfg.CompletionDelay
		o.at(ackAt, sopAck)
	}
}

// sendOp is the pooled event payload of one SEND: the NIC snapshots src
// into a staging buffer at txEnd, the message lands in the peer's next
// posted receive (or queues as an arrival) at each delivery — a second
// one for an injected duplicate — and a signaled SEND completes at ackAt.
// Each delivery holds one reference on the staging buffer; the posted
// receive or PostRecv that copies it out releases it.
type sendOp struct {
	q          *queuePair
	src        []byte
	st         *stagedRef
	id         uint64
	n          int
	deliveries int // scheduled deliveries, each one staging reference
	pending    int // scheduled steps not yet run; the last one recycles o
}

// sendOp pipeline steps (scheduled through Kernel.AtOp).
const (
	sopStage   uint64 = iota // snapshot src into the staging buffer (txEnd)
	sopDeliver               // match a posted receive or queue an arrival
	sopAck                   // push the signaled completion (ackAt)
)

// at schedules step of o at t.
func (o *sendOp) at(t sim.Time, step uint64) {
	o.pending++
	o.q.c.K.AtOp(t, o, step)
}

func (o *sendOp) RunOp(step uint64) {
	c := o.q.c
	switch step {
	case sopStage:
		if o.deliveries > 0 {
			o.st = c.stagedRefGet(o.deliveries)
			if len(o.src) > 0 {
				o.st.buf = c.stagedGet(len(o.src))
				copy(o.st.buf.b, o.src)
			}
		}
		o.src = nil
	case sopDeliver:
		peer := o.q.peer
		if peer.recvq.len() > 0 {
			wr := peer.recvq.pop()
			n := copy(wr.Buf, o.st.bytes())
			o.st.release(c)
			peer.rcq.push(transport.Completion{ID: wr.ID, Op: transport.OpRecv, Bytes: n, Value: o.id, Buf: wr.Buf})
		} else {
			peer.arrived.push(arrival{st: o.st, id: o.id})
		}
	case sopAck:
		o.q.scq.push(transport.Completion{ID: o.id, Op: transport.OpSend, Bytes: o.n})
	}
	if o.pending--; o.pending == 0 {
		*o = sendOp{}
		c.sopFree = append(c.sopFree, o)
	}
}

func (c *Cluster) getSendOp() *sendOp {
	if n := len(c.sopFree); n > 0 {
		o := c.sopFree[n-1]
		c.sopFree[n-1] = nil
		c.sopFree = c.sopFree[:n-1]
		return o
	}
	return new(sendOp)
}
