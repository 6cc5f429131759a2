package chanloop

import (
	"bytes"
	"encoding/binary"
	"sync"
	"time"

	"dfi/internal/transport"
)

// Queue is one end of a reliable in-process queue pair. The goroutine
// that posts a verb executes it, under mu, giving the RC guarantee: work
// requests on one queue execute in posting order, whatever they are, and
// their completions reach the CQ in that order.
//
// Lock order is mu, then one of the destination region's lock or the
// peer's rmu, then nothing: the CQs, the tracer and the drop counters are
// leaves, no verb waits for anything while it holds a lock, and neither
// inner lock is ever held while a mu is taken, so nothing nests both ways.
type Queue struct {
	net   *Net
	owner *Endpoint
	peer  *Queue

	scq *CQ
	rcq *CQ

	// mu is the posting order when several goroutines share the queue (a
	// sharedring link does).
	mu sync.Mutex

	// Two-sided receive state, locked because the owner posts receives
	// while the peer's posters deliver sends.
	rmu     sync.Mutex
	recvq   []transport.RecvWR
	arrived []arrival
}

type arrival struct {
	data []byte
	id   uint64
}

// Dial connects endpoints a and b with a queue pair. It starts nothing:
// a queue is two CQs and two locks, and is garbage once dropped.
func (n *Net) Dial(a, b transport.Endpoint) (transport.Queue, transport.Queue) {
	qa := &Queue{net: n, owner: asEndpoint(a), scq: newCQ(), rcq: newCQ()}
	qb := &Queue{net: n, owner: asEndpoint(b), scq: newCQ(), rcq: newCQ()}
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// SendCQ returns the queue's send-side completion queue.
func (q *Queue) SendCQ() transport.CompletionQueue { return q.scq }

// RecvCQ returns the queue's receive-side completion queue.
func (q *Queue) RecvCQ() transport.CompletionQueue { return q.rcq }

// remote returns the region a names, which must be on the peer endpoint.
func (q *Queue) remote(a transport.Addr, verb string) *Region {
	r := asRegion(a)
	if r.owner != q.peer.owner {
		panic("chanloop: " + verb + " region not on peer endpoint")
	}
	return r
}

// done traces one executed verb and, when signaled, completes it. Caller
// holds mu, so completions appear in execution order.
func (q *Queue) done(op transport.OpKind, n int, posted time.Duration, signaled bool, id uint64) {
	q.net.trace(op, q.owner.id, q.peer.owner.id, n, posted)
	if signaled {
		q.scq.push(transport.Completion{ID: id, Op: op, Bytes: n})
	}
}

// Write executes a one-sided WRITE of src into dst on the peer's region:
// src is copied straight into its destination before Write returns (the
// synchronous snapshot the selective-signaling contract allows), body
// strictly before the CommitTail bytes, in one region-lock hold.
func (q *Queue) Write(p transport.Ctx, src []byte, dst transport.Addr, opts transport.WriteOptions) {
	q.mu.Lock()
	q.write(src, dst, opts)
	q.mu.Unlock()
}

// WriteBatch executes the given WRITEs back-to-back in one hold of the
// queue lock, so no other poster's verb lands between them.
func (q *Queue) WriteBatch(p transport.Ctx, wrs []transport.WriteWR) {
	q.mu.Lock()
	for i := range wrs {
		q.write(wrs[i].Src, wrs[i].Dst, wrs[i].Opts)
	}
	q.mu.Unlock()
}

func (q *Queue) write(src []byte, dst transport.Addr, opts transport.WriteOptions) {
	r := q.remote(dst, "WRITE destination")
	posted := q.net.stamp()
	n := len(src)
	body := n - min(opts.CommitTail, n)
	r.mu.Lock()
	// A WRITE whose bytes are already there — the retransmission of a
	// segment its consumer has not released — moves none: that consumer
	// may be reading the slot without the lock (see Region), and reads do
	// not race with this compare. On fresh data the compare stops at the
	// first differing word.
	if to := r.buf[dst.Off : dst.Off+n]; !bytes.Equal(to, src) {
		// One lock hold applies body then tail: a consumer can never
		// observe the tail (footer) without the body it covers.
		copy(to[:body], src[:body])
		copy(to[body:], src[body:])
	}
	r.bumpLocked()
	r.mu.Unlock()
	q.done(transport.OpWrite, n, posted, opts.Signaled, opts.ID)
}

// Read executes a one-sided READ of len(dst) bytes from src into dst;
// dst holds them when Read returns.
func (q *Queue) Read(p transport.Ctx, dst []byte, src transport.Addr, signaled bool, id uint64) {
	r := q.remote(src, "READ source")
	q.mu.Lock()
	posted := q.net.stamp()
	r.Load(src.Off, dst)
	q.done(transport.OpRead, len(dst), posted, signaled, id)
	q.mu.Unlock()
}

// ReadSync performs a READ that produces no completion, so the send CQ is
// left exactly as it was, and returns the elapsed wall-clock time.
func (q *Queue) ReadSync(p transport.Ctx, dst []byte, src transport.Addr) time.Duration {
	start := p.Now()
	q.Read(p, dst, src, false, 0)
	return p.Now() - start
}

// FetchAdd atomically adds delta to the 8-byte counter at dst in one hold
// of the region lock — which serializes atomics across queues — and
// returns the previous value. Ordering with earlier WRITEs on this queue
// comes from mu. chanloop endpoints never crash, so ok is always true.
func (q *Queue) FetchAdd(p transport.Ctx, dst transport.Addr, delta uint64) (uint64, bool) {
	r := q.remote(dst, "atomic destination")
	q.mu.Lock()
	posted := q.net.stamp()
	r.mu.Lock()
	word := r.buf[dst.Off : dst.Off+8]
	old := binary.LittleEndian.Uint64(word)
	binary.LittleEndian.PutUint64(word, old+delta)
	r.bumpLocked()
	r.mu.Unlock()
	q.done(transport.OpFetchAdd, 8, posted, false, 0)
	q.mu.Unlock()
	return old, true
}

// Send executes a two-sided SEND of src to the peer: the bytes are in a
// posted receive buffer, or copied into the peer's arrival queue to wait
// for one (reliable semantics), when Send returns.
func (q *Queue) Send(p transport.Ctx, src []byte, signaled bool, id uint64) {
	q.mu.Lock()
	posted := q.net.stamp()
	q.peer.deliver(src, id)
	q.done(transport.OpSend, len(src), posted, signaled, id)
	q.mu.Unlock()
}

// deliver hands an arrived message to a posted receive, or queues a copy
// of it: data is the sender's buffer, the sender's again once Send has
// returned.
func (q *Queue) deliver(data []byte, sendID uint64) {
	q.rmu.Lock()
	if len(q.recvq) > 0 {
		wr := q.recvq[0]
		q.recvq = q.recvq[1:]
		q.rmu.Unlock()
		n := copy(wr.Buf, data)
		q.rcq.push(transport.Completion{ID: wr.ID, Op: transport.OpRecv, Bytes: n, Value: sendID, Buf: wr.Buf})
		return
	}
	q.arrived = append(q.arrived, arrival{data: bytes.Clone(data), id: sendID})
	q.rmu.Unlock()
}

// PostRecv posts a receive buffer; a queued early arrival is consumed
// immediately.
func (q *Queue) PostRecv(buf []byte, id uint64) {
	q.rmu.Lock()
	if len(q.arrived) > 0 {
		a := q.arrived[0]
		q.arrived = q.arrived[1:]
		q.rmu.Unlock()
		n := copy(buf, a.data)
		q.rcq.push(transport.Completion{ID: id, Op: transport.OpRecv, Bytes: n, Value: a.id, Buf: buf})
		return
	}
	q.recvq = append(q.recvq, transport.RecvWR{Buf: buf, ID: id})
	q.rmu.Unlock()
}

// PostedRecvs returns the number of posted, unconsumed receives.
func (q *Queue) PostedRecvs() int {
	q.rmu.Lock()
	defer q.rmu.Unlock()
	return len(q.recvq)
}
