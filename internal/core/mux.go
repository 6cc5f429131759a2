package core

import (
	"fmt"
	"time"

	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// Shared-ring flows (Options.SharedRings): the connection-scaling ring
// kind. Instead of a private ring per (source, target) pair — whose
// memory and queue-pair count grow with the product of endpoints — every
// shared flow between two nodes multiplexes over one fixed-size ring
// owned by the transport's sharedring.Pool. Nothing here is an endpoint:
// Source and Target run the same engine over either ring kind
// (membership, re-routing, phased close, failure detection, the tuple
// iterator). This file is only what a shared ring does differently once
// per segment — sharedTx ships a source leg's filled staging segment as
// one flow-tagged stream send, sharedFeed demultiplexes a target's
// per-source tags off the shared receivers. Per-flow credit accounting
// (weighted by Options.TenantWeight) keeps one hot flow from starving
// its ring neighbors.
//
// Failure model (docs/PROTOCOL.md, "Connection scaling"): a shared ring
// has no per-flow retransmit window and no delivery confirmation. On an
// eviction the source re-routes its *staged* (unsent) tuples over the
// survivors, but segments already in flight on the shared ring are lost
// — at-most-once across the eviction, versus the private ring's
// at-least-once harvest. A crashed peer node condemns the whole ring:
// every co-resident flow on that node pair breaks together.

// sharedTargetInfo is the marker a shared-ring target publishes in place
// of ring-buffer coordinates: sources only need to know the slot is
// attached on a shared ring (and observe evictions through
// WaitTargetLive) — the ring itself is the pool's, keyed by node pair.
type sharedTargetInfo struct{}

// streamKey names one flow-tagged stream: both halves derive the same
// key, so they resolve the same 24-bit tag without coordination.
func streamKey(flow string, srcSlot, tgtSlot int) string {
	return fmt.Sprintf("%s/%d/%d", flow, srcSlot, tgtSlot)
}

// sharedTx is the shared-ring leg: one sharedring.Stream to one target
// slot. The embedded leg's buf is a plain staging segment, reused for
// every send (sharedring mirrors the payload per slot).
type sharedTx struct {
	leg
	st   *sharedring.Stream
	flow string
}

// newSharedTx opens source s's stream to target slot i over the pool's
// ring between their nodes.
func newSharedTx(s *Source, i int) (*sharedTx, error) {
	o := &s.spec.Options
	x := &sharedTx{
		leg:  leg{buf: make([]byte, o.SegmentSize), segSize: o.SegmentSize},
		flow: s.spec.Name,
	}
	x.tx = x
	// A send blocked on credits gives up once the target is evicted, and
	// sendErr turns that into the engine's harvest-and-re-route cue.
	st, err := s.meta.pool.OpenStream(s.node, s.spec.Targets[i].Node,
		streamKey(s.spec.Name, s.idx, i), o.Tenant, o.TenantWeight,
		func() bool { return x.checkAbort() != nil })
	if err != nil {
		return nil, err
	}
	x.st = st
	return x, nil
}

// sendErr classifies a failed stream send: an evicted target is the
// engine's cue to harvest and re-route; anything else broke the flow.
func (x *sharedTx) sendErr(err error) error {
	if err == nil {
		return nil
	}
	if x.checkAbort() != nil {
		return errEvicted
	}
	return fmt.Errorf("%w: shared-ring send to target %d of flow %q: %v", ErrFlowBroken, x.slot, x.flow, err)
}

// flush ships the staged segment as one stream send.
func (x *sharedTx) flush(p transport.Ctx) error {
	if x.fill == 0 {
		return nil
	}
	if err := x.sendErr(x.st.Send(p, x.buf[:x.fill], false)); err != nil {
		return err
	}
	x.segsWritten.Add(1)
	x.payloadBytes.Add(uint64(x.fill))
	x.fill = 0
	return nil
}

// finish is flush: a shared ring has no delivery confirmation to wait
// for. Neither half of a close looks for an eviction the source has not
// folded in yet before sending: what it sends to an evicted target is
// within the documented loss window, and the arrival is what tells a
// still-running evicted target to look at the membership and stop.
func (x *sharedTx) finish(p transport.Ctx) error { return x.flush(p) }

// end sends the stream's end marker and retires its credit weight.
func (x *sharedTx) end(p transport.Ctx) error {
	if x.closed {
		return nil
	}
	x.closed = true
	return x.sendErr(x.st.Close(p))
}

// harvest abandons the stream — its credits refund when the receiver
// drops the tag — and returns nothing: segments already sent are on the
// shared ring, not here, and are lost with the target.
func (x *sharedTx) harvest(int) [][]byte {
	x.st.Abandon()
	return nil
}

// free abandons a stream the close path never ended (error exits), so
// its in-flight slots still refund once the receiver drops the tag.
func (x *sharedTx) free() {
	if !x.closed {
		x.st.Abandon()
	}
}

// sharedFeed is the shared-ring kind on the consuming side: one receiver
// handle and flow tag per source slot, demultiplexed off the shared
// per-node-pair rings. The pool owns the ring regions.
type sharedFeed struct {
	t    *Target
	rcv  []*sharedring.Receiver
	tags []uint32
}

// openSharedFeed wires one receiver+tag per source and returns the
// attachment marker to publish once the lease is held.
func (t *Target) openSharedFeed() *sharedTargetInfo {
	f := &sharedFeed{t: t}
	for i, src := range t.spec.Sources {
		f.rcv = append(f.rcv, t.meta.pool.Receiver(src.Node, t.node))
		f.tags = append(f.tags, t.meta.pool.Tag(streamKey(t.spec.Name, i, t.idx)))
		t.readers = append(t.readers, &ringReader{})
	}
	t.feed = f
	return &sharedTargetInfo{}
}

// scan polls the open sources' tags round-robin, subdividing the poll
// budget across them (each Recv may park for its share). A segment's
// Data belongs to the link and is recycled by the next Recv on its tag,
// which the engine issues only after the segment is drained — the same
// lifetime Consume documents for a private ring's slot.
func (f *sharedFeed) scan(p transport.Ctx) ([]byte, bool) {
	t := f.t
	if t.syncMembership() {
		return nil, false
	}
	n := t.live
	open := 0
	for _, r := range t.readers[:n] {
		if !r.closed {
			open++
		}
	}
	if open == 0 {
		return nil, false
	}
	budget := pollTimeout / time.Duration(open)
	for range t.readers[:n] {
		i := t.cur
		t.cur = (t.cur + 1) % n
		r := t.readers[i]
		if r.closed {
			continue
		}
		seg, status := f.rcv[i].Recv(p, f.tags[i], budget)
		switch status {
		case sharedring.RecvSeg:
			r.heard(p.Now())
			if seg.Fill == 0 {
				continue // bare end marker rides a zero-fill segment
			}
			r.consumed.Add(1)
			t.charge(p, seg.Data)
			return seg.Data, true
		case sharedring.RecvEnd, sharedring.RecvDropped:
			r.closed = true
		}
	}
	return nil, false
}

// drop stops staging source i's tag, so slots nobody will drain cannot
// head-of-line-block co-resident flows on the link.
func (f *sharedFeed) drop(i int) { f.rcv[i].Drop(f.tags[i]) }

func (f *sharedFeed) free() {
	for i := range f.rcv {
		f.drop(i)
	}
}
