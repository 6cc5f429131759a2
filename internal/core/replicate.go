package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/transport"
)

// Multicast replicate flows (paper §5.4) are the third kind of leg and
// feed behind the endpoint engine's seams (leg.go, target.go): a source
// has one leg, the group (mcTx), and a target's feed (mcFeed) hands out
// segments in sequence order. Push, Flush, Close, the tuple iterator, the
// SourceTimeout detector, the membership fold and Stats are the engine's;
// this file is what rides on two-sided unreliable multicast instead of
// one-sided ring writes:
//
//   - Targets pre-populate their receive queues with as many buffers as
//     the credit score allows; sources track per-target credit from a
//     back-flow of credit messages, so ordinary sends need no
//     coordination.
//   - Segments carry sequence numbers; targets detect losses as gaps and,
//     after a configurable timeout, request retransmission with a NACK on
//     a reliable reverse queue pair.
//   - Globally ordered flows draw sequence numbers from a tuple sequencer
//     (an RDMA fetch-and-add counter) and reorder out-of-order arrivals at
//     the target with a receive list / next list (paper Figure 6). A gap
//     whose NACKs go unanswered once a source has failed is settled by gap
//     agreement: the lowest live source asks every live target for a copy
//     and either re-broadcasts one or declares the sequence skipped for
//     all, so every target consumes the same sequence.
//
// End-of-flow markers and retransmissions travel on the reliable per-pair
// queue pairs so termination does not depend on lossy multicast. Each
// target dials them and publishes their source ends (mcTargetInfo) once
// its receives are posted, and a source multicasts only after every target
// published or was evicted: no member misses a segment by not listening.
//
// With Options.LeaseTTL set, the members of the group follow the flow's
// lease/epoch control plane (see docs/PROTOCOL.md, "Ordered replicate
// failure model"): segment headers carry the membership epoch, an
// evicted source fails like one SourceTimeout declared silent, an
// evicted target is detached from the group and the credit accounting,
// and a rejoining target resumes from an installable sequencer snapshot.

// A multicast message leads with the segment descriptor every ring kind
// uses (transport.SegDesc); its tag is mcTag: the source index and the
// low 16 bits of the membership epoch the sender had folded in.
func mcTag(src int, epoch uint64) uint32 { return uint32(byte(src)) | uint32(uint16(epoch))<<8 }

// mcSrc is the source index in a received segment's tag.
func mcSrc(tag uint32) int { return int(byte(tag)) }

// maxMcSources is how many sources a multicast flow may declare: mcTag
// carries the source index in one byte.
const maxMcSources = 256

// Control message (16 bytes): kind(1) slot(1) rsvd(6) value(8).
// ctrlGapHave appends a full segment copy after the fixed header.
// Control messages travel only on the reliable per-pair QPs, so none of
// them can be lost — the gap-agreement protocol needs no retries beyond
// the requester's periodic re-query.
const (
	ctrlBytes  = 16
	ctrlCredit = 1
	ctrlNack   = 2

	// Gap agreement (ordered flows): when NACK rounds for a head gap go
	// unanswered and a source has failed, the stuck target
	// asks the lowest live source to arbitrate. The arbiter probes every
	// live target; a surviving copy is re-broadcast (Have -> data + Fill),
	// and a unanimous NoHave makes the sequence an agreed skip, recorded
	// durably in the registry before the verdict goes out.
	ctrlGapQuery  = 3 // target -> source: arbitrate missing sequence <value>
	ctrlGapProbe  = 4 // source -> target: do you hold sequence <value>?
	ctrlGapHave   = 5 // target -> source: yes — segment copy appended
	ctrlGapNoHave = 6 // target -> source: no, frozen until the verdict
	ctrlGapSkip   = 7 // source -> target: <value> is agreed unfillable
	ctrlGapFill   = 8 // source -> target: <value> was refilled (data precedes)
)

// ctrlMsg is a control message's fixed header. slot is the sender's slot
// in agreement traffic and 0 in credits and NACKs, whose receiver knows
// the sender from the queue.
type ctrlMsg struct {
	kind, slot byte
	value      uint64
}

// Put writes the header into b[:ctrlBytes].
func (c ctrlMsg) Put(b []byte) {
	b[0], b[1] = c.kind, c.slot
	clear(b[2:8])
	binary.LittleEndian.PutUint64(b[8:ctrlBytes], c.value)
}

// parseCtrl reads the header of a received control message, which must be
// at least ctrlBytes long.
func parseCtrl(b []byte) ctrlMsg {
	return ctrlMsg{kind: b[0], slot: b[1], value: binary.LittleEndian.Uint64(b[8:ctrlBytes])}
}

// encode returns the message as a fresh buffer, payload (the segment copy
// of a ctrlGapHave) appended: a posted SEND owns its bytes.
func (c ctrlMsg) encode(payload []byte) []byte {
	msg := make([]byte, ctrlBytes+len(payload))
	c.Put(msg)
	copy(msg[ctrlBytes:], payload)
	return msg
}

// mcTargetInfo is what a multicast target publishes: the source end of
// the reliable queue pair it dialed to each source, by source slot, and
// — for a rejoining target — the high-water of the sequencer snapshot it
// installed, from which the sources restart its credit.
type mcTargetInfo struct {
	qps      []transport.Queue
	resumeAt uint64
}

// gapRound is one gap-agreement round this source arbitrates: which
// targets have answered the probe for the sequence number. Failed
// targets are pre-answered — the dead cannot vote.
type gapRound struct {
	answered []bool
}

// mcTx is the multicast leg: one source's path to the whole group. The
// embedded leg's buf is the payload area of the staging message msg;
// flush draws the segment's sequence number and multicasts it, and the
// phased close is flush, then reliable end markers and a bounded linger.
// segsWritten is the count of segments sent — the per-source sequence
// number of an unordered flow.
type mcTx struct {
	leg
	s *Source

	group    transport.Group
	fqps     []transport.Queue // reliable QP to each target (source end; nil for one evicted before it opened)
	ctrlBufs [][]byte          // posted control-recv buffers, recycled by index
	msg      []byte            // staging message: descriptor + payload

	credit     int      // ring size R
	consumedBy []uint64 // cumulative segments consumed, per target

	history   map[uint64][]byte
	histOrder []uint64
	seqQP     transport.Queue // to the sequencer node (ordered flows)
	seqLost   bool            // the sequencer's node crashed: nothing more can be ordered

	// folded is the membership epoch at which the group's targets were
	// last folded (stamped on outgoing segment headers), tinc the target
	// incarnation each reliable QP connected under.
	folded uint64
	tinc   []uint64

	// Gap-agreement state with this source as arbiter: open rounds by
	// sequence number and the verdicts already reached (also recorded in
	// the registry, which owns the durable copy).
	rounds      map[uint64]*gapRound
	agreedSkips map[uint64]bool

	// Target-failure detection (enabled by Options.RetransmitTimeout): a
	// target whose credit stream stalls past failAfter while it gates the
	// source is declared failed and excluded from flow control and the
	// termination handshake. The staleness clock starts when the target
	// begins gating (gating flips on, lastAdvance resets): a caught-up
	// target sends no credit while the source is idle, so time since its
	// last advance says nothing about its health.
	failedTgt   []bool
	lastAdvance []time.Duration
	gating      []bool
	// evictedTgt marks slots whose failedTgt entry came from a lease
	// eviction rather than the staleness detector: the member was detached
	// cleanly by the control plane, so close excludes it from the
	// "stopped responding" error — a ring replicate flow likewise drops
	// an evicted leg without failing the source.
	evictedTgt []bool

	// Ordered flows: globally drawn sequence numbers owned by this source
	// (monotonic), and how many of them each target has processed. Credit
	// messages carry the target's global progress; the source maps that to
	// its own outstanding window.
	ownSeqs []uint64
	ownIdx  []int

	// Scrape-visible recovery counters (see SourceStats).
	retransmits  atomic.Uint64
	gapRoundsRun atomic.Uint64
	creditStalls atomic.Uint64
}

// newMcTx builds source s's group leg; connect adds each target's queue.
func newMcTx(s *Source) *mcTx {
	spec, o := s.spec, &s.spec.Options
	nTgt := len(spec.Targets)
	x := &mcTx{
		s:           s,
		group:       s.meta.group,
		msg:         make([]byte, transport.SegDescBytes+o.SegmentSize),
		credit:      o.SegmentsPerRing,
		consumedBy:  make([]uint64, nTgt),
		history:     make(map[uint64][]byte),
		folded:      s.epoch,
		fqps:        make([]transport.Queue, nTgt),
		tinc:        make([]uint64, nTgt),
		failedTgt:   make([]bool, nTgt),
		lastAdvance: make([]time.Duration, nTgt),
		gating:      make([]bool, nTgt),
		evictedTgt:  make([]bool, nTgt),
		ownIdx:      make([]int, nTgt),
	}
	x.leg = leg{tx: x, buf: x.msg[transport.SegDescBytes:], segSize: o.SegmentSize, mem: s.mem, slot: -1}
	if o.GlobalOrdering {
		x.rounds = make(map[uint64]*gapRound)
		x.agreedSkips = make(map[uint64]bool)
		x.seqQP, _ = s.meta.cluster.Dial(s.node, s.meta.seqMR.Owner())
	}
	return x
}

// connect takes this source's queue to target j (incarnation inc) from
// the info it published and posts the control-message receives on it. A
// target evicted before it opened published none: its slot is excluded
// from the start, as foldTargets excludes one evicted later.
func (x *mcTx) connect(j int, info any, inc uint64) {
	if info == nil {
		x.failedTgt[j], x.evictedTgt[j] = true, true
		x.group.Detach(j)
		return
	}
	qp := info.(*mcTargetInfo).qps[x.s.idx]
	x.fqps[j], x.tinc[j] = qp, inc
	x.postCtrlRecvs(qp)
}

// postCtrlRecvs posts the control-message receive window on one reliable
// QP. Ordered flows must fit a ctrlGapHave answer carrying a full
// segment copy.
func (x *mcTx) postCtrlRecvs(qp transport.Queue) {
	size := ctrlBytes
	if x.s.spec.Options.GlobalOrdering {
		size += len(x.msg)
	}
	for r := 0; r < 4; r++ {
		buf := make([]byte, size)
		x.ctrlBufs = append(x.ctrlBufs, buf)
		qp.PostRecv(buf, uint64(len(x.ctrlBufs)-1))
	}
}

// failAfter returns how long a target's credit stream may gate the source
// before the target is declared failed (0 disables, keeping the legacy
// unbounded waits).
func (x *mcTx) failAfter() time.Duration {
	o := &x.s.spec.Options
	if o.RetransmitTimeout <= 0 {
		return 0
	}
	return o.RetransmitTimeout * time.Duration(o.MaxRetransmits+1)
}

// allTargetsFailed reports whether no live target remains.
func (x *mcTx) allTargetsFailed() bool {
	for _, f := range x.failedTgt {
		if !f {
			return false
		}
	}
	return true
}

// foldTargets folds membership changes among the group's members — the
// part of the source's epoch fold the engine leaves to this kind, run
// wherever the leg sends or waits. A no-op (one integer compare) while
// the epoch is unchanged. An evicted target is detached from the
// multicast group and excluded from credit; an incarnation bump on a live
// target slot means the target rejoined — the source reconnects to the
// fresh reliable QP the rejoiner published and restarts the slot's credit
// accounting from the sequencer snapshot it installed. This source's own
// eviction comes back as errEvicted, which sends the engine to syncEpoch,
// where it breaks the flow (epoch fencing).
func (x *mcTx) foldTargets(p transport.Ctx) error {
	e := x.mem.Epoch()
	if e == x.folded {
		return nil
	}
	x.folded = e
	if x.mem.SourceEvicted(x.s.idx) {
		return errEvicted
	}
	for j := range x.fqps {
		if x.mem.TargetEvicted(j) {
			if !x.failedTgt[j] {
				x.failedTgt[j] = true
				x.group.Detach(j)
			}
			x.evictedTgt[j] = true
			continue
		}
		if inc := x.mem.Incarnation(registry.RoleTarget, j); inc != x.tinc[j] {
			x.reconnectTarget(p, j, inc)
		}
	}
	return nil
}

// reconnectTarget folds a target rejoin: the rejoiner dialed fresh queue
// pairs and republished their source ends as its info *before* its
// Rejoin bumped the epoch, so the info read here is the new incarnation's.
// The slot's credit restarts from the high-water the rejoiner installed,
// which it published with its queues. The registry's snapshot is no
// measure of the rejoiner: the survivors keep reporting progress into
// it, so a read here can be newer than the one the rejoiner installed,
// and a slot credited from it would count the rejoiner's catch-up as no
// progress — past failAfter the rejoiner is declared failed, stops
// gating the sources, and drowns in the multicasts it still receives.
func (x *mcTx) reconnectTarget(p transport.Ctx, j int, inc uint64) {
	s := x.s
	info, ok := s.reg.TargetInfo(p, s.spec.Name, j)
	if !ok {
		return // never published: evicted before it opened, and stays excluded
	}
	x.connect(j, info, inc)
	resumeAt := info.(*mcTargetInfo).resumeAt
	i := 0
	for i < len(x.ownSeqs) && x.ownSeqs[i] < resumeAt {
		i++
	}
	x.ownIdx[j], x.consumedBy[j] = i, uint64(i)
	x.failedTgt[j] = false
	x.evictedTgt[j] = false
	x.gating[j] = false
	x.lastAdvance[j] = p.Now()
	if x.closed {
		// The stream already closed: the end marker went to the previous
		// incarnation. Resend it on the fresh QP.
		x.fqps[j].Send(p, x.endMarker(), false, 0)
	}
}

// endMarker builds the reliable end-of-flow message: a header-only
// segment whose seq field carries the per-source segment count.
func (x *mcTx) endMarker() []byte {
	end := make([]byte, transport.SegDescBytes)
	transport.SegDesc{
		Flags: transport.SegCommitted | transport.SegEnd,
		Tag:   mcTag(x.s.idx, x.folded),
		Seq:   x.segsWritten.Load(), // segment count
	}.Put(end)
	return end
}

// flush stamps the staged segment's header, draws its sequence number
// (global for ordered flows, per-source otherwise), retains the segment
// for retransmission, and multicasts it.
func (x *mcTx) flush(p transport.Ctx) error {
	if x.fill == 0 {
		return nil
	}
	if err := x.awaitCredit(p); err != nil {
		return err
	}
	x.drainControl(p)
	if x.allTargetsFailed() {
		return fmt.Errorf("%w: every replicate target stopped responding", ErrFlowBroken)
	}

	s := x.s
	seq := x.segsWritten.Load()
	if s.spec.Options.GlobalOrdering {
		// Tuple sequencer: one fetch-and-add round trip per segment
		// (paper §5.4); with programmable switches this could move into
		// the network. A crashed sequencer node surfaces as a broken
		// flow, not as a silently repeated sequence number.
		v, ok := x.seqQP.FetchAdd(p, transport.Addr{MR: s.meta.seqMR}, 1)
		if !ok {
			x.seqLost = true
			return fmt.Errorf("%w: sequencer node for flow %q is unreachable", ErrFlowBroken, s.spec.Name)
		}
		seq = v
		x.ownSeqs = append(x.ownSeqs, seq)
	}
	transport.SegDesc{Fill: uint32(x.fill), Flags: transport.SegCommitted, Tag: mcTag(s.idx, x.folded), Seq: seq}.Put(x.msg)

	msg := append([]byte(nil), x.msg[:transport.SegDescBytes+x.fill]...)
	x.history[seq] = msg
	x.histOrder = append(x.histOrder, seq)
	if len(x.histOrder) > 4*x.credit {
		old := x.histOrder[0]
		x.histOrder = x.histOrder[1:]
		delete(x.history, old)
	}

	x.group.Send(p, s.node, msg, false)
	x.segsWritten.Add(1)
	x.payloadBytes.Add(uint64(x.fill))
	x.fill = 0
	return nil
}

// awaitCredit blocks while any live target's outstanding window is full.
// With RetransmitTimeout set, a target whose credit gates the source past
// failAfter is declared failed and excluded — a crashed target must not
// wedge the surviving replicas. Membership changes are folded while
// gated, so a lease eviction releases the gate ahead of the timeout.
func (x *mcTx) awaitCredit(p transport.Ctx) error {
	failAfter := x.failAfter()
	for {
		if err := x.foldTargets(p); err != nil {
			return err
		}
		lag := -1
		for j := range x.consumedBy {
			if x.failedTgt[j] {
				continue
			}
			if int(x.segsWritten.Load()-x.consumedBy[j]) >= x.credit {
				lag = j
				break
			}
		}
		if lag < 0 {
			return nil
		}
		now := p.Now()
		if !x.gating[lag] {
			x.gating[lag] = true
			x.lastAdvance[lag] = now
			x.creditStalls.Add(1)
		}
		if failAfter > 0 && now-x.lastAdvance[lag] > failAfter {
			x.failedTgt[lag] = true
			continue
		}
		if c, ok := x.fqps[lag].RecvCQ().WaitTimeout(p, 5*time.Microsecond); ok {
			x.handleControl(p, lag, c)
		}
		x.drainControl(p)
	}
}

// arrived takes the next completion off a receive queue that has one,
// without blocking (an empty queue is not polled: a poll costs time).
func arrived(p transport.Ctx, cq transport.CompletionQueue) (transport.Completion, bool) {
	if cq.Len() == 0 {
		return transport.Completion{}, false
	}
	return cq.Poll(p)
}

// drainControl processes pending credit and NACK messages from all
// targets without blocking.
func (x *mcTx) drainControl(p transport.Ctx) {
	for j, qp := range x.fqps {
		if qp == nil {
			continue // evicted before it opened: nothing ever arrives
		}
		for c, ok := arrived(p, qp.RecvCQ()); ok; c, ok = arrived(p, qp.RecvCQ()) {
			x.handleControl(p, j, c)
		}
	}
}

func (x *mcTx) handleControl(p transport.Ctx, target int, c transport.Completion) {
	buf := x.ctrlBufs[c.ID]
	var m ctrlMsg
	var payload []byte
	if c.Bytes >= ctrlBytes {
		m = parseCtrl(buf)
		// ctrlGapHave carries a segment copy after the fixed header; copy
		// it out before the buffer is recycled.
		payload = append(payload, buf[ctrlBytes:c.Bytes]...)
	}
	x.fqps[target].PostRecv(buf, c.ID) // recycle the buffer
	switch m.kind {
	case ctrlCredit:
		if x.s.spec.Options.GlobalOrdering {
			// value is the target's global progress (next undelivered
			// sequence); count how many of our own segments lie below it.
			i := x.ownIdx[target]
			for i < len(x.ownSeqs) && x.ownSeqs[i] < m.value {
				i++
			}
			x.ownIdx[target] = i
			if uint64(i) > x.consumedBy[target] {
				x.consumedBy[target] = uint64(i)
				x.noteAdvance(p, target)
			}
		} else if m.value > x.consumedBy[target] {
			x.consumedBy[target] = m.value
			x.noteAdvance(p, target)
		}
	case ctrlNack:
		if msg, ok := x.history[m.value]; ok {
			// Reliable unicast retransmission to the requesting target.
			x.fqps[target].Send(p, msg, false, 0)
			x.retransmits.Add(1)
		}
	case ctrlGapQuery:
		// Agreement traffic is proof of life: a target stuck behind a
		// crashed source's gaps sends no credit while rounds resolve one
		// sequence at a time, and that backlog must not read as a dead
		// target to the staleness detector. Only the clock resets — the
		// target keeps gating until real credit advances it.
		x.lastAdvance[target] = p.Now()
		x.handleGapQuery(p, target, m.value)
	case ctrlGapHave:
		x.lastAdvance[target] = p.Now()
		x.handleGapHave(p, m.value, payload)
	case ctrlGapNoHave:
		x.lastAdvance[target] = p.Now()
		x.handleGapNoHave(p, target, m.value)
	}
}

// sendGapCtrl sends one fixed-size agreement control message to target j.
func (x *mcTx) sendGapCtrl(p transport.Ctx, j int, kind byte, seq uint64) {
	x.fqps[j].Send(p, ctrlMsg{kind, byte(x.s.idx), seq}.encode(nil), false, 0)
}

// handleGapQuery arbitrates a head gap a target reported stuck: a
// history hit answers with a plain retransmission, an already-agreed
// skip re-announces the verdict, and anything else opens — or re-probes
// — an agreement round over the live targets. Requesters re-query while
// stuck, so a probe outstanding toward a target that dies mid-round is
// retried against the post-eviction membership.
func (x *mcTx) handleGapQuery(p transport.Ctx, from int, seq uint64) {
	if x.rounds == nil {
		return // unordered: no sequence space to agree on
	}
	if msg, ok := x.history[seq]; ok {
		x.fqps[from].Send(p, msg, false, 0)
		x.retransmits.Add(1)
		return
	}
	if x.agreedSkips[seq] {
		x.sendGapCtrl(p, from, ctrlGapSkip, seq)
		return
	}
	r := x.rounds[seq]
	if r == nil {
		r = &gapRound{answered: make([]bool, len(x.fqps))}
		x.rounds[seq] = r
		x.gapRoundsRun.Add(1)
	}
	open := false
	for j := range r.answered {
		if x.failedTgt[j] {
			r.answered[j] = true
			continue
		}
		if !r.answered[j] {
			x.sendGapCtrl(p, j, ctrlGapProbe, seq)
			open = true
		}
	}
	if !open {
		// Every remaining voter is dead; the round degenerates to a skip.
		x.closeRound(p, seq)
	}
}

// handleGapHave resolves a round affirmatively: a live target still held
// the sequence. The copy is re-broadcast on the reliable QPs — data
// first, then the Fill verdict, which RC in-order delivery keeps behind
// the data — unfreezing every target that answered NoHave.
func (x *mcTx) handleGapHave(p transport.Ctx, seq uint64, payload []byte) {
	if x.rounds[seq] == nil {
		return // round already closed (late or duplicate answer)
	}
	delete(x.rounds, seq)
	if len(payload) > 0 {
		x.history[seq] = payload
		x.histOrder = append(x.histOrder, seq)
	}
	msg, ok := x.history[seq]
	if !ok {
		return
	}
	for j := range x.fqps {
		if x.failedTgt[j] {
			continue
		}
		x.fqps[j].Send(p, msg, false, 0)
		x.sendGapCtrl(p, j, ctrlGapFill, seq)
	}
	x.retransmits.Add(1)
}

// handleGapNoHave records one negative vote; a unanimous round closes as
// an agreed skip.
func (x *mcTx) handleGapNoHave(p transport.Ctx, from int, seq uint64) {
	r := x.rounds[seq]
	if r == nil {
		return
	}
	r.answered[from] = true
	for j := range r.answered {
		if x.failedTgt[j] {
			r.answered[j] = true
		}
		if !r.answered[j] {
			return
		}
	}
	x.closeRound(p, seq)
}

// closeRound finalizes an agreed skip: the verdict is recorded durably
// in the registry first (emitting the gap_agreement event and folding
// the skip into future rejoin snapshots), then announced to the live
// targets. Registering before announcing means a target that acts on the
// verdict can never observe the registry without it.
func (x *mcTx) closeRound(p transport.Ctx, seq uint64) {
	delete(x.rounds, seq)
	x.agreedSkips[seq] = true
	_ = x.s.reg.RecordSeqSkips(p, x.s.spec.Name, x.folded, seq)
	for j := range x.fqps {
		if x.failedTgt[j] {
			continue
		}
		x.sendGapCtrl(p, j, ctrlGapSkip, seq)
	}
}

// noteAdvance records consumption progress by a target (failure-detection
// bookkeeping): the staleness clock resets and any future gate episode
// restarts its grace period.
func (x *mcTx) noteAdvance(p transport.Ctx, target int) {
	x.gating[target] = false
	x.lastAdvance[target] = p.Now()
}

// finish is flush: delivery is confirmed by the linger that follows the
// end markers. A lost sequencer ends the stream where it stands, so the
// end markers go out at once, or every target would wait on this source
// forever; the flush's error is the one to report.
func (x *mcTx) finish(p transport.Ctx) error {
	err := x.flush(p)
	if x.seqLost {
		x.end(p)
	}
	return err
}

// end sends reliable end markers carrying the per-source segment count
// and lingers until every live target has consumed everything — serving
// retransmission requests and arbitrating gap rounds meanwhile. With
// RetransmitTimeout set the linger is bounded per target: one that stops
// acknowledging is declared failed, and end reports it with an
// ErrFlowBroken-wrapped error instead of hanging. Lease evictions folded
// mid-linger release their targets immediately.
func (x *mcTx) end(p transport.Ctx) error {
	if x.closed {
		return nil
	}
	x.closed = true
	if err := x.foldTargets(p); err != nil {
		return err
	}
	end := x.endMarker()
	for j, qp := range x.fqps {
		if x.failedTgt[j] {
			continue
		}
		qp.Send(p, end, false, 0)
	}
	failAfter := x.failAfter()
	for j := range x.lastAdvance {
		x.gating[j] = true
		x.lastAdvance[j] = p.Now() // grace restarts at close
	}
	for {
		if err := x.foldTargets(p); err != nil {
			return err
		}
		pending := false
		for j, v := range x.consumedBy {
			if x.failedTgt[j] {
				continue
			}
			if v < x.segsWritten.Load() {
				if failAfter > 0 && p.Now()-x.lastAdvance[j] > failAfter {
					x.failedTgt[j] = true
					continue
				}
				pending = true
			}
		}
		if !pending {
			break
		}
		for j, qp := range x.fqps {
			if x.failedTgt[j] {
				continue
			}
			if c, ok := qp.RecvCQ().WaitTimeout(p, x.s.spec.Options.GapTimeout); ok {
				x.handleControl(p, j, c)
			}
		}
		x.drainControl(p)
	}
	var failed []int
	for j, f := range x.failedTgt {
		if f && !x.evictedTgt[j] {
			failed = append(failed, j)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: replicate targets %v stopped responding", ErrFlowBroken, failed)
	}
	return nil
}

// harvest keeps nothing: the engine never finds the group gone, and what
// one evicted member missed every survivor received.
func (x *mcTx) harvest(int) [][]byte { return nil }

func (x *mcTx) free() {}

// noEnd marks a source whose segment count is not known yet.
const noEnd = ^uint64(0)

// mcFeed is the multicast kind on the consuming side: it receives off
// the group endpoint and the reliable queues, reorders, recovers losses,
// and hands out segments in sequence order. The per-source state the
// engine keeps in Target.readers serves it too — consumed is the count
// of segments delivered from the source, and a source is heard whenever
// anything of its arrives or sits in pending; the readers close together,
// when the whole flow is delivered.
type mcFeed struct {
	t *Target

	ep   transport.GroupEndpoint
	tqps []transport.Queue // reliable QP from each source (target end)

	pool   [][]byte // recycled receive buffers
	poolMR transport.Region

	// Per-source protocol state. end is the source's segment count, from
	// its end marker or — for a source that failed without one — what was
	// delivered from it (noEnd until either).
	nextSeq   []uint64 // next expected per-source seq (unordered)
	end       []uint64
	creditAcc []uint64 // segments consumed since last credit msg

	// Ordered-flow state: the "next list" of Figure 6 is the pending map
	// keyed by global seq; the receive list is the fabric receive queue.
	nextGlobal uint64
	pending    map[uint64][]byte

	gapSince time.Duration // when the current head gap was first observed
	gapNacks int           // unanswered NACK rounds for the current head gap
	arbiter  int           // source whose verdict the head gap awaits (-1: none)

	// Gap-agreement state (ordered flows only): copies of recently
	// delivered segments so probes for a live head can be answered after
	// delivery, the agreed-skip set, and sequences frozen by a NoHave
	// answer (they must not be delivered until the round's verdict — a
	// late arrival overtaking the verdict would diverge from peers that
	// skipped). dhist is a ring over sequence numbers (see
	// retainDelivered).
	dhist       []heldSeg
	skips       map[uint64]bool
	frozen      map[uint64]int // seq -> probing source slot
	responderUp bool

	// Progress reporting (leased ordered flows): total segments delivered
	// and the next checkpoint at which RecordSeqProgress is called.
	totalDelivered uint64
	progressAt     uint64

	// Sequencer access (ordered flows): once every source has ended or
	// failed, the counter's value is the exact global sequence-space
	// size — the authoritative stream extent even when a source crashed
	// mid-stream without an end marker (see seqSpaceSize).
	seqQP         transport.Queue
	seqSpace      uint64
	seqSpaceKnown bool

	// Scrape-visible recovery counters (see TargetStats).
	nacksSent   atomic.Uint64
	gapsSkipped atomic.Uint64

	active []byte // buffer backing the segment handed out last
}

// heldSeg is one delivered segment kept for gap probes: its sequence
// number and a copy whose buffer the ring reuses (nil until first used).
type heldSeg struct {
	seq uint64
	seg []byte
}

// newMcFeed builds the feed and the target's readers — buffers and
// per-source state — and dials a reliable queue pair to every source
// (retransmissions, end markers, control messages), receives posted on
// the target's ends. It returns the sources' ends: the info to publish,
// once the feed has joined the group.
func (t *Target) newMcFeed() *mcTargetInfo {
	o := &t.spec.Options
	nSrc, R := len(t.spec.Sources), o.SegmentsPerRing
	f := &mcFeed{
		t:         t,
		nextSeq:   make([]uint64, nSrc),
		end:       make([]uint64, nSrc),
		creditAcc: make([]uint64, nSrc),
		pending:   make(map[uint64][]byte),
		arbiter:   -1,
	}
	for i := range f.end {
		f.end[i] = noEnd
		t.readers = append(t.readers, &ringReader{})
	}
	if o.GlobalOrdering {
		f.dhist = make([]heldSeg, 2*nSrc*R+16)
		f.skips = make(map[uint64]bool)
		f.frozen = make(map[uint64]int)
		f.seqQP, _ = t.meta.cluster.Dial(t.node, t.meta.seqMR.Owner())
	}
	stride := transport.SegDescBytes + o.SegmentSize
	// One slab backs all receive buffers (registered for accounting). The
	// posted queues hold nSrc*R (multicast) + nSrc*(R+2) (reliable path)
	// buffers at all times; pending reordering and the active segment hold
	// at most as many again.
	nBufs := 2*(nSrc*R+nSrc*(R+2)) + 8
	f.poolMR = t.meta.cluster.OpenRegion(t.node, nBufs*stride)
	slab := f.poolMR.Bytes()
	for i := 0; i < nBufs; i++ {
		f.pool = append(f.pool, slab[i*stride:(i+1)*stride:(i+1)*stride])
	}
	t.feed = f
	info := &mcTargetInfo{}
	for _, src := range t.spec.Sources {
		sq, tq := t.meta.cluster.Dial(src.Node, t.node)
		f.tqps = append(f.tqps, tq)
		for r := R + 2; r > 0; r-- {
			tq.PostRecv(f.takeBuf(), 0)
		}
		info.qps = append(info.qps, sq)
	}
	return info
}

// join takes the member's place in the group, pre-populating the
// multicast receive queue with the credit score, R buffers per source.
func (f *mcFeed) join(ep transport.GroupEndpoint) {
	f.ep = ep
	for i := len(f.t.readers) * f.t.spec.Options.SegmentsPerRing; i > 0; i-- {
		ep.PostRecv(f.takeBuf(), 0)
	}
}

// rejoinGroup rebuilds the receiving half of an ordered multicast flow
// for a target re-attaching after eviction, once Target.Reattach has
// republished the fresh queues' source ends (newMcFeed) together with
// snap's high-water. The rejoiner cannot replay the stream (multicast
// history is bounded); instead it installs the registry's sequencer
// snapshot — high-water, per-source delivered counts, agreed skips — and
// resumes delivery at the high-water, filling the short tail between the
// last progress report and the live stream through the ordinary
// NACK/agreement machinery. Sources that were evicted or already left
// the flow are folded as ended at their snapshot counts: their tail
// segments have no retransmission history and are not replayed (rejoin
// is meant for flows still streaming).
func (t *Target) rejoinGroup(p transport.Ctx, mem *registry.Membership, snap registry.SeqSnapshot) error {
	name := t.spec.Name
	f := t.feed.(*mcFeed)
	// Re-attach to the multicast group: the eviction detached this slot's
	// endpoint; a fresh one takes its place.
	f.join(t.meta.group.Reattach(t.idx, t.node))
	f.nextGlobal = snap.HighWater
	for _, seq := range snap.Skips {
		if seq >= snap.HighWater {
			f.skips[seq] = true
		}
	}
	for i, r := range t.readers {
		if i < len(snap.PerSource) {
			r.consumed.Store(snap.PerSource[i])
		}
	}
	f.totalDelivered = f.nextGlobal
	f.progressAt = f.totalDelivered + uint64(t.spec.Options.SegmentsPerRing)
	if err := t.reg.Rejoin(p, name, registry.RoleTarget, t.idx); err != nil {
		return fmt.Errorf("dfi: rejoin of target %d rejected: %w", t.idx, err)
	}
	t.initTargetMembership(mem)
	// Announce the resumed progress so reconnecting sources restart their
	// credit from the high-water (RC queues the message until the source
	// posts its receives).
	f.broadcastProgress(p)
	if sink := t.reg.EventSink(); sink != nil {
		sink.Emit(metrics.Event{
			T: p.Now(), Node: fmt.Sprintf("node%d", t.node.ID()),
			Type: metrics.EvSeqSnapshotInstall, Flow: name, Epoch: t.epoch,
			Role: "target", Slot: t.idx, Seq: snap.HighWater,
			Detail: fmt.Sprintf("resumed at high-water %d with %d agreed skips", snap.HighWater, len(snap.Skips)),
		})
	}
	return nil
}

func (f *mcFeed) takeBuf() []byte {
	if len(f.pool) == 0 {
		// Pool exhaustion cannot happen within the credit window; guard
		// against protocol bugs.
		panic("dfi: multicast receive buffer pool exhausted")
	}
	b := f.pool[len(f.pool)-1]
	f.pool = f.pool[:len(f.pool)-1]
	return b
}

func (f *mcFeed) recycle(buf []byte) {
	f.pool = append(f.pool, buf[:cap(buf)])
}

// key computes the pending-map key for a segment: the global sequence for
// ordered flows, or (source, per-source seq) packed otherwise.
func (f *mcFeed) key(src int, seq uint64) uint64 {
	if f.t.spec.Options.GlobalOrdering {
		return seq
	}
	return uint64(src)<<48 | seq
}

// recvOrigin is a receive queue a buffer can be (re)posted to: either the
// multicast endpoint or a reliable QP.
type recvOrigin interface {
	PostRecv(buf []byte, id uint64)
}

// isGapCtrl discriminates agreement control messages from data on the
// reliable QPs: a control message is exactly ctrl-sized with a known
// kind byte, while data segments are strictly larger (header + at least
// one tuple) and end markers lead with a zero fill word (first byte 0).
func isGapCtrl(buf []byte, bytes int) bool {
	if bytes != ctrlBytes {
		return false
	}
	switch buf[0] {
	case ctrlGapProbe, ctrlGapSkip, ctrlGapFill:
		return true
	}
	return false
}

// ingest processes one received message. The posted-buffer the message
// arrived in is immediately replaced on its origin queue so the receive
// windows never shrink (losing posted receives would starve the flow).
// What a peer wrote is not trusted: a message whose source index is not a
// declared slot, or whose descriptor claims a fill other than the bytes
// that followed it (so never more than a segment), is dropped.
func (f *mcFeed) ingest(p transport.Ctx, buf []byte, bytes int, origin recvOrigin) {
	origin.PostRecv(f.takeBuf(), 0)
	t := f.t
	ordered := t.spec.Options.GlobalOrdering
	if ordered && isGapCtrl(buf, bytes) {
		f.handleGapCtrl(p, parseCtrl(buf))
		f.recycle(buf)
		return
	}
	d := transport.ParseSegDesc(buf)
	src, seq := mcSrc(d.Tag), d.Seq
	if bytes < transport.SegDescBytes || src >= len(t.readers) || int(d.Fill) != bytes-transport.SegDescBytes {
		f.recycle(buf)
		return
	}
	t.readers[src].heard(p.Now())
	if d.Flags&transport.SegEnd != 0 && d.Fill == 0 {
		// End marker: seq carries the source's total segment count.
		if f.end[src] == noEnd {
			f.end[src] = seq
		}
		f.recycle(buf)
		return
	}
	// Duplicate filtering: already delivered, already pending, or agreed
	// skipped (a late copy of a sequence the flow has moved past).
	dup := seq < f.nextSeq[src]
	if ordered {
		dup = seq < f.nextGlobal || f.skips[seq]
	}
	k := f.key(src, seq)
	if _, held := f.pending[k]; dup || held {
		f.recycle(buf)
		return
	}
	f.pending[k] = buf[:bytes]
	if prober, fr := f.frozen[seq]; fr && ordered {
		// A copy arrived after this target answered NoHave: hand it to
		// the arbiter proactively so the round resolves as a fill. The
		// sequence stays frozen until the verdict arrives.
		f.sendGapAnswer(p, prober, ctrlGapHave, seq, f.pending[k])
	}
}

// handleGapCtrl processes one agreement control message from a source.
func (f *mcFeed) handleGapCtrl(p transport.Ctx, m ctrlMsg) {
	src, seq := int(m.slot), m.value
	if src < len(f.t.readers) {
		f.t.readers[src].heard(p.Now())
	}
	switch m.kind {
	case ctrlGapProbe:
		f.answerProbe(p, src, seq)
	case ctrlGapSkip:
		f.applySkip(seq)
	case ctrlGapFill:
		// The refilled copy preceded this verdict on the same QP (RC
		// in-order delivery); the sequence is deliverable again.
		delete(f.frozen, seq)
	}
}

// answerProbe reports whether this target can supply a probed sequence:
// a pending or recently delivered copy is handed back (Have); an
// agreed-skipped or genuinely missing one is denied (NoHave). Answering
// NoHave freezes the sequence — a late multicast arrival must not be
// delivered past the round's verdict, or this target would keep a
// segment its peers agreed to skip.
func (f *mcFeed) answerProbe(p transport.Ctx, src int, seq uint64) {
	if src >= len(f.tqps) {
		return
	}
	if f.skips[seq] || seq < f.nextGlobal {
		if b := f.held(seq); b != nil {
			f.sendGapAnswer(p, src, ctrlGapHave, seq, b)
			return
		}
		// Already skipped here (or delivered beyond the history window,
		// which credit gating makes unreachable for live heads).
		f.sendGapAnswer(p, src, ctrlGapNoHave, seq, nil)
		return
	}
	if b, ok := f.pending[seq]; ok {
		f.sendGapAnswer(p, src, ctrlGapHave, seq, b)
		return
	}
	f.frozen[seq] = src
	if seq == f.nextGlobal {
		f.arbiter = src
	}
	f.sendGapAnswer(p, src, ctrlGapNoHave, seq, nil)
}

// sendGapAnswer sends one agreement answer, with the segment copy
// appended for Have.
func (f *mcFeed) sendGapAnswer(p transport.Ctx, src int, kind byte, seq uint64, payload []byte) {
	f.tqps[src].Send(p, ctrlMsg{kind, byte(f.t.idx), seq}.encode(payload), false, 0)
}

// applySkip records an agreed-unfillable sequence. A pending copy is
// discarded — the verdict is final, and delivering a segment the peers
// skipped would break the identical-order guarantee. The head loop
// advances past the skip on its next pass.
func (f *mcFeed) applySkip(seq uint64) {
	delete(f.frozen, seq)
	if seq < f.nextGlobal {
		return
	}
	if b, ok := f.pending[seq]; ok {
		delete(f.pending, seq)
		f.recycle(b)
	}
	f.skips[seq] = true
}

// sendGapQuery escalates a stuck head gap to the arbiter — the lowest
// source slot not declared failed — which runs the agreement round.
func (f *mcFeed) sendGapQuery(p transport.Ctx, seq uint64) {
	for s, r := range f.t.readers {
		if !r.failed.Load() {
			f.tqps[s].Send(p, ctrlMsg{ctrlGapQuery, byte(f.t.idx), seq}.encode(nil), false, 0)
			f.arbiter = s
			return
		}
	}
}

// poll drains all receive CQs without blocking, ingesting arrivals.
func (f *mcFeed) poll(p transport.Ctx) {
	for c, ok := arrived(p, f.ep.RecvCQ()); ok; c, ok = arrived(p, f.ep.RecvCQ()) {
		f.ingest(p, c.Buf, c.Bytes, f.ep)
	}
	f.pollReliable(p)
}

// pollReliable drains the reliable queues.
func (f *mcFeed) pollReliable(p transport.Ctx) {
	for _, qp := range f.tqps {
		for c, ok := arrived(p, qp.RecvCQ()); ok; c, ok = arrived(p, qp.RecvCQ()) {
			f.ingest(p, c.Buf, c.Bytes, qp)
		}
	}
}

// sendCredit reports cumulative consumption from src back to it, both as
// flow-control credit and as the termination handshake.
func (f *mcFeed) sendCredit(p transport.Ctx, src int, force bool) {
	batch := uint64(f.t.spec.Options.SegmentsPerRing / 4)
	if batch == 0 {
		batch = 1
	}
	if !force && f.creditAcc[src] < batch {
		return
	}
	f.creditAcc[src] = 0
	if f.t.spec.Options.GlobalOrdering {
		f.broadcastProgress(p)
		return
	}
	f.tqps[src].Send(p, ctrlMsg{kind: ctrlCredit, value: f.t.readers[src].consumed.Load()}.encode(nil), false, 0)
}

// broadcastProgress tells every source how far the target's global
// sequence progressed (ordered flows): sources translate this into their
// own credit, and skipped gaps count as progress.
func (f *mcFeed) broadcastProgress(p transport.Ctx) {
	for _, qp := range f.tqps {
		qp.Send(p, ctrlMsg{kind: ctrlCredit, value: f.nextGlobal}.encode(nil), false, 0)
	}
}

// sendFinalCredit fully acknowledges a source at flow end. For ordered
// flows, agreed skips count as consumed so the source's termination
// handshake completes.
func (f *mcFeed) sendFinalCredit(p transport.Ctx, src int) {
	if f.t.spec.Options.GlobalOrdering {
		// Global progress (agreed skips included) already covers the
		// whole sequence space by the time the flow finishes; just
		// broadcast it. Forcing nextGlobal forward here would silently
		// drop other sources' undelivered segments.
		f.broadcastProgress(p)
		return
	}
	v := f.t.readers[src].consumed.Load()
	if f.end[src] != noEnd && f.end[src] > v {
		v = f.end[src]
	}
	f.tqps[src].Send(p, ctrlMsg{kind: ctrlCredit, value: v}.encode(nil), false, 0)
}

// sendNack requests retransmission of a missing sequence number. Ordered
// flows cannot tell which source owns a global sequence number, so the
// NACK goes to every source; only the owner finds it in its history.
func (f *mcFeed) sendNack(p transport.Ctx, seq uint64, src int) {
	f.nacksSent.Add(1)
	nack := ctrlMsg{kind: ctrlNack, value: seq}
	if f.t.spec.Options.GlobalOrdering {
		for _, qp := range f.tqps {
			qp.Send(p, nack.encode(nil), false, 0)
		}
		return
	}
	f.tqps[src].Send(p, nack.encode(nil), false, 0)
}

// delivered reports whether every segment of source s was delivered:
// never before its count is known (noEnd is the largest count).
func (f *mcFeed) delivered(s int) bool { return f.t.readers[s].consumed.Load() >= f.end[s] }

// headDeliverable returns the pending segment that must be delivered next:
// the next global sequence number for ordered flows, or the next
// per-source sequence of the lowest source slot that has one otherwise. A
// frozen head (this target answered NoHave for it) is withheld until the
// agreement verdict resolves it as a fill or a skip.
func (f *mcFeed) headDeliverable() (buf []byte, src int, ok bool) {
	if f.t.spec.Options.GlobalOrdering {
		if f.frozenSeq(f.nextGlobal) {
			return nil, 0, false
		}
		if b, exists := f.pending[f.nextGlobal]; exists {
			return b, mcSrc(transport.ParseSegDesc(b).Tag), true
		}
		return nil, 0, false
	}
	for s := range f.nextSeq {
		if f.delivered(s) {
			continue
		}
		if b, exists := f.pending[f.key(s, f.nextSeq[s])]; exists {
			return b, s, true
		}
	}
	return nil, 0, false
}

// keptWaiting reports whether it is this target, not source s, that the
// rest of s's stream waits on: its whole extent is known, or — unordered,
// where the lowest slot with a head pending is served first — its next
// segment is here. A source with segments held behind a gap is not kept
// waiting: if nobody refills the gap (the source died with its
// retransmission history) it has to go silent, so that SourceTimeout can
// declare it failed and the gap ladder let go of what it held. Nor is
// the arbiter whose verdict the head gap awaits: one that finished and
// left answers no more, and SourceTimeout lets the ladder move on.
func (f *mcFeed) keptWaiting(s int) bool {
	if f.end[s] != noEnd {
		return s != f.arbiter
	}
	if f.t.spec.Options.GlobalOrdering {
		return false
	}
	_, here := f.pending[f.key(s, f.nextSeq[s])]
	return here
}

// countsKnown reports whether every source's segment count is known: its
// end marker arrived, or it was declared failed and ends at what was
// delivered.
func (f *mcFeed) countsKnown() bool {
	for _, e := range f.end {
		if e == noEnd {
			return false
		}
	}
	return true
}

// finished reports whether every source's count is known and all of it
// was delivered. Ordered flows track progress in global sequence space,
// so agreed skips count as handled.
func (f *mcFeed) finished() bool {
	if !f.countsKnown() {
		return false
	}
	if f.t.spec.Options.GlobalOrdering {
		return f.nextGlobal >= f.totalExpected()
	}
	for s := range f.end {
		if !f.delivered(s) {
			return false
		}
	}
	return true
}

// sourceFailed reports whether any source was declared failed.
func (f *mcFeed) sourceFailed() bool {
	for _, r := range f.t.readers {
		if r.failed.Load() {
			return true
		}
	}
	return false
}

// totalExpected is the global sequence-space size; valid once every
// source's count is known. The sum of the counts is only a floor when a
// source failed without an end marker — its fold used this target's
// local delivered count, which can differ between targets. On ordered
// flows the sequencer read (seqSpace) replaces that target-local guess
// with the authoritative draw count, so all survivors reconcile the same
// extent.
func (f *mcFeed) totalExpected() uint64 {
	var sum uint64
	for _, c := range f.end {
		sum += c
	}
	if f.seqSpaceKnown && f.seqSpace > sum {
		return f.seqSpace
	}
	return sum
}

// seqSpaceSize reads the flow's sequencer counter (a 0-delta fetch-add):
// the number of global sequence numbers ever drawn. Once every source
// has ended or failed no further draws can happen, so the value is the
// exact stream extent — including sequences a crashed source drew but
// never multicast, which the agreement rounds then resolve to skips.
// Returns false when the sequencer node itself is unreachable; callers
// fall back to the folded per-source counts.
func (f *mcFeed) seqSpaceSize(p transport.Ctx) (uint64, bool) {
	return f.seqQP.FetchAdd(p, transport.Addr{MR: f.t.meta.seqMR}, 0)
}

// deliver activates a pending segment for consumption and returns its
// tuple payload. The tuples' consume cost is charged before the credit
// goes back: a source is told of room only once the target has paid for
// what took it.
func (f *mcFeed) deliver(p transport.Ctx, buf []byte, src int) []byte {
	t := f.t
	seq := transport.ParseSegDesc(buf).Seq
	delete(f.pending, f.key(src, seq))
	if t.spec.Options.GlobalOrdering {
		f.nextGlobal = seq + 1
	} else {
		f.nextSeq[src] = seq + 1
	}
	t.readers[src].consumed.Add(1)
	f.creditAcc[src]++
	f.gapSince, f.gapNacks, f.arbiter = 0, 0, -1

	if t.spec.Options.GlobalOrdering {
		f.retainDelivered(seq, buf)
		if t.spec.Options.LeaseTTL > 0 {
			f.reportProgress(p)
		}
	}
	data := buf[transport.SegDescBytes:]
	data = data[:len(data)/t.tupleSize*t.tupleSize]
	t.charge(p, data)
	f.active = buf

	f.sendCredit(p, src, false)
	if f.delivered(src) {
		f.sendFinalCredit(p, src) // termination handshake
	}
	return data
}

// retainDelivered keeps a copy of a delivered segment for gap probes in
// the ring slot of its sequence number, reusing the buffer of the copy it
// evicts. The window is bounded by credit gating: a peer stuck at
// sequence S stalls every source within one credit window of S, so any
// sequence a live round can probe lies within ~nSrc·R of this target's
// head, and the ring spans 2·nSrc·R+16 sequence numbers.
func (f *mcFeed) retainDelivered(seq uint64, seg []byte) {
	h := &f.dhist[seq%uint64(len(f.dhist))]
	h.seq, h.seg = seq, append(h.seg[:0], seg...)
}

// held returns the retained copy of delivered sequence seq, or nil once
// the ring has moved past it.
func (f *mcFeed) held(seq uint64) []byte {
	if h := &f.dhist[seq%uint64(len(f.dhist))]; h.seg != nil && h.seq == seq {
		return h.seg
	}
	return nil
}

// reportProgress periodically merges this target's delivery progress
// into the registry's sequencer record (every R segments): the raw
// material of the snapshot a rejoining target installs. Only leased flows
// report: nothing else can rejoin, and the call is a registry RPC.
func (f *mcFeed) reportProgress(p transport.Ctx) {
	t := f.t
	f.totalDelivered++
	if f.totalDelivered < f.progressAt {
		return
	}
	f.progressAt = f.totalDelivered + uint64(t.spec.Options.SegmentsPerRing)
	per := make([]uint64, len(t.readers))
	for i, r := range t.readers {
		per[i] = r.consumed.Load()
	}
	_ = t.reg.RecordSeqProgress(p, t.spec.Name, t.idx, f.nextGlobal, per)
}

// drop ends source s's slot — the engine declared it failed (evicted, or
// silent past SourceTimeout), or this target is going away: the slot
// ends at its delivered count, and undeliverable unordered pendings are
// discarded (their predecessors died with the source's retransmission
// history). A source that died after its end marker arrived keeps its
// true stream length: overwriting it with this target's delivered count
// would shrink totalExpected by a target-local amount and make the
// survivors finish at divergent points. The reader the engine closed is
// opened again: an ordered flow may still hold segments of the source
// that are due, and scan closes every reader together once the flow's
// extent is delivered — so that the engine's flow end is finished().
func (f *mcFeed) drop(s int) {
	if f.end[s] == noEnd {
		f.end[s] = f.t.readers[s].consumed.Load()
	}
	if !f.t.spec.Options.GlobalOrdering {
		for k, b := range f.pending {
			if int(k>>48) == s {
				delete(f.pending, k)
				f.recycle(b)
			}
		}
	}
	f.t.readers[s].closed = false
}

// departed reports whether source s can arbitrate no more: it was
// declared failed (lease eviction or SourceTimeout), or it released its
// lease after its close linger. A lease-less source says nothing when it
// leaves, so a finished target, which no longer runs the failure
// detector, counts it gone once it has been silent past SourceTimeout —
// the silence that would have failed it while the target consumed.
func (f *mcFeed) departed(s int, now time.Duration) bool {
	r := f.t.readers[s]
	if r.failed.Load() {
		return true
	}
	o := &f.t.spec.Options
	if o.LeaseTTL <= 0 {
		return r.closed && now-r.lastActivity > o.SourceTimeout
	}
	st := f.t.mem.State(registry.RoleSource, s)
	return st == registry.StateLeft || st == registry.StateEvicted
}

// noLiveArbiter reports whether no source remains to arbitrate a gap
// round. While any source is live — even one whose stream has ended,
// since close lingers until all targets drain — queries must go to it
// instead of skipping unilaterally.
func (f *mcFeed) noLiveArbiter(now time.Duration) bool {
	for s := range f.t.readers {
		if !f.departed(s, now) {
			return false
		}
	}
	return true
}

// skipTo moves the head past the sequence numbers below next, counting
// them as progress so source credit keeps flowing.
func (f *mcFeed) skipTo(p transport.Ctx, next uint64) {
	n := next - f.nextGlobal
	f.nextGlobal = next
	f.totalDelivered += n
	f.gapsSkipped.Add(n)
	f.gapSince, f.gapNacks, f.arbiter = 0, 0, -1
	f.broadcastProgress(p)
}

// scan obtains the next in-order segment's payload, recycling the one
// handed out before and handling gap timeouts: poll, deliver the head if
// it is here, otherwise climb the gap ladder and wait for an arrival.
//
// The ladder is NACK rounds, and on an ordered flow, once
// Options.GapNackLimit rounds go unanswered with a source declared
// failed, gap agreement: nothing is skipped unilaterally while an
// arbiter is reachable. The stuck target delivers a refilled copy or
// skips exactly the sequences the live membership agreed are unfillable
// — the same verdict every peer applies, which is what keeps the global
// order identical across targets.
func (f *mcFeed) scan(p transport.Ctx) ([]byte, bool) {
	t := f.t
	o := &t.spec.Options
	if f.active != nil {
		f.recycle(f.active)
		f.active = nil
	}
	f.poll(p)
	if t.syncMembership() {
		return nil, false
	}
	// A source this target keeps waiting is not silent, however long its
	// turn takes to come.
	now := p.Now()
	for s, r := range t.readers {
		if !r.closed && f.keptWaiting(s) {
			r.heard(now)
		}
	}
	if o.GlobalOrdering && !f.seqSpaceKnown && f.sourceFailed() && f.countsKnown() {
		// A source died without an end marker and nothing more can be
		// drawn: consult the sequencer for the true stream extent so
		// every survivor reconciles the same sequence space instead of
		// its own delivered count. Marked known even on failure — an
		// unreachable sequencer leaves the folded floor in place.
		if v, ok := f.seqSpaceSize(p); ok {
			f.seqSpace = v
		}
		f.seqSpaceKnown = true
	}
	if f.skips[f.nextGlobal] {
		next := f.nextGlobal
		for f.skips[next] {
			next++
		}
		f.skipTo(p, next)
		return nil, false
	}
	if buf, src, ok := f.headDeliverable(); ok {
		return f.deliver(p, buf, src), true
	}
	if f.finished() {
		for s, r := range t.readers {
			f.sendFinalCredit(p, s)
			r.closed = true
		}
		if o.GlobalOrdering && (o.LeaseTTL > 0 || f.sourceFailed()) {
			f.spawnGapResponder(p)
		}
		return nil, false
	}
	// Head segment missing: a gap if anything newer already arrived or
	// the owning source has ended.
	if len(f.pending) > 0 || f.anyEndedWithMissing() {
		if f.gapSince == 0 {
			f.gapSince = p.Now()
		} else if p.Now()-f.gapSince >= o.GapTimeout && f.gapTimedOut(p) {
			return nil, false
		}
	}
	f.waitArrival(p)
	return nil, false
}

// gapTimedOut takes the next step up the gap ladder for the head gap,
// which has stood for a GapTimeout. It reports whether the head moved,
// so that the pass ends without waiting.
func (f *mcFeed) gapTimedOut(p transport.Ctx) bool {
	o := &f.t.spec.Options
	ordered, limit := o.GlobalOrdering, o.GapNackLimit
	seq, src := f.headMissing()
	switch {
	case f.frozenSeq(seq):
		// A round's verdict is pending for the head; the arbiter will
		// fill or skip it. Keep waiting — unless the arbiter died
		// mid-round, taking the verdict with it: thaw and let the ladder
		// decide next timeout.
		if f.noLiveArbiter(p.Now()) {
			delete(f.frozen, seq)
		}
		f.gapSince = p.Now()
	case ordered && f.gapNacks >= 2*limit && f.countsKnown() && f.sourceFailed() && f.noLiveArbiter(p.Now()):
		// Tail fallback: every source has ended, queries go unanswered,
		// and NO live arbiter remains (each slot failed, or left after
		// its close linger). Only then may a target skip unilaterally;
		// nobody is left to disagree.
		f.skipTo(p, seq+1)
		return true
	case ordered && f.gapNacks >= limit && f.sourceFailed():
		// NACKs went unanswered and a source is gone: its retransmission
		// history died with it. Escalate to the agreement round
		// (re-queried every timeout while stuck; the arbiter resends
		// probes idempotently).
		f.sendGapQuery(p, seq)
		f.gapNacks++
		f.gapSince = p.Now()
	default:
		f.sendNack(p, seq, src)
		f.gapNacks++
		f.gapSince = p.Now() // restart the timeout for the NACK
	}
	return false
}

// frozenSeq reports whether seq awaits an agreement verdict here.
func (f *mcFeed) frozenSeq(seq uint64) bool {
	_, fr := f.frozen[seq]
	return fr
}

// spawnGapResponder keeps a finished target answering agreement probes:
// a peer may still be stuck in a round that needs this target's
// delivered history, and the main consume loop has returned. The
// responder polls the reliable QPs and exits once every source has
// departed (membership reads are free) — the termination chain is: stuck
// requester keeps its arbiter's close lingering, the responder serves the
// round, the requester finishes, close returns, the sources leave, the
// responder exits. A lease-less flow runs one only after a source failed:
// without a failure no round can open, and no lease tells it when to
// stop.
func (f *mcFeed) spawnGapResponder(p transport.Ctx) {
	if f.responderUp {
		return
	}
	f.responderUp = true
	t := f.t
	t.meta.cluster.Spawn(p, fmt.Sprintf("mc-gap-responder:%s:%d", t.spec.Name, t.idx), func(rp transport.Ctx) {
		iv := t.spec.Options.GapTimeout
		if iv <= 0 {
			iv = 5 * time.Microsecond
		}
		for {
			if t.node.Crashed(rp.Now()) || t.evicted.Load() || f.noLiveArbiter(rp.Now()) {
				return
			}
			f.pollReliable(rp)
			rp.Sleep(iv)
		}
	})
}

// anyEndedWithMissing reports whether ended sources leave undelivered
// segments (a tail loss that produces no newer arrivals). For ordered
// flows the check runs in global sequence space once all sources ended.
func (f *mcFeed) anyEndedWithMissing() bool {
	if f.t.spec.Options.GlobalOrdering {
		return f.countsKnown() && f.nextGlobal < f.totalExpected()
	}
	for s, e := range f.end {
		if e != noEnd && !f.delivered(s) {
			return true
		}
	}
	return false
}

// headMissing identifies the missing sequence number blocking delivery.
func (f *mcFeed) headMissing() (seq uint64, src int) {
	if f.t.spec.Options.GlobalOrdering {
		return f.nextGlobal, 0
	}
	for s, e := range f.end {
		if e != noEnd && !f.delivered(s) {
			return f.nextSeq[s], s
		}
	}
	for s, e := range f.end {
		if e == noEnd {
			if _, ok := f.pending[f.key(s, f.nextSeq[s])]; !ok {
				return f.nextSeq[s], s
			}
		}
	}
	return 0, 0
}

// waitArrival blocks briefly for the next message on any receive queue.
func (f *mcFeed) waitArrival(p transport.Ctx) {
	d := f.t.spec.Options.GapTimeout / 4
	if d <= 0 {
		d = 5 * time.Microsecond
	}
	f.ep.RecvCQ().WaitNonEmpty(p, d)
}

func (f *mcFeed) free() { f.poolMR.Deregister() }
