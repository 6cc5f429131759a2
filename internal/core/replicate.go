package core

import (
	"encoding/binary"
	"fmt"
	"slices"
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
// membership fold and Stats are the engine's;
// this file is what rides on two-sided unreliable multicast instead of
// one-sided ring writes:
//
//   - Targets pre-populate their receive queues with as many buffers as
//     the credit score allows; sources track per-target credit from a
//     back-flow of credit messages, so ordinary sends need no
//     coordination.
//   - Segments carry sequence numbers. A target receives them as streams,
//     one per sequence space: one per source on an unordered flow (each
//     source's segments in its order), served round-robin, and one over
//     the global sequence on an ordered flow. Each stream detects losses
//     as gaps at its own head and, after a configurable timeout, requests
//     retransmission with a NACK on a reliable reverse queue pair.
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
// evicted source's slot ends at what was delivered from it, an evicted
// target is detached from the group and the credit accounting — the
// registry's verdict is the only one, no silence bound runs beside it
// — and a rejoining target resumes from an installable sequencer
// snapshot. Without a lease nothing changes membership: a source that
// hears nothing from a target it waits on for the retransmission budget
// breaks the flow (mcTx.silenceBound).

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
// targets have answered the probe for the sequence number. Excluded
// targets are pre-answered — the evicted cannot vote.
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

	// sent is the retransmission history, the last 4R segments flushed or
	// refilled, in a ring in insertion order (sentAt is overwritten next)
	// whose entries reuse their buffers. It is not indexed by sequence
	// (an ordered source's are sparse): a NACK or a query scans it.
	sent   []heldSeg
	sentAt int
	seqQP  transport.Queue // to the sequencer node (ordered flows)

	// broken ends the stream where it stands: the sequencer's node
	// crashed, so nothing more can be ordered, or a target stayed silent
	// past silenceBound. Every later flush returns it.
	broken error

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

	// excluded marks the targets the membership fold took out of the
	// group (evicted, or evicted before they opened): no credit gating,
	// no end marker, no vote. heard is when each target last sent any
	// control message — credit, NACK or agreement traffic — the proof of
	// life silenceBound is measured against.
	excluded []bool
	heard    []time.Duration

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
		s:          s,
		group:      s.meta.group,
		msg:        make([]byte, transport.SegDescBytes+o.SegmentSize),
		credit:     o.SegmentsPerRing,
		consumedBy: make([]uint64, nTgt),
		sent:       make([]heldSeg, 4*o.SegmentsPerRing),
		folded:     s.epoch,
		fqps:       make([]transport.Queue, nTgt),
		tinc:       make([]uint64, nTgt),
		excluded:   make([]bool, nTgt),
		heard:      make([]time.Duration, nTgt),
		ownIdx:     make([]int, nTgt),
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
		x.excluded[j] = true
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

// silenceBound returns how long a lease-less source waits on a target it
// hears nothing from before it breaks the flow (0 disables, keeping the
// waits unbounded). The verdict is fail-stop: the flow breaks and the
// target stays a member, so no live target is ever left attached without
// credit. A leased flow has no such bound: only the registry detaches a
// target (foldTargets), so a slow member is never given up on while its
// lease says it is alive.
func (x *mcTx) silenceBound() time.Duration {
	o := &x.s.spec.Options
	if o.LeaseTTL > 0 || o.RetransmitTimeout <= 0 {
		return 0
	}
	return o.RetransmitTimeout * time.Duration(o.MaxRetransmits+1)
}

// silent reports whether target j has been heard from neither since the
// wait began at since nor in the bound before now.
func (x *mcTx) silent(j int, since, now, bound time.Duration) bool {
	return bound > 0 && now-max(since, x.heard[j]) > bound
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
			if !x.excluded[j] {
				x.excluded[j] = true
				x.group.Detach(j)
			}
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
// progress.
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
	x.excluded[j] = false
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
	if x.broken != nil {
		return x.broken
	}
	if x.fill == 0 {
		return nil
	}
	if err := x.awaitCredit(p); err != nil {
		return err
	}
	x.drainControl(p)
	if !slices.Contains(x.excluded, false) {
		return fmt.Errorf("%w: every replicate target was evicted", ErrFlowBroken)
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
			x.broken = fmt.Errorf("%w: sequencer node for flow %q is unreachable", ErrFlowBroken, s.spec.Name)
			return x.broken
		}
		seq = v
		x.ownSeqs = append(x.ownSeqs, seq)
	}
	transport.SegDesc{Fill: uint32(x.fill), Flags: transport.SegCommitted, Tag: mcTag(s.idx, x.folded), Seq: seq}.Put(x.msg)

	// The retained copy is what goes out: the staging message is refilled
	// at once, while the copy stays put until 4R more segments went out,
	// and by then credit gating has every live target holding it.
	msg := x.retain(seq, x.msg[:transport.SegDescBytes+x.fill])
	x.group.Send(p, s.node, msg, false)
	x.segsWritten.Add(1)
	x.payloadBytes.Add(uint64(x.fill))
	x.fill = 0
	return nil
}

// retain keeps a copy of segment seq in the history ring, in the place of
// the oldest entry and in its buffer, and returns the copy.
func (x *mcTx) retain(seq uint64, seg []byte) []byte {
	h := &x.sent[x.sentAt]
	x.sentAt = (x.sentAt + 1) % len(x.sent)
	h.keep(seq, seg)
	return h.seg
}

// retained returns the history's copy of segment seq, or nil once the
// ring has moved past it.
func (x *mcTx) retained(seq uint64) []byte {
	for i := range x.sent {
		if x.sent[i].holds(seq) {
			return x.sent[i].seg
		}
	}
	return nil
}

// awaitCredit blocks while any member's outstanding window is full,
// waiting on the first such laggard. On a lease-less flow with
// RetransmitTimeout set, a gating target heard nothing from for
// silenceBound since the wait began breaks the flow — a crashed target
// must not wedge the surviving replicas, and a live one must not be cut
// off from its NACKs and its end marker. Membership changes are folded
// while gated: on a leased flow the eviction of a crashed target is what
// releases the gate.
func (x *mcTx) awaitCredit(p transport.Ctx) error {
	bound, since, stalled := x.silenceBound(), p.Now(), -1
	for {
		if err := x.foldTargets(p); err != nil {
			return err
		}
		lag, now := -1, p.Now()
		for j := range x.consumedBy {
			if x.excluded[j] || int(x.segsWritten.Load()-x.consumedBy[j]) < x.credit {
				continue
			}
			if x.silent(j, since, now, bound) {
				x.broken = fmt.Errorf("%w: replicate target %d stopped responding", ErrFlowBroken, j)
				return x.broken
			}
			if lag < 0 {
				lag = j
			}
		}
		if lag < 0 {
			return nil
		}
		if lag != stalled {
			stalled = lag
			x.creditStalls.Add(1)
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
	x.heard[target] = p.Now()
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
			x.consumedBy[target] = max(x.consumedBy[target], uint64(i))
		} else {
			x.consumedBy[target] = max(x.consumedBy[target], m.value)
		}
	case ctrlNack:
		if msg := x.retained(m.value); msg != nil {
			// Reliable unicast retransmission to the requesting target.
			x.fqps[target].Send(p, msg, false, 0)
			x.retransmits.Add(1)
		}
	case ctrlGapQuery:
		x.handleGapQuery(p, target, m.value)
	case ctrlGapHave:
		x.handleGapHave(p, m.value, payload)
	case ctrlGapNoHave:
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
	if msg := x.retained(seq); msg != nil {
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
		if x.excluded[j] {
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
		x.retain(seq, payload)
	}
	msg := x.retained(seq)
	if msg == nil {
		return
	}
	for j := range x.fqps {
		if x.excluded[j] {
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
		if x.excluded[j] {
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
		if x.excluded[j] {
			continue
		}
		x.sendGapCtrl(p, j, ctrlGapSkip, seq)
	}
}

// finish is flush: delivery is confirmed by the linger that follows the
// end markers. A broken stream ends where it stands, so the end markers
// go out at once — to every member, a silent one included — or the
// targets would wait on this source forever; the flush's error is the one
// to report.
func (x *mcTx) finish(p transport.Ctx) error {
	err := x.flush(p)
	if x.broken != nil {
		x.end(p)
	}
	return err
}

// end sends reliable end markers carrying the per-source segment count
// and lingers until every member has consumed everything — serving
// retransmission requests and arbitrating gap rounds meanwhile. On a
// lease-less flow with RetransmitTimeout set the linger is bounded like
// awaitCredit: it keeps serving every target that still talks, stops
// waiting on one silent for silenceBound since the linger began, and
// names those in an ErrFlowBroken-wrapped error instead of hanging.
// Lease evictions folded mid-linger release their targets immediately.
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
		if x.excluded[j] {
			continue
		}
		qp.Send(p, end, false, 0)
	}
	bound, since := x.silenceBound(), p.Now()
	var silent []int
	waiting := func(j int) bool { return !x.excluded[j] && !slices.Contains(silent, j) }
	for {
		if err := x.foldTargets(p); err != nil {
			return err
		}
		pending := false
		for j, v := range x.consumedBy {
			if !waiting(j) || v >= x.segsWritten.Load() {
				continue
			}
			if x.silent(j, since, p.Now(), bound) {
				silent = append(silent, j)
				continue
			}
			pending = true
		}
		if !pending {
			break
		}
		for j, qp := range x.fqps {
			if !waiting(j) {
				continue
			}
			if c, ok := qp.RecvCQ().WaitTimeout(p, x.s.spec.Options.GapTimeout); ok {
				x.handleControl(p, j, c)
			}
		}
		x.drainControl(p)
	}
	if len(silent) > 0 {
		return fmt.Errorf("%w: replicate targets %v stopped responding", ErrFlowBroken, silent)
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
// and hands out segments in sequence order. It keeps one receive stream
// per sequence space (rxStream): an ordered flow has one, over the global
// sequence; an unordered flow has one per source, served round-robin.
// The per-source state the engine keeps in Target.readers serves it too —
// consumed is the count of segments delivered from the source, and the
// readers close together, when the whole flow is delivered.
type mcFeed struct {
	t       *Target
	ordered bool

	ep   transport.GroupEndpoint
	tqps []transport.Queue // reliable QP from each source (target end)

	pool   [][]byte // recycled receive buffers
	poolMR transport.Region

	// The receive streams; window is how far past its head a stream
	// admits a segment (see newMcFeed), served the stream delivered from
	// last.
	streams []rxStream
	window  uint64
	served  int

	// Per-source protocol state. end is the source's segment count, from
	// its end marker or — for a source that failed without one — what was
	// delivered from it (noEnd until either).
	end       []uint64
	creditAcc []uint64 // segments consumed since last credit msg

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

	// Progress reporting (leased ordered flows): the head at which
	// RecordSeqProgress is called next.
	progressAt uint64

	// Sequencer access (ordered flows): once every source has ended or
	// failed, the counter's value is the exact global sequence-space
	// size — the authoritative stream extent even when a source crashed
	// mid-stream without an end marker (see scan).
	seqQP         transport.Queue
	seqSpace      uint64
	seqSpaceKnown bool

	// Scrape-visible recovery counters (see TargetStats).
	nacksSent   atomic.Uint64
	gapsSkipped atomic.Uint64

	active []byte // buffer backing the segment handed out last
}

// rxStream is one sequence space's receive state, the next list of paper
// Figure 6 (the receive list is the fabric's receive queue). Segments are
// delivered from it in sequence order, and one that arrives ahead of the
// head waits in pending. The stream has a gap when its head is missing
// while something newer was seen or its extent reaches past the head;
// the gap clock and the NACK count belong to the head and restart when it
// moves.
type rxStream struct {
	next     uint64            // the head: sequence number delivered next
	top      uint64            // one past the highest sequence number seen
	pending  map[uint64][]byte // arrived ahead of delivery, by sequence number
	gapSince time.Duration     // when the head gap was first observed (0: none)
	nacks    int               // NACK rounds sent for the head gap
}

// heldSeg is one retained segment — delivered and kept for gap probes on
// the target, sent and kept for retransmission on the source: its
// sequence number and a copy whose buffer the ring reuses (nil until
// first used).
type heldSeg struct {
	seq uint64
	seg []byte
}

// keep overwrites the entry with a copy of segment seq, in its buffer.
func (h *heldSeg) keep(seq uint64, seg []byte) { h.seq, h.seg = seq, append(h.seg[:0], seg...) }

// holds reports whether the entry holds a copy of segment seq.
func (h *heldSeg) holds(seq uint64) bool { return h.seg != nil && h.seq == seq }

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
		ordered:   o.GlobalOrdering,
		streams:   make([]rxStream, nSrc),
		window:    uint64(R),
		end:       make([]uint64, nSrc),
		creditAcc: make([]uint64, nSrc),
	}
	for i := range f.end {
		f.end[i] = noEnd
		t.readers = append(t.readers, &ringReader{})
	}
	if f.ordered {
		f.streams, f.window = make([]rxStream, 1), uint64(2*nSrc*R)
		f.dhist = make([]heldSeg, 2*nSrc*R+16)
		f.skips = make(map[uint64]bool)
		f.frozen = make(map[uint64]int)
		f.seqQP, _ = t.meta.cluster.Dial(t.node, t.meta.seqMR.Owner())
	}
	for i := range f.streams {
		f.streams[i].pending = make(map[uint64][]byte)
	}
	stride := transport.SegDescBytes + o.SegmentSize
	// One slab backs all receive buffers (registered for accounting). The
	// queues hold the posted ones at all times (nSrc*R on the group
	// endpoint, R+2 on each reliable queue); the other posted+8 hold the
	// active segment, the arrival ingest replaced, and what the streams
	// admit: each only inside its window past its head, R unordered (a
	// source's credit keeps it within R of this target's consumption),
	// 2*nSrc*R ordered (twice what credit lets all sources have past the
	// head). Every member the group still sends to holds its sources to
	// its credit — an evicted one is detached, and a lease-less source
	// breaks the flow rather than stop waiting on a silent one — so
	// nothing outruns the windows; should a segment land past one anyway,
	// it is recycled, for a NACK to recover once the head gets there.
	posted := nSrc*R + nSrc*(R+2)
	nBufs := 2*posted + 8
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
	g := &f.streams[0]
	g.next = snap.HighWater
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
	f.progressAt = g.next + uint64(t.spec.Options.SegmentsPerRing)
	if err := t.reg.Rejoin(p, name, registry.RoleTarget, t.idx); err != nil {
		return fmt.Errorf("dfi: rejoin of target %d rejected: %w", t.idx, err)
	}
	t.initTargetMembership(mem)
	// Announce the resumed progress so reconnecting sources restart their
	// credit from the high-water (RC queues the message until the source
	// posts its receives).
	f.credit(p, 0)
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
		// Pool exhaustion cannot happen within the streams' windows; guard
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
// that followed it (so never more than a segment), is dropped. A segment
// is admitted into its stream once, and only inside the stream's window.
func (f *mcFeed) ingest(p transport.Ctx, buf []byte, bytes int, origin recvOrigin) {
	origin.PostRecv(f.takeBuf(), 0)
	t := f.t
	if f.ordered && isGapCtrl(buf, bytes) {
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
	if d.Flags&transport.SegEnd != 0 && d.Fill == 0 {
		// End marker: seq carries the source's total segment count.
		if f.end[src] == noEnd {
			f.end[src] = seq
		}
		f.recycle(buf)
		return
	}
	st := &f.streams[f.streamOf(src)]
	// Duplicate filtering: already delivered, already pending, or agreed
	// skipped (a late copy of a sequence the flow has moved past).
	if _, held := st.pending[seq]; seq < st.next || held || f.skips[seq] {
		f.recycle(buf)
		return
	}
	st.top = max(st.top, seq+1)
	if seq-st.next >= f.window {
		f.recycle(buf) // seen, so the head has a gap to recover
		return
	}
	st.pending[seq] = buf[:bytes]
	if prober, fr := f.frozen[seq]; fr {
		// A copy arrived after this target answered NoHave: hand it to
		// the arbiter proactively so the round resolves as a fill. The
		// sequence stays frozen until the verdict arrives.
		f.sendGapAnswer(p, prober, ctrlGapHave, seq, st.pending[seq])
	}
}

// handleGapCtrl processes one agreement control message from a source.
func (f *mcFeed) handleGapCtrl(p transport.Ctx, m ctrlMsg) {
	src, seq := int(m.slot), m.value
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
	g := &f.streams[0]
	if f.skips[seq] || seq < g.next {
		if b := f.held(seq); b != nil {
			f.sendGapAnswer(p, src, ctrlGapHave, seq, b)
			return
		}
		// Already skipped here (or delivered beyond the history window,
		// which credit gating makes unreachable for live heads).
		f.sendGapAnswer(p, src, ctrlGapNoHave, seq, nil)
		return
	}
	if b, ok := g.pending[seq]; ok {
		f.sendGapAnswer(p, src, ctrlGapHave, seq, b)
		return
	}
	f.frozen[seq] = src
	f.sendGapAnswer(p, src, ctrlGapNoHave, seq, nil)
}

// sendGapAnswer sends one agreement answer, with the segment copy
// appended for Have.
func (f *mcFeed) sendGapAnswer(p transport.Ctx, src int, kind byte, seq uint64, payload []byte) {
	f.tqps[src].Send(p, ctrlMsg{kind, byte(f.t.idx), seq}.encode(payload), false, 0)
}

// applySkip records an agreed-unfillable sequence. A pending copy is
// discarded — the verdict is final, and delivering a segment the peers
// skipped would break the identical-order guarantee — and when it was the
// newest the stream had seen, the stream's top falls back to the newest
// it still holds: what nobody will deliver is no gap. The head loop
// advances past the skip on its next pass.
func (f *mcFeed) applySkip(seq uint64) {
	delete(f.frozen, seq)
	g := &f.streams[0]
	if seq < g.next {
		return
	}
	if b, ok := g.pending[seq]; ok {
		delete(g.pending, seq)
		f.recycle(b)
		if seq+1 == g.top {
			g.top = g.next
			for k := range g.pending {
				g.top = max(g.top, k+1)
			}
		}
	}
	f.skips[seq] = true
}

// sendGapQuery escalates a stuck head gap to the arbiter — the lowest
// source slot not declared failed — which runs the agreement round.
func (f *mcFeed) sendGapQuery(p transport.Ctx, seq uint64) {
	for s, r := range f.t.readers {
		if !r.failed.Load() {
			f.tqps[s].Send(p, ctrlMsg{ctrlGapQuery, byte(f.t.idx), seq}.encode(nil), false, 0)
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

// streamOf returns the index of the stream source src's segments go to.
func (f *mcFeed) streamOf(src int) int {
	if f.ordered {
		return 0
	}
	return src
}

// tell sends m to the sources of stream i: its own source on an
// unordered flow, every source on an ordered flow, which cannot tell
// which source owns a global sequence number (only the owner finds a
// NACKed one in its history).
func (f *mcFeed) tell(p transport.Ctx, i int, m ctrlMsg) {
	qps := f.tqps
	if !f.ordered {
		qps = qps[i : i+1]
	}
	for _, qp := range qps {
		qp.Send(p, m.encode(nil), false, 0)
	}
}

// credit reports stream i's head to its sources, as flow-control credit
// and as the termination handshake. An unordered stream's head is the
// count of segments delivered from its source; the ordered stream's is
// the global progress, agreed skips included, which each source
// translates into its own credit.
func (f *mcFeed) credit(p transport.Ctx, i int) {
	f.tell(p, i, ctrlMsg{kind: ctrlCredit, value: f.streams[i].next})
}

// deliverable reports whether st's head is here and may be delivered: a
// frozen head (this target answered NoHave for it) is withheld until the
// agreement verdict resolves it as a fill or a skip.
func (f *mcFeed) deliverable(st *rxStream) bool {
	_, here := st.pending[st.next]
	return here && !f.frozenSeq(st.next)
}

// ready returns the stream to deliver from next, or -1 when no stream's
// head may be delivered. Streams are served round-robin, starting after
// the one served last, so no source's stream waits on another's running
// dry.
func (f *mcFeed) ready() int {
	n := len(f.streams)
	for k := 1; k <= n; k++ {
		if i := (f.served + k) % n; f.deliverable(&f.streams[i]) {
			return i
		}
	}
	return -1
}

// extent returns stream i's length once it is known, and noEnd before:
// an unordered stream's is its source's segment count, the ordered
// stream's the global sequence space once every source's count is known.
func (f *mcFeed) extent(i int) uint64 {
	switch {
	case !f.ordered:
		return f.end[i]
	case f.countsKnown():
		return f.totalExpected()
	}
	return noEnd
}

// stalled reports whether stream i has a gap at its head: the head may
// not be delivered while something newer was seen or the stream's extent
// reaches past it.
func (f *mcFeed) stalled(i int) bool {
	st := &f.streams[i]
	if f.deliverable(st) {
		return false
	}
	e := f.extent(i)
	return st.top > st.next || e != noEnd && st.next < e
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

// finished reports whether every stream was delivered to its extent. The
// ordered stream tracks progress in global sequence space, so agreed
// skips count as handled.
func (f *mcFeed) finished() bool {
	for i := range f.streams {
		if f.streams[i].next < f.extent(i) {
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

// deliver hands out stream i's head for consumption and returns its
// tuple payload. The head moves, so its gap clock restarts. The tuples'
// consume cost is charged before the credit goes back: a source is told
// of room only once the target has paid for what took it.
func (f *mcFeed) deliver(p transport.Ctx, i int) []byte {
	t, st := f.t, &f.streams[i]
	seq := st.next
	buf := st.pending[seq]
	delete(st.pending, seq)
	st.next++
	st.gapSince, st.nacks = 0, 0
	f.served = i
	src := mcSrc(transport.ParseSegDesc(buf).Tag)
	t.readers[src].consumed.Add(1)
	f.creditAcc[src]++

	if f.ordered {
		f.retainDelivered(seq, buf)
		if t.spec.Options.LeaseTTL > 0 {
			f.reportProgress(p)
		}
	}
	data := buf[transport.SegDescBytes:]
	data = data[:len(data)/t.tupleSize*t.tupleSize]
	t.charge(p, data)
	f.active = buf

	if f.creditAcc[src] >= max(uint64(t.spec.Options.SegmentsPerRing/4), 1) {
		f.creditAcc[src] = 0
		f.credit(p, i)
	}
	if t.readers[src].consumed.Load() >= f.end[src] {
		f.credit(p, i) // all of src delivered: the termination handshake
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
	f.dhist[seq%uint64(len(f.dhist))].keep(seq, seg)
}

// held returns the retained copy of delivered sequence seq, or nil once
// the ring has moved past it.
func (f *mcFeed) held(seq uint64) []byte {
	if h := &f.dhist[seq%uint64(len(f.dhist))]; h.holds(seq) {
		return h.seg
	}
	return nil
}

// reportProgress periodically merges this target's delivery progress
// into the registry's sequencer record (every R segments): the raw
// material of the snapshot a rejoining target installs. Only leased flows
// report: nothing else can rejoin, and the call is a registry RPC.
func (f *mcFeed) reportProgress(p transport.Ctx) {
	t, head := f.t, f.streams[0].next
	if head < f.progressAt {
		return
	}
	f.progressAt = head + uint64(t.spec.Options.SegmentsPerRing)
	per := make([]uint64, len(t.readers))
	for i, r := range t.readers {
		per[i] = r.consumed.Load()
	}
	_ = t.reg.RecordSeqProgress(p, t.spec.Name, t.idx, head, per)
}

// drop ends source s's slot — the membership evicted it, or this target
// is going away: the slot ends at its delivered count, and on an
// unordered flow its stream lets go of what it held behind its head (the
// predecessors died with the source's retransmission history). A source that died after its end
// marker arrived keeps its true stream length: overwriting it with this
// target's delivered count would shrink totalExpected by a target-local
// amount and make the survivors finish at divergent points. The reader
// the engine closed is opened again: an ordered flow may still hold
// segments of the source that are due, and scan closes every reader
// together once the flow's extent is delivered — so that the engine's
// flow end is finished().
func (f *mcFeed) drop(s int) {
	if f.end[s] == noEnd {
		f.end[s] = f.t.readers[s].consumed.Load()
	}
	if !f.ordered {
		st := &f.streams[s]
		for _, b := range st.pending {
			f.recycle(b)
		}
		clear(st.pending)
		st.top = st.next
	}
	f.t.readers[s].closed = false
}

// departed reports whether source s can arbitrate no more: the
// membership evicted it, or it released its lease after its close
// linger. A lease-less source says nothing when it leaves, so it counts
// as gone once its reader closed.
func (f *mcFeed) departed(s int) bool {
	r := f.t.readers[s]
	if r.failed.Load() {
		return true
	}
	if f.t.spec.Options.LeaseTTL <= 0 {
		return r.closed
	}
	st := f.t.mem.State(registry.RoleSource, s)
	return st == registry.StateLeft || st == registry.StateEvicted
}

// noLiveArbiter reports whether no source remains to arbitrate a gap
// round. While any source is live — even one whose stream has ended,
// since close lingers until all targets drain — queries must go to it
// instead of skipping unilaterally.
func (f *mcFeed) noLiveArbiter() bool {
	for s := range f.t.readers {
		if !f.departed(s) {
			return false
		}
	}
	return true
}

// skipTo moves the ordered head past the sequence numbers below next,
// counting them as progress so source credit keeps flowing.
func (f *mcFeed) skipTo(p transport.Ctx, next uint64) {
	g := &f.streams[0]
	f.gapsSkipped.Add(next - g.next)
	g.next = next
	g.gapSince, g.nacks = 0, 0
	f.credit(p, 0)
}

// scan obtains the next in-order segment's payload, recycling the one
// handed out before and handling gap timeouts: poll, let every stream
// with a gap at its head climb its gap ladder, deliver the next stream's
// head if it is here, otherwise wait for an arrival. Every stream keeps
// its own gap clock, checked on every pass, so one stream's deliveries
// hold up no other's recovery.
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
	if f.ordered && !f.seqSpaceKnown && f.sourceFailed() && f.countsKnown() {
		// A source died without an end marker and nothing more can be
		// drawn: the sequencer's counter (a 0-delta fetch-add) is the
		// exact stream extent, sequences a crashed source drew but never
		// multicast included, so every survivor reconciles the same
		// sequence space instead of its own delivered count. Marked known
		// even on failure — an unreachable sequencer leaves the folded
		// floor in place.
		if v, ok := f.seqQP.FetchAdd(p, transport.Addr{MR: t.meta.seqMR}, 0); ok {
			f.seqSpace = v
		}
		f.seqSpaceKnown = true
	}
	if g := &f.streams[0]; f.skips[g.next] {
		next := g.next
		for f.skips[next] {
			next++
		}
		f.skipTo(p, next)
		return nil, false
	}
	i := f.ready()
	if i < 0 && f.finished() {
		for s, r := range t.readers {
			f.credit(p, f.streamOf(s))
			r.closed = true
		}
		if f.ordered && (o.LeaseTTL > 0 || f.sourceFailed()) {
			f.spawnGapResponder(p)
		}
		return nil, false
	}
	for j := range f.streams {
		if !f.stalled(j) {
			continue
		}
		if st := &f.streams[j]; st.gapSince == 0 {
			st.gapSince = p.Now()
		} else if p.Now()-st.gapSince >= o.GapTimeout && f.gapTimedOut(p, j) {
			return nil, false
		}
	}
	if i >= 0 {
		return f.deliver(p, i), true
	}
	f.waitArrival(p)
	return nil, false
}

// gapTimedOut takes the next step up stream i's gap ladder, its head gap
// having stood for a GapTimeout. It reports whether the head moved, so
// that the pass ends without waiting.
func (f *mcFeed) gapTimedOut(p transport.Ctx, i int) bool {
	st, limit := &f.streams[i], f.t.spec.Options.GapNackLimit
	seq := st.next
	switch {
	case f.frozenSeq(seq):
		// A round's verdict is pending for the head; the arbiter will
		// fill or skip it. Keep waiting — unless the arbiter died
		// mid-round, taking the verdict with it: thaw and let the ladder
		// decide next timeout.
		if f.noLiveArbiter() {
			delete(f.frozen, seq)
		}
		st.gapSince = p.Now()
	case f.ordered && st.nacks >= 2*limit && f.countsKnown() && f.sourceFailed() && f.noLiveArbiter():
		// Tail fallback: every source has ended, queries go unanswered,
		// and NO live arbiter remains (each slot failed, or left after
		// its close linger). Only then may a target skip unilaterally;
		// nobody is left to disagree.
		f.skipTo(p, seq+1)
		return true
	case f.ordered && st.nacks >= limit && f.sourceFailed():
		// NACKs went unanswered and a source is gone: its retransmission
		// history died with it. Escalate to the agreement round
		// (re-queried every timeout while stuck; the arbiter resends
		// probes idempotently).
		f.sendGapQuery(p, seq)
		st.nacks++
		st.gapSince = p.Now()
	default:
		f.nacksSent.Add(1)
		f.tell(p, i, ctrlMsg{kind: ctrlNack, value: seq})
		st.nacks++
		st.gapSince = p.Now() // restart the timeout for the NACK
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
			if t.node.Crashed(rp.Now()) || t.evicted.Load() || f.noLiveArbiter() {
				return
			}
			f.pollReliable(rp)
			rp.Sleep(iv)
		}
	})
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
