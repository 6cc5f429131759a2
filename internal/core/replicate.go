package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
)

// Multicast replicate flows (paper §5.4) ride on two-sided unreliable
// multicast instead of one-sided ring writes:
//
//   - Targets pre-populate their receive queues with as many buffers as
//     the credit score allows; sources track per-target credit from a
//     back-flow of credit messages, so ordinary sends need no
//     coordination.
//   - Segments carry sequence numbers; targets detect losses as gaps and,
//     after a configurable timeout, request retransmission with a NACK on
//     a reliable reverse queue pair (or surface the gap to the
//     application when Options.NotifyGaps is set — the NOPaxos use case).
//   - Globally ordered flows draw sequence numbers from a tuple sequencer
//     (an RDMA fetch-and-add counter) and reorder out-of-order arrivals at
//     the target with a receive list / next list (paper Figure 6).
//
// End-of-flow markers and retransmissions travel on the reliable per-pair
// queue pairs so termination does not depend on lossy multicast.
//
// With Options.LeaseTTL set, multicast endpoints are first-class members
// of the flow's lease/epoch control plane (see docs/PROTOCOL.md,
// "Ordered replicate failure model"): segment headers carry the
// membership epoch, an evicted source triggers a bounded gap-agreement
// round over the survivors instead of a heuristic skip, an evicted
// target is detached from the group and the credit accounting, and a
// rejoining target resumes from an installable sequencer snapshot.

// A multicast message leads with the segment descriptor every ring kind
// uses (transport.SegDesc); its tag is mcTag: the source index and the
// low 16 bits of the membership epoch the sender had folded in (0 on
// flows without leases).
func mcTag(src int, epoch uint64) uint32 { return uint32(byte(src)) | uint32(uint16(epoch))<<8 }

// mcSrc is the source index in a received segment's tag.
func mcSrc(tag uint32) int { return int(byte(tag)) }

// Control message (16 bytes): kind(1) srcIdx(1) rsvd(6) value(8).
// ctrlGapHave appends a full segment copy after the fixed header.
// Control messages travel only on the reliable per-pair QPs, so none of
// them can be lost — the gap-agreement protocol needs no retries beyond
// the requester's periodic re-query.
const (
	ctrlBytes  = 16
	ctrlCredit = 1
	ctrlNack   = 2

	// Gap agreement (ordered flows under leases): when NACK rounds for a
	// head gap go unanswered and a source has failed, the stuck target
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

// Gap describes a missing global sequence number surfaced to the
// application of an ordered replicate flow with NotifyGaps.
type Gap struct {
	Seq uint64
}

// mcQPName returns the registry rendezvous key for the reliable QP between
// source i and target j of a flow. inc is the target's incarnation: a
// rejoined target publishes fresh QPs under incarnation-keyed names so
// sources folding the rejoin epoch find them without colliding with the
// previous incarnation's entries.
func mcQPName(flow string, i, j int, inc uint64) string {
	if inc == 0 {
		return fmt.Sprintf("%s/mcqp/%d/%d", flow, i, j)
	}
	return fmt.Sprintf("%s/mcqp/%d/%d/i%d", flow, i, j, inc)
}

// gapRound is one gap-agreement round this source arbitrates: which
// targets have answered the probe for the sequence number. Failed
// targets are pre-answered — the dead cannot vote.
type gapRound struct {
	answered []bool
}

// mcSource is the sending half of a multicast replicate flow.
type mcSource struct {
	meta *flowMeta
	spec *FlowSpec
	idx  int
	node transport.Endpoint
	reg  Registry

	group    transport.Group
	fqps     []transport.Queue // reliable QP to each target (source end)
	ctrlBufs [][]byte          // posted control-recv buffers, recycled by index

	segBuf []byte // current segment: header + payload
	fill   int

	credit int // ring size R
	// sentSegs and payloadBytes are atomic so Source.Stats can be read
	// from a scraper goroutine mid-run; the simulation side is the only
	// writer.
	sentSegs     atomic.Uint64
	payloadBytes atomic.Uint64
	consumedBy   []uint64 // cumulative segments consumed, per target

	history    map[uint64][]byte
	histOrder  []uint64
	seqQP      transport.Queue // to the sequencer node (ordered flows)
	closedFlag bool

	// Control-plane membership (Options.LeaseTTL): the flow's record,
	// the last epoch folded in (stamped on outgoing segment headers),
	// and the target incarnation each reliable QP connected under.
	mem   *registry.Membership
	epoch uint64
	tinc  []uint64

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
	// eviction rather than the staleness detector: the leg was detached
	// cleanly by the control plane, so close excludes it from the
	// "stopped responding" error — the point-to-point replicate path
	// likewise drops an evicted leg without failing the source.
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

func newMcSource(p transport.Ctx, reg Registry, meta *flowMeta, idx int) (*mcSource, error) {
	spec := &meta.spec
	s := &mcSource{
		meta:        meta,
		spec:        spec,
		idx:         idx,
		node:        spec.Sources[idx].Node,
		reg:         reg,
		group:       meta.group,
		credit:      spec.Options.SegmentsPerRing,
		consumedBy:  make([]uint64, len(spec.Targets)),
		history:     make(map[uint64][]byte),
		segBuf:      make([]byte, transport.SegDescBytes+spec.Options.SegmentSize),
		ownIdx:      make([]int, len(spec.Targets)),
		failedTgt:   make([]bool, len(spec.Targets)),
		evictedTgt:  make([]bool, len(spec.Targets)),
		lastAdvance: make([]time.Duration, len(spec.Targets)),
		gating:      make([]bool, len(spec.Targets)),
		tinc:        make([]uint64, len(spec.Targets)),
	}
	var err error
	if s.mem, err = membershipOf(reg, spec.Name); err != nil {
		return nil, err
	}
	if spec.Options.LeaseTTL > 0 {
		s.epoch = s.mem.Epoch()
		for j := range s.tinc {
			s.tinc[j] = s.mem.Incarnation(registry.RoleTarget, j)
		}
	}
	if s.agreementEnabled() {
		s.rounds = make(map[uint64]*gapRound)
		s.agreedSkips = make(map[uint64]bool)
	}
	// Reliable per-target QPs: the source creates the pair and publishes
	// the target's end for TargetOpen to collect.
	for j, tgt := range spec.Targets {
		sq, tq := meta.cluster.Dial(s.node, tgt.Node)
		if err := reg.Publish(p, mcQPName(spec.Name, idx, j, 0), tq); err != nil {
			return nil, err
		}
		s.fqps = append(s.fqps, sq)
		// Post receives for control messages (credits / NACKs / agreement).
		s.postCtrlRecvs(sq)
	}
	if spec.Options.GlobalOrdering {
		s.seqQP, _ = meta.cluster.Dial(s.node, meta.seqMR.Owner())
	}
	return s, nil
}

// agreementEnabled reports whether the flow runs the gap-agreement
// protocol: global ordering plus the lease/epoch control plane. Without
// leases the legacy heuristic paths (unilateral skip, immediate
// NotifyGaps surfacing) are kept timing-identical.
func (s *mcSource) agreementEnabled() bool {
	return s.spec.Options.GlobalOrdering && s.spec.Options.LeaseTTL > 0
}

// ctrlBufSize is the control-recv buffer size: agreement flows must fit
// a ctrlGapHave answer carrying a full segment copy.
func (s *mcSource) ctrlBufSize() int {
	if s.agreementEnabled() {
		return ctrlBytes + transport.SegDescBytes + s.spec.Options.SegmentSize
	}
	return ctrlBytes
}

// postCtrlRecvs posts the control-message receive window on one
// reliable QP.
func (s *mcSource) postCtrlRecvs(qp transport.Queue) {
	for r := 0; r < 4; r++ {
		buf := make([]byte, s.ctrlBufSize())
		s.ctrlBufs = append(s.ctrlBufs, buf)
		qp.PostRecv(buf, uint64(len(s.ctrlBufs)-1))
	}
}

// failAfter returns how long a target's credit stream may gate the source
// before the target is declared failed (0 disables, keeping the legacy
// unbounded waits).
func (s *mcSource) failAfter() time.Duration {
	if s.spec.Options.RetransmitTimeout <= 0 {
		return 0
	}
	return s.spec.Options.RetransmitTimeout * time.Duration(s.spec.Options.MaxRetransmits+1)
}

// allTargetsFailed reports whether no live target remains.
func (s *mcSource) allTargetsFailed() bool {
	for _, f := range s.failedTgt {
		if !f {
			return false
		}
	}
	return true
}

// syncMcEpoch folds control-plane membership changes into the multicast
// transport. A no-op (one integer compare) while the epoch is unchanged.
// This source's own eviction breaks the flow (epoch fencing); an evicted
// target is detached from the multicast group and excluded from credit;
// an incarnation bump on a live target slot means the target rejoined —
// the source reconnects to the fresh reliable QP the rejoiner published
// and restarts the slot's credit accounting from the sequencer snapshot
// it installed. A lease-free multicast flow does not follow its
// membership record at all (its legacy timing is pinned).
func (s *mcSource) syncMcEpoch(p transport.Ctx) error {
	if s.spec.Options.LeaseTTL <= 0 || s.mem.Epoch() == s.epoch {
		return nil
	}
	s.epoch = s.mem.Epoch()
	if s.mem.SourceEvicted(s.idx) {
		return fmt.Errorf("%w: source %d was evicted from flow %q (epoch %d)",
			ErrFlowBroken, s.idx, s.spec.Name, s.epoch)
	}
	for j := range s.fqps {
		if s.mem.TargetEvicted(j) {
			if !s.failedTgt[j] {
				s.failedTgt[j] = true
				s.group.Detach(j)
			}
			s.evictedTgt[j] = true
			continue
		}
		if inc := s.mem.Incarnation(registry.RoleTarget, j); inc != s.tinc[j] {
			s.reconnectTarget(p, j, inc)
		}
	}
	return nil
}

// reconnectTarget folds a target rejoin: the rejoiner created fresh QP
// pairs and published this source's end under the incarnation-keyed
// rendezvous name *before* its Rejoin bumped the epoch, so the lookup
// cannot miss. The slot's credit restarts from the sequencer snapshot
// the rejoiner installed.
func (s *mcSource) reconnectTarget(p transport.Ctx, j int, inc uint64) {
	v, ok := s.reg.Lookup(p, mcQPName(s.spec.Name, s.idx, j, inc))
	if !ok {
		// Epoch bumped before publication — rejoin publishes first, so
		// this means a foreign bump raced in. Keep the slot failed; the
		// next epoch fold retries.
		s.failedTgt[j] = true
		return
	}
	qp := v.(transport.Queue)
	s.fqps[j] = qp
	s.postCtrlRecvs(qp)
	if s.spec.Options.GlobalOrdering {
		snap, _ := s.reg.SeqSnapshot(p, s.spec.Name)
		i := 0
		for i < len(s.ownSeqs) && s.ownSeqs[i] < snap.HighWater {
			i++
		}
		s.ownIdx[j] = i
		s.consumedBy[j] = uint64(i)
	} else {
		s.consumedBy[j] = s.sentSegs.Load()
	}
	s.failedTgt[j] = false
	s.evictedTgt[j] = false
	s.tinc[j] = inc
	s.gating[j] = false
	s.lastAdvance[j] = p.Now()
	if s.closedFlag {
		// The stream already closed: the end marker went to the previous
		// incarnation. Resend it on the fresh QP.
		qp.Send(p, s.endMarker(), false, 0)
	}
}

// endMarker builds the reliable end-of-flow message: a header-only
// segment whose seq field carries the per-source segment count.
func (s *mcSource) endMarker() []byte {
	end := make([]byte, transport.SegDescBytes)
	transport.SegDesc{
		Flags: transport.SegCommitted | transport.SegEnd,
		Tag:   mcTag(s.idx, s.epoch),
		Seq:   s.sentSegs.Load(), // segment count
	}.Put(end)
	return end
}

// push appends a tuple, transmitting the segment when full (bandwidth
// mode) or immediately (latency mode).
func (s *mcSource) push(p transport.Ctx, t schema.Tuple) error {
	if s.fill+len(t) > s.spec.Options.SegmentSize {
		if err := s.sendSegment(p, false); err != nil {
			return err
		}
	}
	copy(s.segBuf[transport.SegDescBytes+s.fill:], t)
	s.fill += len(t)
	if s.spec.Options.Optimization == OptimizeLatency {
		return s.sendSegment(p, false)
	}
	return nil
}

func (s *mcSource) flush(p transport.Ctx) error {
	if s.fill > 0 {
		return s.sendSegment(p, false)
	}
	return nil
}

// sendSegment stamps the header, draws a sequence number (global for
// ordered flows, per-source otherwise), retains the segment for
// retransmission, and multicasts it.
func (s *mcSource) sendSegment(p transport.Ctx, end bool) error {
	if err := s.syncMcEpoch(p); err != nil {
		return err
	}
	if err := s.ensureCredit(p); err != nil {
		return err
	}
	s.drainControl(p)
	if s.allTargetsFailed() {
		return fmt.Errorf("%w: every replicate target stopped responding", ErrFlowBroken)
	}

	var seq uint64
	if s.spec.Options.GlobalOrdering {
		// Tuple sequencer: one fetch-and-add round trip per segment
		// (paper §5.4); with programmable switches this could move into
		// the network. A crashed sequencer node surfaces as a broken
		// flow, not as a silently repeated sequence number.
		v, ok := s.seqQP.FetchAddChecked(p, transport.Addr{MR: s.meta.seqMR}, 1)
		if !ok {
			return fmt.Errorf("%w: sequencer node for flow %q is unreachable", ErrFlowBroken, s.spec.Name)
		}
		seq = v
		s.ownSeqs = append(s.ownSeqs, seq)
	} else {
		seq = s.sentSegs.Load()
	}
	flags := byte(transport.SegCommitted)
	if end {
		flags |= transport.SegEnd
	}
	transport.SegDesc{Fill: uint32(s.fill), Flags: flags, Tag: mcTag(s.idx, s.epoch), Seq: seq}.Put(s.segBuf)

	msg := make([]byte, transport.SegDescBytes+s.fill)
	copy(msg, s.segBuf[:transport.SegDescBytes+s.fill])
	s.history[seq] = msg
	s.histOrder = append(s.histOrder, seq)
	if len(s.histOrder) > 4*s.credit {
		old := s.histOrder[0]
		s.histOrder = s.histOrder[1:]
		delete(s.history, old)
	}

	s.group.Send(p, s.node, msg, false)
	s.sentSegs.Add(1)
	s.payloadBytes.Add(uint64(s.fill))
	s.fill = 0
	return nil
}

// ensureCredit blocks while any live target's outstanding window is full.
// With RetransmitTimeout set, a target whose credit gates the source past
// failAfter is declared failed and excluded — a crashed target must not
// wedge the surviving replicas. Membership changes are folded while
// gated, so a lease eviction releases the gate ahead of the timeout.
func (s *mcSource) ensureCredit(p transport.Ctx) error {
	failAfter := s.failAfter()
	for {
		if err := s.syncMcEpoch(p); err != nil {
			return err
		}
		lag := -1
		for j := range s.consumedBy {
			if s.failedTgt[j] {
				continue
			}
			if int(s.sentSegs.Load()-s.consumedBy[j]) >= s.credit {
				lag = j
				break
			}
		}
		if lag < 0 {
			return nil
		}
		now := p.Now()
		if !s.gating[lag] {
			s.gating[lag] = true
			s.lastAdvance[lag] = now
			s.creditStalls.Add(1)
		}
		if failAfter > 0 && now-s.lastAdvance[lag] > failAfter {
			s.failedTgt[lag] = true
			continue
		}
		if c, ok := s.fqps[lag].RecvCQ().WaitTimeout(p, 5*time.Microsecond); ok {
			s.handleControl(p, lag, c)
		}
		s.drainControl(p)
	}
}

// drainControl processes pending credit and NACK messages from all
// targets without blocking.
func (s *mcSource) drainControl(p transport.Ctx) {
	for j, qp := range s.fqps {
		for qp.RecvCQ().Len() > 0 {
			c, ok := qp.RecvCQ().Poll(p)
			if !ok {
				break
			}
			s.handleControl(p, j, c)
		}
	}
}

func (s *mcSource) handleControl(p transport.Ctx, target int, c transport.Completion) {
	buf := s.ctrlBufs[c.ID]
	kind := buf[0]
	value := binary.LittleEndian.Uint64(buf[8:16])
	var payload []byte
	if c.Bytes > ctrlBytes {
		// ctrlGapHave carries a segment copy after the fixed header; copy
		// it out before the buffer is recycled.
		payload = append([]byte(nil), buf[ctrlBytes:c.Bytes]...)
	}
	s.fqps[target].PostRecv(buf, c.ID) // recycle the buffer
	switch kind {
	case ctrlCredit:
		if s.spec.Options.GlobalOrdering {
			// value is the target's global progress (next undelivered
			// sequence); count how many of our own segments lie below it.
			i := s.ownIdx[target]
			for i < len(s.ownSeqs) && s.ownSeqs[i] < value {
				i++
			}
			s.ownIdx[target] = i
			if uint64(i) > s.consumedBy[target] {
				s.consumedBy[target] = uint64(i)
				s.noteAdvance(p, target)
			}
		} else if value > s.consumedBy[target] {
			s.consumedBy[target] = value
			s.noteAdvance(p, target)
		}
	case ctrlNack:
		if msg, ok := s.history[value]; ok {
			// Reliable unicast retransmission to the requesting target.
			s.fqps[target].Send(p, msg, false, 0)
			s.retransmits.Add(1)
		}
	case ctrlGapQuery:
		// Agreement traffic is proof of life: a target stuck behind a
		// crashed source's gaps sends no credit while rounds resolve one
		// sequence at a time, and that backlog must not read as a dead
		// target to the staleness detector. Only the clock resets — the
		// target keeps gating until real credit advances it.
		s.lastAdvance[target] = p.Now()
		s.handleGapQuery(p, target, value)
	case ctrlGapHave:
		s.lastAdvance[target] = p.Now()
		s.handleGapHave(p, value, payload)
	case ctrlGapNoHave:
		s.lastAdvance[target] = p.Now()
		s.handleGapNoHave(p, target, value)
	}
}

// sendGapCtrl sends one fixed-size agreement control message to target j.
func (s *mcSource) sendGapCtrl(p transport.Ctx, j int, kind byte, seq uint64) {
	msg := make([]byte, ctrlBytes)
	msg[0] = kind
	msg[1] = byte(s.idx)
	binary.LittleEndian.PutUint64(msg[8:16], seq)
	s.fqps[j].Send(p, msg, false, 0)
}

// handleGapQuery arbitrates a head gap a target reported stuck: a
// history hit answers with a plain retransmission, an already-agreed
// skip re-announces the verdict, and anything else opens — or re-probes
// — an agreement round over the live targets. Requesters re-query while
// stuck, so a probe outstanding toward a target that dies mid-round is
// retried against the post-eviction membership.
func (s *mcSource) handleGapQuery(p transport.Ctx, from int, seq uint64) {
	if !s.agreementEnabled() {
		return
	}
	if msg, ok := s.history[seq]; ok {
		s.fqps[from].Send(p, msg, false, 0)
		s.retransmits.Add(1)
		return
	}
	if s.agreedSkips[seq] {
		s.sendGapCtrl(p, from, ctrlGapSkip, seq)
		return
	}
	r := s.rounds[seq]
	if r == nil {
		r = &gapRound{answered: make([]bool, len(s.fqps))}
		s.rounds[seq] = r
		s.gapRoundsRun.Add(1)
	}
	open := false
	for j := range r.answered {
		if s.failedTgt[j] {
			r.answered[j] = true
			continue
		}
		if !r.answered[j] {
			s.sendGapCtrl(p, j, ctrlGapProbe, seq)
			open = true
		}
	}
	if !open {
		// Every remaining voter is dead; the round degenerates to a skip.
		s.closeRound(p, seq, r)
	}
}

// handleGapHave resolves a round affirmatively: a live target still held
// the sequence. The copy is re-broadcast on the reliable QPs — data
// first, then the Fill verdict, which RC in-order delivery keeps behind
// the data — unfreezing every target that answered NoHave.
func (s *mcSource) handleGapHave(p transport.Ctx, seq uint64, payload []byte) {
	r := s.rounds[seq]
	if r == nil {
		return // round already closed (late or duplicate answer)
	}
	delete(s.rounds, seq)
	if len(payload) > 0 {
		s.history[seq] = payload
		s.histOrder = append(s.histOrder, seq)
	}
	msg, ok := s.history[seq]
	if !ok {
		return
	}
	for j := range s.fqps {
		if s.failedTgt[j] {
			continue
		}
		s.fqps[j].Send(p, msg, false, 0)
		s.sendGapCtrl(p, j, ctrlGapFill, seq)
	}
	s.retransmits.Add(1)
}

// handleGapNoHave records one negative vote; a unanimous round closes as
// an agreed skip.
func (s *mcSource) handleGapNoHave(p transport.Ctx, from int, seq uint64) {
	r := s.rounds[seq]
	if r == nil {
		return
	}
	r.answered[from] = true
	for j := range r.answered {
		if s.failedTgt[j] {
			r.answered[j] = true
		}
		if !r.answered[j] {
			return
		}
	}
	s.closeRound(p, seq, r)
}

// closeRound finalizes an agreed skip: the verdict is recorded durably
// in the registry first (emitting the gap_agreement event and folding
// the skip into future rejoin snapshots), then announced to the live
// targets. Registering before announcing means a target that acts on the
// verdict can never observe the registry without it.
func (s *mcSource) closeRound(p transport.Ctx, seq uint64, r *gapRound) {
	delete(s.rounds, seq)
	s.agreedSkips[seq] = true
	_ = s.reg.RecordSeqSkips(p, s.spec.Name, s.epoch, seq)
	for j := range s.fqps {
		if s.failedTgt[j] {
			continue
		}
		s.sendGapCtrl(p, j, ctrlGapSkip, seq)
	}
}

// noteAdvance records consumption progress by a target (failure-detection
// bookkeeping): the staleness clock resets and any future gate episode
// restarts its grace period.
func (s *mcSource) noteAdvance(p transport.Ctx, target int) {
	s.gating[target] = false
	s.lastAdvance[target] = p.Now()
}

// close flushes, sends reliable end markers carrying the per-source
// segment count, and lingers until every live target has consumed
// everything — serving retransmission requests and arbitrating gap
// rounds meanwhile. With RetransmitTimeout set the linger is bounded per
// target: one that stops acknowledging is declared failed, and close
// reports it with an ErrFlowBroken-wrapped error instead of hanging.
// Lease evictions folded mid-linger release their targets immediately.
func (s *mcSource) close(p transport.Ctx) error {
	if s.closedFlag {
		return nil
	}
	s.closedFlag = true
	if err := s.flush(p); err != nil {
		return err
	}
	if err := s.syncMcEpoch(p); err != nil {
		return err
	}
	end := s.endMarker()
	for j, qp := range s.fqps {
		if s.failedTgt[j] {
			continue
		}
		qp.Send(p, end, false, 0)
	}
	failAfter := s.failAfter()
	for j := range s.lastAdvance {
		s.gating[j] = true
		s.lastAdvance[j] = p.Now() // grace restarts at close
	}
	for {
		if err := s.syncMcEpoch(p); err != nil {
			return err
		}
		pending := false
		for j, v := range s.consumedBy {
			if s.failedTgt[j] {
				continue
			}
			if v < s.sentSegs.Load() {
				if failAfter > 0 && p.Now()-s.lastAdvance[j] > failAfter {
					s.failedTgt[j] = true
					continue
				}
				pending = true
			}
		}
		if !pending {
			break
		}
		for j, qp := range s.fqps {
			if s.failedTgt[j] {
				continue
			}
			if c, ok := qp.RecvCQ().WaitTimeout(p, s.spec.Options.GapTimeout); ok {
				s.handleControl(p, j, c)
			}
		}
		s.drainControl(p)
	}
	var failed []int
	for j, f := range s.failedTgt {
		if f && !s.evictedTgt[j] {
			failed = append(failed, j)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: replicate targets %v stopped responding", ErrFlowBroken, failed)
	}
	return nil
}

func (s *mcSource) free() {}

// mcTarget is the receiving half of a multicast replicate flow.
type mcTarget struct {
	meta *flowMeta
	spec *FlowSpec
	idx  int
	node transport.Endpoint
	reg  Registry

	ep   transport.GroupEndpoint
	tqps []transport.Queue // reliable QP from each source (target end)

	pool   [][]byte // recycled receive buffers
	poolMR transport.Region

	// Per-source protocol state (per-source sequences when unordered).
	nextSeq []uint64 // next expected per-source seq (unordered)
	// delivered is atomic per slot so Target.Stats can sum it from a
	// scraper goroutine mid-run.
	delivered []atomic.Uint64 // segments delivered per source
	endCount  []uint64        // expected per-source count (from end marker)
	ended     []bool
	creditAcc []uint64 // segments consumed since last credit msg

	// Ordered-flow state: the "next list" of Figure 6 is the pending map
	// keyed by global seq; the receive list is the fabric receive queue.
	nextGlobal uint64
	pending    map[uint64][]byte

	gapSince   time.Duration // when the current head gap was first observed
	gapPending bool
	gap        Gap
	gapNacks   int // unanswered NACK rounds for the current head gap

	// Source-failure detection (Options.SourceTimeout), mirroring the
	// ring-transport detectFailures: a source that goes silent past the
	// timeout is declared failed and treated as ended at its delivered
	// count; ordered flows additionally escalate its unanswerable gaps
	// to the agreement protocol (or, without leases, skip heuristically
	// once NACK rounds go unanswered).
	heard     []bool
	lastHeard []time.Duration
	failedSrc []atomic.Bool // atomic: read by Target.FailedSources under scrape

	// Control-plane membership (Options.LeaseTTL): the flow's record,
	// the last epoch folded in, this target's incarnation, and whether
	// the control plane evicted this slot.
	mem     *registry.Membership
	epoch   uint64
	inc     uint64
	evicted bool

	// Gap-agreement state (agreement flows only): copies of recently
	// delivered segments so probes for a live head can be answered after
	// delivery, the agreed-skip set, and sequences frozen by a NoHave
	// answer (they must not be delivered until the round's verdict — a
	// late arrival overtaking the verdict would diverge from peers that
	// skipped). dhist is bounded by credit gating: a target stuck at S
	// stalls every source within one credit window, so live heads stay
	// within ~nSrc·R of S.
	dhist       map[uint64][]byte
	dhistOrder  []uint64
	skips       map[uint64]bool
	frozen      map[uint64]int // seq -> probing source slot
	responderUp bool

	// Progress reporting (agreement flows): total segments delivered and
	// the next checkpoint at which RecordSeqProgress is called.
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

	active    []byte // buffer backing the segment handed out last
	tupleSize int
	done      bool
}

// agreementEnabled mirrors mcSource.agreementEnabled for the target side.
func (t *mcTarget) agreementEnabled() bool {
	return t.spec.Options.GlobalOrdering && t.spec.Options.LeaseTTL > 0
}

// newMcTargetState builds the transport-independent part of an mcTarget:
// buffers, per-source state, membership wiring.
func newMcTargetState(reg Registry, meta *flowMeta, idx int, node transport.Endpoint) (*mcTarget, error) {
	spec := &meta.spec
	nSrc := len(spec.Sources)
	R := spec.Options.SegmentsPerRing
	t := &mcTarget{
		meta:      meta,
		spec:      spec,
		idx:       idx,
		node:      node,
		reg:       reg,
		nextSeq:   make([]uint64, nSrc),
		delivered: make([]atomic.Uint64, nSrc),
		endCount:  make([]uint64, nSrc),
		ended:     make([]bool, nSrc),
		creditAcc: make([]uint64, nSrc),
		pending:   make(map[uint64][]byte),
		tupleSize: spec.Schema.TupleSize(),
		heard:     make([]bool, nSrc),
		lastHeard: make([]time.Duration, nSrc),
		failedSrc: make([]atomic.Bool, nSrc),
	}
	var err error
	if t.mem, err = membershipOf(reg, spec.Name); err != nil {
		return nil, err
	}
	if spec.Options.LeaseTTL > 0 {
		t.epoch = t.mem.Epoch()
	}
	if t.agreementEnabled() {
		t.dhist = make(map[uint64][]byte)
		t.skips = make(map[uint64]bool)
		t.frozen = make(map[uint64]int)
		t.seqQP, _ = meta.cluster.Dial(node, meta.seqMR.Owner())
	}
	stride := transport.SegDescBytes + spec.Options.SegmentSize
	// One slab backs all receive buffers (registered for accounting). The
	// posted queues hold nSrc*R (multicast) + nSrc*(R+2) (reliable path)
	// buffers at all times; pending reordering and the active segment hold
	// at most as many again.
	nBufs := 2*(nSrc*R+nSrc*(R+2)) + 8
	t.poolMR = meta.cluster.OpenRegion(t.node, nBufs*stride)
	slab := t.poolMR.Bytes()
	for i := 0; i < nBufs; i++ {
		t.pool = append(t.pool, slab[i*stride:(i+1)*stride])
	}
	return t, nil
}

func newMcTarget(p transport.Ctx, reg Registry, meta *flowMeta, idx int) (*mcTarget, error) {
	spec := &meta.spec
	t, err := newMcTargetState(reg, meta, idx, spec.Targets[idx].Node)
	if err != nil {
		return nil, err
	}
	t.ep = meta.group.Member(idx)
	nSrc := len(spec.Sources)
	R := spec.Options.SegmentsPerRing
	// Pre-populate the multicast receive queue with the credit score (R
	// buffers per source).
	for i := 0; i < nSrc*R; i++ {
		t.ep.PostRecv(t.takeBuf(), 0)
	}
	// Reliable QPs from each source (retransmissions + end markers).
	for i := 0; i < nSrc; i++ {
		qp := reg.WaitFlow(p, mcQPName(spec.Name, i, idx, 0)).(transport.Queue)
		t.tqps = append(t.tqps, qp)
		for r := 0; r < R+2; r++ {
			qp.PostRecv(t.takeBuf(), 0)
		}
	}
	return t, nil
}

// newMcTargetRejoin rebuilds the receiving half of an ordered multicast
// flow for a target re-attaching after eviction. The rejoiner cannot
// replay the stream (multicast history is bounded); instead it installs
// the registry's sequencer snapshot — high-water, per-source delivered
// counts, agreed skips — and resumes delivery at the high-water, filling
// the short tail between the last progress report and the live stream
// through the ordinary NACK/agreement machinery. Fresh reliable QPs are
// published under incarnation-keyed rendezvous names *before* Rejoin
// bumps the epoch, so a source folding the bump finds them immediately.
// Sources that already left the flow are folded as ended at their
// snapshot counts: their tail segments have no retransmission history
// and are not replayed (rejoin is meant for flows still streaming).
func newMcTargetRejoin(p transport.Ctx, reg Registry, meta *flowMeta, idx int, node transport.Endpoint) (*mcTarget, error) {
	spec := &meta.spec
	name := spec.Name
	if spec.Options.LeaseTTL <= 0 {
		return nil, fmt.Errorf("dfi: flow %q is lease-free; a multicast target rejoins through its lease", name)
	}
	t, err := newMcTargetState(reg, meta, idx, node)
	if err != nil {
		return nil, err
	}
	nSrc := len(spec.Sources)
	R := spec.Options.SegmentsPerRing
	// Re-attach to the multicast group: the eviction detached this slot's
	// endpoint; a fresh one takes its place.
	t.ep = meta.group.Reattach(idx, node)
	for i := 0; i < nSrc*R; i++ {
		t.ep.PostRecv(t.takeBuf(), 0)
	}
	inc := t.mem.Incarnation(registry.RoleTarget, idx) + 1
	for i, src := range spec.Sources {
		sq, tq := meta.cluster.Dial(src.Node, node)
		if err := reg.Publish(p, mcQPName(name, i, idx, inc), sq); err != nil {
			return nil, err
		}
		t.tqps = append(t.tqps, tq)
		for r := 0; r < R+2; r++ {
			tq.PostRecv(t.takeBuf(), 0)
		}
	}
	// Install the sequencer snapshot.
	snap, _ := reg.SeqSnapshot(p, name)
	t.nextGlobal = snap.HighWater
	for _, seq := range snap.Skips {
		if seq >= snap.HighWater {
			t.skips[seq] = true
		}
	}
	for i := 0; i < nSrc; i++ {
		if i < len(snap.PerSource) {
			t.delivered[i].Store(snap.PerSource[i])
		}
		if t.mem.SourceEvicted(i) {
			t.failedSrc[i].Store(true)
		}
		if t.mem.SourceEvicted(i) || t.mem.State(registry.RoleSource, i) == registry.StateLeft {
			t.ended[i] = true
			t.endCount[i] = t.delivered[i].Load()
		}
	}
	t.totalDelivered = t.nextGlobal
	t.progressAt = t.totalDelivered + uint64(R)
	rj, err := reg.Rejoin(p, name, registry.RoleTarget, idx, idx)
	if err != nil {
		return nil, fmt.Errorf("dfi: rejoin of multicast target %d rejected: %w", idx, err)
	}
	if rj.Incarnation != inc {
		return nil, fmt.Errorf("dfi: rejoin of multicast target %d raced another incarnation (%d != %d)",
			idx, rj.Incarnation, inc)
	}
	t.inc = inc
	t.epoch = t.mem.Epoch()
	// Announce the resumed progress so reconnecting sources restart their
	// credit from the high-water (RC queues the message until the source
	// posts its receives).
	t.broadcastProgress(p)
	if sink := reg.EventSink(); sink != nil {
		sink.Emit(metrics.Event{
			T: p.Now(), Node: fmt.Sprintf("node%d", node.ID()),
			Type: metrics.EvSeqSnapshotInstall, Flow: name, Epoch: t.epoch,
			Role: "target", Slot: idx, Seq: snap.HighWater,
			Detail: fmt.Sprintf("resumed at high-water %d with %d agreed skips", snap.HighWater, len(snap.Skips)),
		})
	}
	return t, nil
}

func (t *mcTarget) takeBuf() []byte {
	if len(t.pool) == 0 {
		// Pool exhaustion cannot happen within the credit window; guard
		// against protocol bugs.
		panic("dfi: multicast receive buffer pool exhausted")
	}
	b := t.pool[len(t.pool)-1]
	t.pool = t.pool[:len(t.pool)-1]
	return b
}

func (t *mcTarget) recycle(buf []byte) {
	t.pool = append(t.pool, buf[:cap(buf)])
}

// key computes the pending-map key for a segment: the global sequence for
// ordered flows, or (source, per-source seq) packed otherwise.
func (t *mcTarget) key(src int, seq uint64) uint64 {
	if t.spec.Options.GlobalOrdering {
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
func (t *mcTarget) ingest(p transport.Ctx, buf []byte, bytes int, origin recvOrigin) {
	origin.PostRecv(t.takeBuf(), 0)
	if t.agreementEnabled() && isGapCtrl(buf, bytes) {
		t.handleGapCtrl(p, buf)
		t.recycle(buf)
		return
	}
	d := transport.ParseSegDesc(buf)
	fill, flags, src, seq := int(d.Fill), d.Flags, mcSrc(d.Tag), d.Seq
	if src >= 0 && src < len(t.heard) {
		t.heard[src] = true
		t.lastHeard[src] = p.Now()
	}
	if flags&transport.SegEnd != 0 && fill == 0 {
		// End marker: seq carries the source's total segment count.
		if !t.ended[src] {
			t.ended[src] = true
			t.endCount[src] = seq
		}
		t.recycle(buf)
		return
	}
	// Duplicate filtering: already delivered, already pending, or agreed
	// skipped (a late copy of a sequence the flow has moved past).
	dup := false
	if t.spec.Options.GlobalOrdering {
		dup = seq < t.nextGlobal || (t.skips != nil && t.skips[seq])
	} else {
		dup = seq < t.nextSeq[src]
	}
	k := t.key(src, seq)
	if dup {
		t.recycle(buf)
		return
	}
	if _, exists := t.pending[k]; exists {
		t.recycle(buf)
		return
	}
	t.pending[k] = buf[:bytes]
	if t.frozen != nil && t.spec.Options.GlobalOrdering {
		if prober, fr := t.frozen[seq]; fr {
			// A copy arrived after this target answered NoHave: hand it to
			// the arbiter proactively so the round resolves as a fill. The
			// sequence stays frozen until the verdict arrives.
			t.sendGapAnswer(p, prober, ctrlGapHave, seq, t.pending[k])
		}
	}
}

// handleGapCtrl processes one agreement control message from a source.
func (t *mcTarget) handleGapCtrl(p transport.Ctx, buf []byte) {
	kind := buf[0]
	src := int(buf[1])
	seq := binary.LittleEndian.Uint64(buf[8:16])
	if src >= 0 && src < len(t.heard) {
		t.heard[src] = true
		t.lastHeard[src] = p.Now()
	}
	switch kind {
	case ctrlGapProbe:
		t.answerProbe(p, src, seq)
	case ctrlGapSkip:
		t.applySkip(seq)
	case ctrlGapFill:
		// The refilled copy preceded this verdict on the same QP (RC
		// in-order delivery); the sequence is deliverable again.
		delete(t.frozen, seq)
	}
}

// answerProbe reports whether this target can supply a probed sequence:
// a pending or recently delivered copy is handed back (Have); an
// agreed-skipped or genuinely missing one is denied (NoHave). Answering
// NoHave freezes the sequence — a late multicast arrival must not be
// delivered past the round's verdict, or this target would keep a
// segment its peers agreed to skip.
func (t *mcTarget) answerProbe(p transport.Ctx, src int, seq uint64) {
	if src < 0 || src >= len(t.tqps) {
		return
	}
	if t.skips[seq] || seq < t.nextGlobal {
		if b, ok := t.dhist[seq]; ok {
			t.sendGapAnswer(p, src, ctrlGapHave, seq, b)
			return
		}
		// Already skipped here (or delivered beyond the history window,
		// which credit gating makes unreachable for live heads).
		t.sendGapAnswer(p, src, ctrlGapNoHave, seq, nil)
		return
	}
	if b, ok := t.pending[seq]; ok {
		t.sendGapAnswer(p, src, ctrlGapHave, seq, b)
		return
	}
	t.frozen[seq] = src
	t.sendGapAnswer(p, src, ctrlGapNoHave, seq, nil)
}

// sendGapAnswer sends one agreement answer, with the segment copy
// appended for Have.
func (t *mcTarget) sendGapAnswer(p transport.Ctx, src int, kind byte, seq uint64, payload []byte) {
	msg := make([]byte, ctrlBytes+len(payload))
	msg[0] = kind
	msg[1] = byte(t.idx)
	binary.LittleEndian.PutUint64(msg[8:16], seq)
	copy(msg[ctrlBytes:], payload)
	t.tqps[src].Send(p, msg, false, 0)
}

// applySkip records an agreed-unfillable sequence. A pending copy is
// discarded — the verdict is final, and delivering a segment the peers
// skipped would break the identical-order guarantee. The head loop
// advances past the skip (or surfaces it under NotifyGaps) on its next
// pass.
func (t *mcTarget) applySkip(seq uint64) {
	delete(t.frozen, seq)
	if seq < t.nextGlobal {
		return
	}
	if b, ok := t.pending[seq]; ok {
		delete(t.pending, seq)
		t.recycle(b)
	}
	t.skips[seq] = true
}

// sendGapQuery escalates a stuck head gap to the arbiter — the lowest
// live source slot — which runs the agreement round.
func (t *mcTarget) sendGapQuery(p transport.Ctx, seq uint64) {
	leader := -1
	for s := range t.failedSrc {
		if !t.failedSrc[s].Load() {
			leader = s
			break
		}
	}
	if leader < 0 {
		return
	}
	msg := make([]byte, ctrlBytes)
	msg[0] = ctrlGapQuery
	msg[1] = byte(t.idx)
	binary.LittleEndian.PutUint64(msg[8:16], seq)
	t.tqps[leader].Send(p, msg, false, 0)
}

// poll drains all receive CQs without blocking, ingesting arrivals.
func (t *mcTarget) poll(p transport.Ctx) bool {
	got := false
	for t.ep.RecvCQ().Len() > 0 {
		c, ok := t.ep.RecvCQ().Poll(p)
		if !ok {
			break
		}
		t.ingest(p, c.Buf, c.Bytes, t.ep)
		got = true
	}
	for _, qp := range t.tqps {
		for qp.RecvCQ().Len() > 0 {
			c, ok := qp.RecvCQ().Poll(p)
			if !ok {
				break
			}
			t.ingest(p, c.Buf, c.Bytes, qp)
			got = true
		}
	}
	return got
}

// sendCredit reports cumulative consumption from src back to it, both as
// flow-control credit and as the termination handshake.
func (t *mcTarget) sendCredit(p transport.Ctx, src int, force bool) {
	batch := uint64(t.spec.Options.SegmentsPerRing / 4)
	if batch == 0 {
		batch = 1
	}
	if !force && t.creditAcc[src] < batch {
		return
	}
	t.creditAcc[src] = 0
	if t.spec.Options.GlobalOrdering {
		t.broadcastProgress(p)
		return
	}
	msg := make([]byte, ctrlBytes)
	msg[0] = ctrlCredit
	binary.LittleEndian.PutUint64(msg[8:16], t.delivered[src].Load())
	t.tqps[src].Send(p, msg, false, 0)
}

// broadcastProgress tells every source how far the target's global
// sequence progressed (ordered flows): sources translate this into their
// own credit, and skipped gaps count as progress.
func (t *mcTarget) broadcastProgress(p transport.Ctx) {
	for _, qp := range t.tqps {
		msg := make([]byte, ctrlBytes)
		msg[0] = ctrlCredit
		binary.LittleEndian.PutUint64(msg[8:16], t.nextGlobal)
		qp.Send(p, msg, false, 0)
	}
}

// sendFinalCredit fully acknowledges a source at flow end. For ordered
// flows with application-level gap handling, skipped sequence numbers are
// acknowledged as consumed so the source's termination handshake
// completes.
func (t *mcTarget) sendFinalCredit(p transport.Ctx, src int) {
	if t.spec.Options.GlobalOrdering {
		// Global progress (including ResolveGap skips) already covers the
		// whole sequence space by the time the flow finishes; just
		// broadcast it. Forcing nextGlobal forward here would silently
		// drop other sources' undelivered segments.
		t.broadcastProgress(p)
		return
	}
	msg := make([]byte, ctrlBytes)
	msg[0] = ctrlCredit
	v := t.delivered[src].Load()
	if t.ended[src] && t.endCount[src] > v {
		v = t.endCount[src]
	}
	binary.LittleEndian.PutUint64(msg[8:16], v)
	t.tqps[src].Send(p, msg, false, 0)
}

// sendNack requests retransmission of a missing sequence number. Ordered
// flows cannot tell which source owns a global sequence number, so the
// NACK goes to every source; only the owner finds it in its history.
func (t *mcTarget) sendNack(p transport.Ctx, seq uint64, src int) {
	t.nacksSent.Add(1)
	msg := make([]byte, ctrlBytes)
	msg[0] = ctrlNack
	binary.LittleEndian.PutUint64(msg[8:16], seq)
	if t.spec.Options.GlobalOrdering {
		for _, qp := range t.tqps {
			nack := make([]byte, ctrlBytes)
			copy(nack, msg)
			qp.Send(p, nack, false, 0)
		}
		return
	}
	t.tqps[src].Send(p, msg, false, 0)
}

// headDeliverable returns the pending segment that must be delivered next:
// the next global sequence number for ordered flows, or the next
// per-source sequence scanning sources round-robin otherwise. A frozen
// head (this target answered NoHave for it) is withheld until the
// agreement verdict resolves it as a fill or a skip.
func (t *mcTarget) headDeliverable() (buf []byte, src int, ok bool) {
	if t.spec.Options.GlobalOrdering {
		if t.frozen != nil {
			if _, fr := t.frozen[t.nextGlobal]; fr {
				return nil, 0, false
			}
		}
		if b, exists := t.pending[t.nextGlobal]; exists {
			return b, mcSrc(transport.ParseSegDesc(b).Tag), true
		}
		return nil, 0, false
	}
	for s := range t.nextSeq {
		if t.ended[s] && t.delivered[s].Load() >= t.endCount[s] {
			continue
		}
		if b, exists := t.pending[t.key(s, t.nextSeq[s])]; exists {
			return b, s, true
		}
	}
	return nil, 0, false
}

// finished reports whether every source has ended and all segments were
// delivered. Ordered flows track progress in global sequence space, so
// sequence numbers skipped via agreement or ResolveGap count as handled.
func (t *mcTarget) finished() bool {
	for s := range t.ended {
		if !t.ended[s] {
			return false
		}
	}
	if t.spec.Options.GlobalOrdering {
		return t.nextGlobal >= t.totalExpected()
	}
	for s := range t.ended {
		if t.delivered[s].Load() < t.endCount[s] {
			return false
		}
	}
	return true
}

// allEnded reports whether every source has ended (or been declared
// failed/evicted, which also ends its slot).
func (t *mcTarget) allEnded() bool {
	for s := range t.ended {
		if !t.ended[s] {
			return false
		}
	}
	return true
}

// totalExpected is the global sequence-space size; valid once every
// source has ended. The sum of per-source end counts is only a floor
// when a source failed without an end marker — its fold used this
// target's local delivered count, which can differ between targets. On
// agreement flows the sequencer read (seqSpace) replaces that
// target-local guess with the authoritative draw count, so all
// survivors reconcile the same extent.
func (t *mcTarget) totalExpected() uint64 {
	var sum uint64
	for _, c := range t.endCount {
		sum += c
	}
	if t.seqSpaceKnown && t.seqSpace > sum {
		return t.seqSpace
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
func (t *mcTarget) seqSpaceSize(p transport.Ctx) (uint64, bool) {
	if t.seqQP == nil {
		return 0, false
	}
	return t.seqQP.FetchAddChecked(p, transport.Addr{MR: t.meta.seqMR}, 0)
}

// deliver activates a pending segment for consumption and returns its
// tuple payload.
func (t *mcTarget) deliver(p transport.Ctx, buf []byte, src int) []byte {
	d := transport.ParseSegDesc(buf)
	seq, fill := d.Seq, int(d.Fill)
	delete(t.pending, t.key(src, seq))
	if t.spec.Options.GlobalOrdering {
		t.nextGlobal = seq + 1
	} else {
		t.nextSeq[src] = seq + 1
	}
	t.delivered[src].Add(1)
	t.creditAcc[src]++
	t.gapSince = 0
	t.gapNacks = 0

	if t.agreementEnabled() {
		t.retainDelivered(seq, buf[:transport.SegDescBytes+fill])
		t.reportProgress(p)
	}
	count := fill / t.tupleSize
	t.node.Compute(p, time.Duration(count)*t.spec.Options.ConsumeCost)
	t.active = buf

	t.sendCredit(p, src, false)
	if t.ended[src] && t.delivered[src].Load() >= t.endCount[src] {
		t.sendFinalCredit(p, src) // termination handshake
	}
	return buf[transport.SegDescBytes : transport.SegDescBytes+count*t.tupleSize]
}

// retainDelivered keeps a copy of a delivered segment for gap probes.
// The window is bounded by credit gating: a peer stuck at sequence S
// stalls every source within one credit window of S, so any sequence a
// live round can probe lies within ~nSrc·R of this target's head.
func (t *mcTarget) retainDelivered(seq uint64, seg []byte) {
	cp := append([]byte(nil), seg...)
	t.dhist[seq] = cp
	t.dhistOrder = append(t.dhistOrder, seq)
	if max := 2*len(t.ended)*t.spec.Options.SegmentsPerRing + 16; len(t.dhistOrder) > max {
		old := t.dhistOrder[0]
		t.dhistOrder = t.dhistOrder[1:]
		delete(t.dhist, old)
	}
}

// reportProgress periodically merges this target's delivery progress
// into the registry's sequencer record (every R segments): the raw
// material of the snapshot a rejoining target installs.
func (t *mcTarget) reportProgress(p transport.Ctx) {
	t.totalDelivered++
	if t.totalDelivered < t.progressAt {
		return
	}
	t.progressAt = t.totalDelivered + uint64(t.spec.Options.SegmentsPerRing)
	per := make([]uint64, len(t.delivered))
	for i := range t.delivered {
		per[i] = t.delivered[i].Load()
	}
	_ = t.reg.RecordSeqProgress(p, t.spec.Name, t.idx, t.nextGlobal, per)
}

// detectFailures declares silent sources failed (Options.SourceTimeout),
// treating them as ended at their delivered count. Undeliverable pending
// segments of a failed unordered source are discarded (their predecessors
// died with the source's retransmission history).
func (t *mcTarget) detectFailures(p transport.Ctx) {
	timeout := t.spec.Options.SourceTimeout
	if timeout <= 0 {
		return
	}
	for s := range t.ended {
		if t.ended[s] || t.failedSrc[s].Load() {
			continue
		}
		if !t.heard[s] {
			t.heard[s] = true
			t.lastHeard[s] = p.Now() // grace period starts at first check
			continue
		}
		if p.Now()-t.lastHeard[s] <= timeout {
			continue
		}
		t.failSource(s)
	}
}

// failSource folds one source failure: the slot ends at its delivered
// count, and undeliverable unordered pendings are discarded.
func (t *mcTarget) failSource(s int) {
	t.failedSrc[s].Store(true)
	// A source that died after its end marker arrived keeps its true
	// stream length: overwriting it with this target's delivered count
	// would shrink totalExpected by a target-local amount and make the
	// survivors finish at divergent points.
	if !t.ended[s] {
		t.ended[s] = true
		t.endCount[s] = t.delivered[s].Load()
	}
	if !t.spec.Options.GlobalOrdering {
		for k, b := range t.pending {
			if int(k>>48) == s {
				delete(t.pending, k)
				t.recycle(b)
			}
		}
	}
}

// syncMcMembership folds lease-driven membership changes into the
// receive path: an evicted source is folded exactly like a SourceTimeout
// failure (so the agreement escalation and FailedSources cover both
// detectors), and this target's own eviction — or an incarnation bump,
// meaning a successor took the slot — stops consumption, surfaced
// through Target.Evicted. A no-op while the epoch is unchanged.
func (t *mcTarget) syncMcMembership() {
	if t.spec.Options.LeaseTTL <= 0 || t.mem.Epoch() == t.epoch {
		return
	}
	t.epoch = t.mem.Epoch()
	if t.mem.TargetEvicted(t.idx) || t.mem.Incarnation(registry.RoleTarget, t.idx) != t.inc {
		t.evicted = true
		return
	}
	for s := range t.ended {
		if !t.failedSrc[s].Load() && t.mem.SourceEvicted(s) {
			t.failSource(s)
		}
	}
}

// noLiveArbiter reports whether no source remains to arbitrate a gap
// round: every slot either was declared failed (lease eviction or
// timeout) or released its lease after finishing its close linger.
// While any source is Active — even one whose stream has ended, since
// close lingers until all targets drain — queries must go to it instead
// of skipping unilaterally.
func (t *mcTarget) noLiveArbiter() bool {
	for s := range t.failedSrc {
		if t.failedSrc[s].Load() {
			continue
		}
		if st := t.mem.State(registry.RoleSource, s); st == registry.StateLeft || st == registry.StateEvicted {
			continue
		}
		return false
	}
	return true
}

// anyFailed reports whether any source was declared failed.
func (t *mcTarget) anyFailed() bool {
	for s := range t.failedSrc {
		if t.failedSrc[s].Load() {
			return true
		}
	}
	return false
}

// failedSources lists failed source slots in slot order.
func (t *mcTarget) failedSources() []int {
	var out []int
	for s := range t.failedSrc {
		if t.failedSrc[s].Load() {
			out = append(out, s)
		}
	}
	return out
}

// advanceSkips moves the head past consecutive agreed skips, counting
// them as progress so source credit keeps flowing.
func (t *mcTarget) advanceSkips(p transport.Ctx) {
	for t.skips[t.nextGlobal] {
		t.nextGlobal++
		t.totalDelivered++
		t.gapsSkipped.Add(1)
	}
	t.gapNacks = 0
	t.gapSince = 0
	t.broadcastProgress(p)
}

// nextSegment obtains the next in-order segment's payload, recycling the
// one handed out before and handling gap timeouts. It returns false at
// flow end, when a gap is surfaced (NotifyGaps) and until it is resolved,
// or when the control plane evicted this target.
//
// Gap handling depends on the flow's failure model. Without leases the
// legacy heuristics apply: NACK rounds, immediate NotifyGaps surfacing,
// and — once Options.GapNackLimit rounds go unanswered with a source
// declared failed — a unilateral skip. Under leases (agreement flows)
// nothing is ever skipped unilaterally while an arbiter is reachable:
// the stuck target escalates to a gap-agreement round, delivers a
// refilled copy, or skips exactly the sequences the live membership
// agreed are unfillable — the same verdict every peer applies, which is
// what keeps the global order identical across targets. NotifyGaps then
// surfaces only agreed-unfillable sequences.
func (t *mcTarget) nextSegment(p transport.Ctx) ([]byte, bool) {
	if t.done || t.evicted || t.gapPending {
		return nil, false
	}
	if t.active != nil {
		t.recycle(t.active)
		t.active = nil
	}
	agree := t.agreementEnabled()
	limit := t.spec.Options.GapNackLimit
	if limit <= 0 {
		limit = 3 // normalize default; belt-and-suspenders for raw specs
	}
	for {
		t.poll(p)
		t.detectFailures(p)
		t.syncMcMembership()
		if t.evicted {
			return nil, false
		}
		if agree && !t.seqSpaceKnown && t.anyFailed() && t.allEnded() {
			// A source died without an end marker and nothing more can be
			// drawn: consult the sequencer for the true stream extent so
			// every survivor reconciles the same sequence space instead of
			// its own delivered count. Marked known even on failure — an
			// unreachable sequencer leaves the folded floor in place.
			if v, ok := t.seqSpaceSize(p); ok {
				t.seqSpace = v
			}
			t.seqSpaceKnown = true
		}
		if agree && t.skips[t.nextGlobal] {
			if t.spec.Options.NotifyGaps {
				t.gapPending = true
				t.gap = Gap{Seq: t.nextGlobal}
				t.gapSince = 0
				t.gapNacks = 0
				return nil, false
			}
			t.advanceSkips(p)
			continue
		}
		if buf, src, ok := t.headDeliverable(); ok {
			return t.deliver(p, buf, src), true
		}
		if t.finished() {
			t.done = true
			for s := range t.ended {
				t.sendFinalCredit(p, s)
			}
			if agree {
				t.spawnGapResponder(p)
			}
			return nil, false
		}
		// Head segment missing: a gap if anything newer already arrived or
		// the owning source has ended.
		blocked := len(t.pending) > 0 || t.anyEndedWithMissing()
		if blocked {
			if t.gapSince == 0 {
				t.gapSince = p.Now()
			} else if p.Now()-t.gapSince >= t.spec.Options.GapTimeout {
				seq, src := t.headMissing()
				switch {
				case agree && t.frozenSeq(seq):
					// A round's verdict is pending for the head; the
					// arbiter will fill or skip it. Keep waiting — unless
					// the arbiter died mid-round, taking the verdict with
					// it: thaw and let the ladder decide next timeout.
					if t.noLiveArbiter() {
						delete(t.frozen, seq)
					}
					t.gapSince = p.Now()
				case agree && t.gapNacks >= 2*limit && t.allEnded() && t.anyFailed() && t.noLiveArbiter():
					// Tail fallback: every source has ended, queries go
					// unanswered, and NO live arbiter remains (each slot
					// failed or released its lease after close). Only then
					// may a target skip unilaterally, as the lease-less
					// path would; nobody is left to disagree.
					t.nextGlobal = seq + 1
					t.totalDelivered++
					t.gapNacks = 0
					t.gapSince = 0
					t.gapsSkipped.Add(1)
					t.broadcastProgress(p)
					continue
				case agree && t.gapNacks >= limit && t.anyFailed():
					// NACKs went unanswered and a source is gone: its
					// retransmission history died with it. Escalate to the
					// agreement round (re-queried every timeout while
					// stuck; the arbiter resends probes idempotently).
					t.sendGapQuery(p, seq)
					t.gapNacks++
					t.gapSince = p.Now()
				case !agree && t.spec.Options.NotifyGaps:
					t.gapPending = true
					t.gap = Gap{Seq: seq}
					t.gapSince = 0
					return nil, false
				case !agree && t.spec.Options.GlobalOrdering && t.gapNacks >= limit && t.anyFailed():
					// The gap's owner crashed: no NACK will ever be
					// answered. Skip the sequence number and record the
					// skip as progress so credit keeps flowing.
					t.nextGlobal = seq + 1
					t.gapNacks = 0
					t.gapSince = 0
					t.gapsSkipped.Add(1)
					t.broadcastProgress(p)
					continue
				default:
					t.sendNack(p, seq, src)
					t.gapNacks++
					t.gapSince = p.Now() // restart the timeout for the NACK
				}
			}
		}
		t.waitArrival(p)
	}
}

// frozenSeq reports whether seq awaits an agreement verdict here.
func (t *mcTarget) frozenSeq(seq uint64) bool {
	if t.frozen == nil {
		return false
	}
	_, fr := t.frozen[seq]
	return fr
}

// spawnGapResponder keeps a finished target answering agreement probes:
// a peer may still be stuck in a round that needs this target's
// delivered history, and the main consume loop has returned. The
// responder polls the reliable QPs and exits once every source slot has
// left the flow or been evicted (membership reads are free) — the
// termination chain is: stuck requester keeps its arbiter's close
// lingering, the responder serves the round, the requester finishes,
// close returns, the sources release their leases, the responder exits.
func (t *mcTarget) spawnGapResponder(p transport.Ctx) {
	if t.responderUp {
		return
	}
	t.responderUp = true
	t.meta.cluster.Spawn(p, fmt.Sprintf("mc-gap-responder:%s:%d", t.spec.Name, t.idx), func(rp transport.Ctx) {
		iv := t.spec.Options.GapTimeout
		if iv <= 0 {
			iv = 5 * time.Microsecond
		}
		for {
			if t.node.Crashed(rp.Now()) || t.evicted {
				return
			}
			alive := false
			for s := range t.ended {
				st := t.mem.State(registry.RoleSource, s)
				if st != registry.StateLeft && st != registry.StateEvicted {
					alive = true
					break
				}
			}
			if !alive {
				return
			}
			for _, qp := range t.tqps {
				for qp.RecvCQ().Len() > 0 {
					c, ok := qp.RecvCQ().Poll(rp)
					if !ok {
						break
					}
					t.ingest(rp, c.Buf, c.Bytes, qp)
				}
			}
			rp.Sleep(iv)
		}
	})
}

// anyEndedWithMissing reports whether ended sources leave undelivered
// segments (a tail loss that produces no newer arrivals). For ordered
// flows the check runs in global sequence space once all sources ended.
func (t *mcTarget) anyEndedWithMissing() bool {
	if t.spec.Options.GlobalOrdering {
		for s := range t.ended {
			if !t.ended[s] {
				return false
			}
		}
		return t.nextGlobal < t.totalExpected()
	}
	for s := range t.ended {
		if t.ended[s] && t.delivered[s].Load() < t.endCount[s] {
			return true
		}
	}
	return false
}

// headMissing identifies the missing sequence number blocking delivery.
func (t *mcTarget) headMissing() (seq uint64, src int) {
	if t.spec.Options.GlobalOrdering {
		return t.nextGlobal, 0
	}
	for s := range t.nextSeq {
		if t.ended[s] && t.delivered[s].Load() < t.endCount[s] {
			return t.nextSeq[s], s
		}
	}
	for s := range t.nextSeq {
		if !t.ended[s] {
			if _, ok := t.pending[t.key(s, t.nextSeq[s])]; !ok {
				return t.nextSeq[s], s
			}
		}
	}
	return 0, 0
}

// waitArrival blocks briefly for the next message on any receive queue.
func (t *mcTarget) waitArrival(p transport.Ctx) {
	d := t.spec.Options.GapTimeout / 4
	if d <= 0 {
		d = 5 * time.Microsecond
	}
	t.ep.RecvCQ().WaitNonEmpty(p, d)
}

// pendingGap exposes a surfaced gap (NotifyGaps flows).
func (t *mcTarget) pendingGap() (Gap, bool) {
	if !t.gapPending {
		return Gap{}, false
	}
	return t.gap, true
}

// resolveGap skips past a surfaced gap: the application has agreed (e.g.
// via NOPaxos gap agreement) to treat the sequence number as a no-op. The
// skip counts as global progress so source credit keeps flowing.
func (t *mcTarget) resolveGap(p transport.Ctx) {
	if !t.gapPending {
		return
	}
	if t.spec.Options.GlobalOrdering {
		t.nextGlobal = t.gap.Seq + 1
		t.totalDelivered++
		t.gapsSkipped.Add(1)
		t.creditAcc[0]++
		t.sendCredit(p, 0, true)
	}
	t.gapPending = false
}

// requestGapRetransmit asks the sources to resend a surfaced gap instead
// of skipping it.
func (t *mcTarget) requestGapRetransmit(p transport.Ctx) {
	if !t.gapPending {
		return
	}
	t.sendNack(p, t.gap.Seq, 0)
	t.gapPending = false
	t.gapSince = p.Now()
}

func (t *mcTarget) free() {
	t.poolMR.Deregister()
}
