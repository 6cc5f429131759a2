package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/transport"
)

// Completion-ID tag bits distinguishing the writer's work requests on its
// send CQ.
const (
	idFooterRead  = 1 << 63
	idWrapWrite   = 1 << 62
	idCounterRead = 1 << 61
)

// ringWriter is the private-ring leg: it moves one source's tuples into
// one target's private ring (paper Figure 4). The embedded leg holds the
// segment being filled; this file is what happens to a filled segment:
// one RDMA WRITE whose 16-byte footer (transport.SegDesc) trails the
// payload, so the target detects complete segments without checksums,
// signaled only every sigEvery-th time (selective signaling).
//
// Flow control is one window in both optimization modes: written − acked
// segments are outstanding and may not exceed the ring size. The modes —
// bandwidth batches tuples into 8 KiB segments, latency writes each tuple
// at once into a tuple-sized segment — differ in how acked is learnt
// (postProbe): bandwidth mode READs the footer of an outstanding slot
// half a window ahead, latency mode READs the ring header's consumed
// counter. Either probe is posted ahead of need, when the window left
// drops to lowWater, and again by await when the writer is blocked.
// Where a missed probe backs off (await) and when the CQ is polled
// (awaitSlot) follow the probe's mode too: both cost virtual time.
type ringWriter struct {
	leg

	qp      transport.Queue
	remote  transport.Region
	ringOff int
	geom    ringGeom
	opts    *Options
	latency bool // Optimization == OptimizeLatency
	// lowWater is the remaining window at which a write posts the next
	// probe ahead of need: CreditThreshold in latency mode, 2 slots in
	// bandwidth mode.
	lowWater int

	local   transport.Region
	srcSegs int

	// written is mirrored into leg.segsWritten for concurrent scrape: the
	// ring arithmetic needs the plain field, so writeSegment republishes
	// it atomically at its single mutation site.
	written uint64 // segments written to the remote ring
	acked   uint64 // remote segments known to be consumed

	// slow counts consecutive no-progress recovery rounds against a
	// target whose lease is live, slowAt is the acked watermark they
	// started at (see stalled).
	slow   int
	slowAt uint64

	footerBuf     []byte
	cqBurst       [16]transport.Completion // drainCQ burst scratch
	footerPending bool
	probeWrite    uint64 // ring-write number the in-flight footer read probes
	completedW    uint64 // writes known complete (from signaled completions)
	sigEvery      int    // signal every sigEvery-th write

	// READs of the ring header's consumed counter: latency mode's probe
	// and, in both modes, recovery's resync.
	counterBuf     []byte
	counterPending bool

	// Diagnostics: virtual time spent blocked (nanoseconds), by cause.
	// Atomic so a scraper goroutine can read Stats() while the flow runs;
	// the simulation side is single-logical-threaded (baton passing), so
	// plain Add/Load suffice for it.
	StallRemote atomic.Int64 // waiting for remote ring slots
	StallLocal  atomic.Int64 // waiting for local segment reuse (wrap signal)
	Probes      atomic.Int64 // footer reads issued
	ProbeMisses atomic.Int64 // footer reads that found the slot unconsumed
	BackoffTime atomic.Int64
	Retransmits atomic.Int64 // segments rewritten by loss recovery

	// Event tracing context, set by the source at connect time. events
	// is nil unless the application installed a sink.
	events metrics.EventSink
	evNode string
	evFlow string
	evSlot int // target slot this writer feeds
}

// newRingWriter connects a source thread on node to the ring at ringOff
// inside the target's memory region.
func newRingWriter(cluster transport.Transport, node transport.Endpoint, ti *targetInfo, ringOff int, opts *Options) *ringWriter {
	qp, _ := cluster.Dial(node, ti.mr.Owner())
	w := &ringWriter{
		leg:        leg{segSize: ti.geom.segSize},
		qp:         qp,
		remote:     ti.mr,
		ringOff:    ringOff,
		geom:       ti.geom,
		opts:       opts,
		latency:    opts.Optimization == OptimizeLatency,
		lowWater:   2,
		srcSegs:    opts.SourceSegments,
		sigEvery:   signalCadence(opts.SourceSegments),
		footerBuf:  make([]byte, transport.SegDescBytes),
		counterBuf: make([]byte, 8),
	}
	if w.latency {
		w.lowWater = opts.CreditThreshold
	}
	w.local = cluster.OpenRegion(node, w.srcSegs*w.geom.stride())
	w.tx = w
	w.buf = w.localSeg(0)
	return w
}

// free releases the writer's registered memory.
func (w *ringWriter) free() {
	w.local.Deregister()
}

// harvest returns the written-but-unacked window still resident in the
// local ring (the leg adds the partial segment being filled). The harvest
// errs toward duplication — tuples the dead target consumed between its
// last acknowledgment and its eviction are re-delivered to a survivor
// (the cross-boundary at-least-once documented in docs/PROTOCOL.md) —
// while delivery among survivors stays exactly-once.
func (w *ringWriter) harvest(tupleSize int) [][]byte {
	var out [][]byte
	lo := w.acked
	if w.written-lo > uint64(w.srcSegs) {
		// Should be unreachable when the resident-window invariant holds
		// (normalize forces SourceSegments ≥ SegmentsPerRing+1 whenever
		// recovery is on); harvest what is still resident.
		lo = w.written - uint64(w.srcSegs)
	}
	for n := lo; n < w.written; n++ {
		seg := w.localSeg(n)
		fill := int(transport.ParseSegDesc(seg[w.geom.segSize:]).Fill)
		for off := 0; off+tupleSize <= fill; off += tupleSize {
			out = append(out, seg[off:off+tupleSize])
		}
	}
	return out
}

// localSeg returns the full-stride local buffer of write number n (the
// segment being filled is that of write number written).
func (w *ringWriter) localSeg(n uint64) []byte {
	base := int(n%uint64(w.srcSegs)) * w.geom.stride()
	return w.local.Bytes()[base : base+w.geom.stride()]
}

// remoteSlotAddr returns the address of remote ring slot i.
func (w *ringWriter) remoteSlotAddr(i int) transport.Addr {
	return transport.Addr{MR: w.remote, Off: w.ringOff + w.geom.segOff(i)}
}

// remoteHeaderAddr returns the address of the ring's consumed counter.
func (w *ringWriter) remoteHeaderAddr() transport.Addr {
	return transport.Addr{MR: w.remote, Off: w.ringOff}
}

// pushImmediate transfers one tuple right away (latency mode): a full
// segment write under the window.
func (w *ringWriter) pushImmediate(p transport.Ctx, tuple []byte) error {
	if err := w.checkAbort(); err != nil {
		return err
	}
	if err := w.awaitSlot(p); err != nil {
		return err
	}
	w.drainCQ(p)
	if err := w.waitLocalSlot(p); err != nil {
		return err
	}
	copy(w.buf, tuple)
	w.writeSegment(p, len(tuple), transport.SegCommitted)
	w.probeAhead(p)
	return nil
}

// flush transfers the current (possibly partial) segment; there is none
// in latency mode.
func (w *ringWriter) flush(p transport.Ctx) error {
	if w.fill == 0 {
		return nil
	}
	if err := w.awaitSlot(p); err != nil {
		return err
	}
	if err := w.waitLocalSlot(p); err != nil {
		return err
	}
	w.writeSegment(p, w.fill, transport.SegCommitted)
	w.probeAhead(p)
	return nil
}

// probeAhead pipelines the next probe with the segment just written, so
// that by the time the window is used up the answer is already here.
func (w *ringWriter) probeAhead(p transport.Ctx) {
	if w.geom.nSegs-int(w.written-w.acked) <= w.lowWater && !w.probePending() {
		w.postProbe(p)
	}
}

// writeSegment stamps the footer of the current local segment and issues
// the RDMA WRITE(s) to the next remote slot, advancing ring positions.
// fill is the valid payload size.
func (w *ringWriter) writeSegment(p transport.Ctx, fill int, flags byte) {
	seg := w.localSeg(w.written)
	footer := seg[w.geom.segSize:]
	transport.SegDesc{Fill: uint32(fill), Flags: flags, Seq: w.written}.Put(footer)

	slot := int(w.written % uint64(w.geom.nSegs))
	// Selective signaling: every sigEvery-th write carries a completion so
	// the local-ring watermark advances in quarter-ring steps and the
	// pipeline never drains fully (paper §5.2 signals once per ring
	// wrap-around; quarter-ring granularity keeps the same amortization
	// while avoiding a full-stop at each wrap).
	signaled := int(w.written%uint64(w.sigEvery)) == w.sigEvery-1
	id := uint64(idWrapWrite) | w.written
	if fill >= w.geom.segSize*3/4 || fill == 0 || w.opts.RetransmitTimeout > 0 {
		// Mostly full (or pure end-marker): one full-stride write; the
		// footer is the CommitTail so it lands strictly last. Retransmitting
		// flows always take this path: loss recovery relies on the footer
		// certifying exactly the payload it travelled with, and a split
		// write could lose the payload yet land the footer, exposing a
		// stale segment body as valid.
		w.qp.Write(p, seg, w.remoteSlotAddr(slot), transport.WriteOptions{
			Signaled: signaled, ID: id, CommitTail: transport.SegDescBytes,
		})
	} else {
		// Sparse final segment: write the payload, then the footer as a
		// separate (ordered) WRITE so only fill+16 bytes cross the wire.
		// Both WRs post with one doorbell; RC ordering still lands the
		// footer strictly after the payload.
		fAddr := w.remoteSlotAddr(slot)
		fAddr.Off += w.geom.segSize
		w.qp.WriteBatch(p, []transport.WriteWR{
			{Src: seg[:fill], Dst: w.remoteSlotAddr(slot)},
			{Src: footer, Dst: fAddr, Opts: transport.WriteOptions{
				Signaled: signaled, ID: id, CommitTail: transport.SegDescBytes,
			}},
		})
	}
	w.written++
	w.segsWritten.Store(w.written)
	w.payloadBytes.Add(uint64(fill))
	w.buf, w.fill = w.localSeg(w.written), 0
	if w.events != nil {
		w.events.Emit(metrics.Event{
			T: p.Now(), Node: w.evNode, Type: metrics.EvSegmentWrite,
			Flow: w.evFlow, Epoch: w.mem.Epoch(), Role: "source",
			Slot: w.evSlot, Seq: w.written - 1, Bytes: uint64(fill),
		})
	}
}

// awaitSlot blocks until the target's ring has room for one more
// segment. Bandwidth mode first folds in what its pipelined probes have
// brought back, and charges the wait to StallRemote. Latency mode polls
// only what it waits for — a poll costs time, and pushImmediate's drain
// follows its wait — and does not report the wait.
func (w *ringWriter) awaitSlot(p transport.Ctx) error {
	free := uint64(w.geom.nSegs) - 1
	if w.latency {
		return w.await(p, free)
	}
	w.drainCQ(p)
	if w.written-w.acked <= free {
		return nil
	}
	start := p.Now()
	err := w.await(p, free)
	w.StallRemote.Add(int64(p.Now() - start))
	return err
}

// await blocks until at most limit written segments are unacknowledged:
// nSegs−1 is "one slot is free", 0 is "everything was consumed". It is
// the writer's one bounded wait. Each turn posts a probe unless one is in
// flight and takes the next completion. Without RetransmitTimeout that is
// all, for as long as it takes (paper §5.2: poll with a small random
// backoff while the target lags). With it, a wait that times out, or
// whose completions keep arriving while acked has stood still for a whole
// timeout — the target is blocked on a segment that was lost, which no
// probe reveals — gives the probe up for lost and resynchronizes and
// retransmits (recover); rounds of that which move nothing are counted
// by stalled, and MaxRetransmits of them in a row break the flow. Every
// turn polls checkAbort, so an eviction ends the wait first.
func (w *ringWriter) await(p transport.Ctx, limit uint64) error {
	timeout := w.opts.RetransmitTimeout
	rounds := 0
	lastProgress := p.Now()
	for w.written-w.acked > limit {
		if err := w.checkAbort(); err != nil {
			return err
		}
		if !w.probePending() {
			w.postProbe(p)
		}
		if c, ok := w.next(p); ok {
			before := w.acked
			w.handleCompletion(p, c)
			if w.acked > before {
				lastProgress = p.Now()
				rounds = 0
			}
			if w.written-w.acked <= limit {
				break
			}
			if timeout <= 0 || p.Now()-lastProgress <= timeout {
				// A footer probe that found its slot unconsumed backed
				// off and went out again inside handleCompletion; the
				// counter READ's turn to back off is here, so that a
				// counter resync (recover) is never delayed by it.
				if w.latency && !w.counterPending {
					w.backoff(p)
				}
				continue
			}
		}
		w.footerPending, w.counterPending = false, false
		before := w.acked
		if err := w.recover(p); err != nil {
			return err
		}
		lastProgress = p.Now()
		if w.acked > before {
			rounds = 0
		} else if w.stalled(p, &rounds) {
			return fmt.Errorf("%w: %d segments unconfirmed after %d recovery rounds",
				ErrFlowBroken, w.written-w.acked, rounds-1)
		}
	}
	return nil
}

// probePending reports whether a probe is in flight: outside recover a
// counter READ is pending only in latency mode, a footer READ never is.
func (w *ringWriter) probePending() bool { return w.footerPending || w.counterPending }

// postProbe issues the asynchronous READ that advances acked. Latency
// mode reads the ring header's consumed counter. Bandwidth mode reads the
// footer of an outstanding slot: because the target consumes its ring in
// order, a cleared committed flag at read-ahead distance d proves the
// d+1 oldest outstanding segments were all consumed — so probing half a
// window ahead reclaims many slots per round trip instead of one,
// keeping the source pipelined even when the ring runs full.
func (w *ringWriter) postProbe(p transport.Ctx) {
	if w.latency {
		w.qp.Read(p, w.counterBuf, w.remoteHeaderAddr(), true, idCounterRead)
		w.counterPending = true
		return
	}
	outstanding := w.written - w.acked
	ahead := uint64(w.geom.nSegs / 2)
	if outstanding == 0 {
		return
	}
	if ahead > outstanding-1 {
		ahead = outstanding - 1
	}
	w.probeWrite = w.acked + ahead
	slot := int(w.probeWrite % uint64(w.geom.nSegs))
	addr := w.remoteSlotAddr(slot)
	addr.Off += w.geom.segSize
	w.qp.Read(p, w.footerBuf, addr, true, idFooterRead)
	w.footerPending = true
	w.Probes.Add(1)
}

// waitLocalSlot blocks until the local segment about to be filled is no
// longer referenced by an in-flight WRITE: write number `written` reuses
// the slot of write `written − srcSegs`, which must have completed. The
// watermark advances through the periodic signaled completions (QP
// completions are ordered, so completion of write k proves all writes
// ≤ k are done).
func (w *ringWriter) waitLocalSlot(p transport.Ctx) error {
	if w.written < uint64(w.srcSegs) {
		return nil
	}
	needed := w.written - uint64(w.srcSegs) + 1
	if w.completedW >= needed {
		return nil
	}
	start := p.Now()
	defer func() { w.StallLocal.Add(int64(p.Now() - start)) }()
	rounds := 0
	for w.completedW < needed {
		if err := w.checkAbort(); err != nil {
			return err
		}
		if c, ok := w.next(p); ok {
			w.handleCompletion(p, c)
			continue
		}
		// Completions only vanish when an endpoint crashed; retrying
		// cannot help, but give the fabric MaxRetransmits grace rounds
		// (and a target whose lease is live, as long as it takes).
		if w.targetLeaseLive() {
			continue
		}
		rounds++
		if rounds > w.opts.MaxRetransmits {
			return fmt.Errorf("%w: write completion overdue after %d rounds (peer crashed?)", ErrFlowBroken, rounds-1)
		}
	}
	return nil
}

// next takes the next completion off the send CQ, however long that
// takes without RetransmitTimeout, and reporting false once it has run
// out with it.
func (w *ringWriter) next(p transport.Ctx) (transport.Completion, bool) {
	if w.opts.RetransmitTimeout <= 0 {
		return w.qp.SendCQ().Wait(p), true
	}
	return w.qp.SendCQ().WaitTimeout(p, w.opts.RetransmitTimeout)
}

// drainCQ consumes available completions without blocking, in bursts:
// each PollBatch empties what is pending into the writer's scratch
// array in one go (one wakeup, one lock hold on goroutine backends),
// then the handlers run over the batch. The loop repeats only when the
// batch came back full, i.e. more completions may be pending.
func (w *ringWriter) drainCQ(p transport.Ctx) {
	for {
		n := w.qp.SendCQ().PollBatch(p, w.cqBurst[:])
		for i := 0; i < n; i++ {
			w.handleCompletion(p, w.cqBurst[i])
			w.cqBurst[i] = transport.Completion{}
		}
		if n < len(w.cqBurst) {
			return
		}
	}
}

// handleCompletion dispatches one CQ entry.
func (w *ringWriter) handleCompletion(p transport.Ctx, c transport.Completion) {
	switch {
	case c.ID&idFooterRead != 0:
		w.footerPending = false
		// A cleared committed flag alone is ambiguous: the probe travels
		// on the fast control lane and can overtake the (bulk-lane) WRITE
		// it is probing, observing the stale footer of the previous lap.
		// The footer's sequence number pins the observation to the probed
		// write: flags clear AND seq matching means the target really
		// consumed it — and, consuming in ring order, everything older.
		d := transport.ParseSegDesc(w.footerBuf)
		if d.Flags&transport.SegCommitted == 0 && d.Seq == w.probeWrite {
			// Never regress: a stale probe completing after a recover()
			// resync may report an older watermark.
			if w.probeWrite+1 > w.acked {
				w.acked = w.probeWrite + 1
			}
		} else if int(w.written-w.acked) >= w.geom.nSegs {
			// Still unconsumed and we are blocked: back off before
			// re-reading so a slow target is not flooded with READs.
			w.ProbeMisses.Add(1)
			w.backoff(p)
			w.postProbe(p)
		}
	case c.ID&idCounterRead != 0:
		w.counterPending = false
		// The ring-header consumed counter is authoritative in both
		// modes; fold it into the acked watermark (never regressing).
		consumed := binary.LittleEndian.Uint64(w.counterBuf)
		if consumed > w.acked && consumed <= w.written {
			w.acked = consumed
		}
	case c.ID&idWrapWrite != 0:
		done := c.ID &^ (idWrapWrite | idFooterRead | idCounterRead)
		if done+1 > w.completedW {
			w.completedW = done + 1
		}
	}
}

// stalled counts one recovery round that made no progress and reports
// whether MaxRetransmits in a row have gone by, which breaks the flow.
// A round does not count while the target's lease is live: it is slow —
// a dense fleet takes longer than MaxRetransmits × LeaseTTL/2 to get
// round to one ring — not failed, and saying otherwise is the control
// plane's call (every wait that counts rounds polls checkAbort, so an
// eviction ends it). Not giving up must not mean retransmitting the
// window every timeout for as long as the target is slow — a fleet of
// writers doing that is what keeps targets slow — so past MaxRetransmits
// uncounted rounds with the watermark still, each round first sits out
// a doubling number of timeouts (2^slowBackoffMax at most).
func (w *ringWriter) stalled(p transport.Ctx, rounds *int) bool {
	if !w.targetLeaseLive() {
		*rounds++
		return *rounds > w.opts.MaxRetransmits
	}
	if w.acked != w.slowAt {
		w.slowAt, w.slow = w.acked, 0
	}
	w.slow++
	if over := w.slow - w.opts.MaxRetransmits; over > 0 {
		for n := 1 << min(over, slowBackoffMax); n > 0 && w.checkAbort() == nil; n-- {
			p.Sleep(w.opts.RetransmitTimeout)
		}
	}
	return false
}

// targetLeaseLive reports whether the flow is leased and the target's
// slot is Active under the incarnation this leg connected to.
func (w *ringWriter) targetLeaseLive() bool {
	return w.opts.LeaseTTL > 0 && w.mem.State(registry.RoleTarget, w.slot) == registry.StateActive &&
		w.mem.Incarnation(registry.RoleTarget, w.slot) == w.inc
}

const slowBackoffMax = 6

// backoff sleeps a small randomized interval (0.5µs–2µs).
func (w *ringWriter) backoff(p transport.Ctx) {
	d := 500*time.Nanosecond + time.Duration(p.Rand().Int63n(int64(1500*time.Nanosecond)))
	w.BackoffTime.Add(int64(d))
	p.Sleep(d)
}

// recover resynchronizes the writer against the authoritative ring-header
// consumed counter and retransmits every written-but-unconsumed segment
// still resident in the local ring. Retransmission is idempotent: the
// target's footer sequence check ignores segments it already consumed, so
// rewriting a merely-slow (rather than lost) segment is harmless — on RDMA
// and on the DES as it stands; under the Go memory model rewriting bytes
// the target is reading is a data race even when they do not change, so
// the backend that runs on real goroutines (chanloop) moves no bytes for a
// WRITE that already matches its destination. Only called with
// RetransmitTimeout > 0.
func (w *ringWriter) recover(p transport.Ctx) error {
	// 1. Resync: read the consumed counter, bounded, retrying lost READs.
	for attempt := 0; ; attempt++ {
		if err := w.checkAbort(); err != nil {
			return err
		}
		w.qp.Read(p, w.counterBuf, w.remoteHeaderAddr(), true, idCounterRead)
		w.counterPending = true
		for w.counterPending {
			c, ok := w.next(p)
			if !ok {
				break
			}
			w.handleCompletion(p, c)
		}
		if !w.counterPending {
			break
		}
		w.counterPending = false
		if attempt >= w.opts.MaxRetransmits {
			return fmt.Errorf("%w: target unreachable (%d consumed-counter reads unanswered)", ErrFlowBroken, attempt+1)
		}
	}
	// handleCompletion folded the answer into acked, unless it is absurd.
	consumed := binary.LittleEndian.Uint64(w.counterBuf)
	if consumed > w.written {
		return fmt.Errorf("%w: target consumed %d of %d written segments (ring corrupt)", ErrFlowBroken, consumed, w.written)
	}
	// 2. Retransmit the unconsumed window. normalize guarantees
	// srcSegs ≥ nSegs, so written − acked ≤ nSegs keeps it resident.
	if w.written-w.acked > uint64(w.srcSegs) {
		return fmt.Errorf("%w: unconsumed segment %d already left the local ring", ErrFlowBroken, w.acked)
	}
	// Unsignaled rewrites to adjacent remote slots coalesce into one
	// doorbell-batched post per non-wrapping run; each segment keeps its
	// own CommitTail so every footer still lands after its payload.
	var wrs []transport.WriteWR
	for n := w.acked; n < w.written; n++ {
		rslot := int(n % uint64(w.geom.nSegs))
		if rslot == 0 && len(wrs) > 0 {
			w.qp.WriteBatch(p, wrs)
			wrs = wrs[:0]
		}
		wrs = append(wrs, transport.WriteWR{
			Src: w.localSeg(n), Dst: w.remoteSlotAddr(rslot),
			Opts: transport.WriteOptions{CommitTail: transport.SegDescBytes},
		})
		w.Retransmits.Add(1)
	}
	if len(wrs) > 0 {
		w.qp.WriteBatch(p, wrs)
	}
	return nil
}

// finish is the first half of a phased close: flush the remaining
// tuples and confirm delivery, but do not write the end marker yet.
// Splitting matters under eviction — the harvest of a leg that dies
// during phase 1 is re-pushed to survivors, which must therefore not
// have sent FLOW_END yet.
func (w *ringWriter) finish(p transport.Ctx) error {
	if err := w.checkAbort(); err != nil {
		return err
	}
	if err := w.flush(p); err != nil {
		return err
	}
	err := w.confirmDelivered(p)
	if err != nil && !errors.Is(err, errEvicted) {
		// The stream cannot be confirmed, so the source gives the leg up
		// and routes nothing more to it: its end marker goes out now,
		// unconfirmed, for a target that is alive but slow to answer. The
		// confirm's error is the one to report.
		_ = w.writeEnd(p)
	}
	return err
}

// end is the second half of a phased close: write the end-of-flow
// marker segment and confirm the whole stream including the marker.
// Only called once no live leg has anything left to drain (finish
// reached quiescence), so a late eviction here can no longer lose
// tuples.
func (w *ringWriter) end(p transport.Ctx) error {
	if w.closed {
		return nil
	}
	if err := w.checkAbort(); err != nil {
		return err
	}
	if err := w.writeEnd(p); err != nil {
		return err
	}
	return w.confirmDelivered(p)
}

// writeEnd writes the end-of-flow marker segment once a slot is free.
func (w *ringWriter) writeEnd(p transport.Ctx) error {
	w.closed = true
	if err := w.awaitSlot(p); err != nil {
		return err
	}
	if err := w.waitLocalSlot(p); err != nil {
		return err
	}
	w.writeSegment(p, 0, transport.SegCommitted|transport.SegEnd)
	return nil
}

// confirmDelivered, with RetransmitTimeout set, blocks until the target
// consumed everything written, recovering lost segments on the way, so
// that a successful Close certifies delivery of the whole stream
// including the end-of-flow marker. Without it there is nothing that
// would retransmit, and nothing is waited for.
func (w *ringWriter) confirmDelivered(p transport.Ctx) error {
	if w.opts.RetransmitTimeout <= 0 {
		return nil
	}
	return w.await(p, 0)
}
