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

// Completion-ID tag bits distinguishing the writer's work requests on its
// send CQ.
const (
	idFooterRead = 1 << 63
	idWrapWrite  = 1 << 62
	idCreditRead = 1 << 61
)

// ringWriter is the private-ring leg: it moves one source's tuples into
// one target's private ring (paper Figure 4). The embedded leg holds the
// segment being filled; this file is what happens to a filled segment. It
// implements both optimization modes:
//
//   - Bandwidth: tuples batch into 8 KiB segments; each full segment is one
//     RDMA WRITE whose 16-byte footer (fill count + consumable flag +
//     sequence number) trails the payload, so the target detects complete
//     segments without checksums. Writes are signaled only when the local
//     source ring wraps (selective signaling); remote-slot reuse is
//     verified with RDMA READs of the next footer, pipelined with writes,
//     falling back to randomized-backoff polling when the target lags.
//
//   - Latency: each tuple is written immediately into a tuple-sized
//     segment. A credit counter (initialized to the ring size) avoids the
//     per-write footer check; the source refreshes credit by reading the
//     target's consumed counter when the local copy drops below the
//     threshold.
type ringWriter struct {
	leg

	tpt     transport.Transport
	node    transport.Endpoint
	qp      transport.Queue
	remote  transport.Region
	ringOff int
	geom    ringGeom
	opts    *Options

	local   transport.Region
	srcSegs int
	sslot   int

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
	seq           uint64

	// Latency mode.
	credits       int
	sent          uint64
	creditBuf     []byte
	creditPending bool

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
		leg:       leg{segSize: ti.geom.segSize},
		tpt:       cluster,
		node:      node,
		qp:        qp,
		remote:    ti.mr,
		ringOff:   ringOff,
		geom:      ti.geom,
		opts:      opts,
		srcSegs:   opts.SourceSegments,
		sigEvery:  signalCadence(opts.SourceSegments),
		credits:   ti.geom.nSegs,
		footerBuf: make([]byte, footerBytes),
		creditBuf: make([]byte, 8),
	}
	w.local = cluster.OpenRegion(node, w.srcSegs*w.geom.stride())
	w.tx = w
	w.buf = w.localSeg()
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
		lbase := int(n%uint64(w.srcSegs)) * w.geom.stride()
		seg := w.local.Bytes()[lbase : lbase+w.geom.stride()]
		footer := seg[w.geom.segSize:]
		fill := int(binary.LittleEndian.Uint32(footer[0:4]))
		for off := 0; off+tupleSize <= fill; off += tupleSize {
			out = append(out, seg[off:off+tupleSize])
		}
	}
	return out
}

// localSeg returns the current local segment's full-stride buffer.
func (w *ringWriter) localSeg() []byte {
	base := w.sslot * w.geom.stride()
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
// segment write under credit flow control.
func (w *ringWriter) pushImmediate(p transport.Ctx, tuple []byte) error {
	if err := w.checkAbort(); err != nil {
		return err
	}
	if err := w.ensureCredit(p); err != nil {
		return err
	}
	w.drainCQ(p)
	if err := w.waitLocalSlot(p); err != nil {
		return err
	}

	copy(w.buf, tuple)
	w.writeSegment(p, len(tuple), flagConsumable)
	w.credits--
	w.sent++
	if w.credits <= w.opts.CreditThreshold && !w.creditPending {
		w.qp.Read(p, w.creditBuf, w.remoteHeaderAddr(), true, idCreditRead)
		w.creditPending = true
	}
	return nil
}

// ensureCredit blocks until at least one credit is available, reading the
// target's consumed counter as needed. With RetransmitTimeout set, a stall
// triggers resync-and-retransmit (the credit counter stalls exactly when a
// segment the target needs next was lost).
func (w *ringWriter) ensureCredit(p transport.Ctx) error {
	rounds := 0
	lastProgress := p.Now()
	for w.credits <= 0 {
		if err := w.checkAbort(); err != nil {
			return err
		}
		if !w.creditPending {
			w.qp.Read(p, w.creditBuf, w.remoteHeaderAddr(), true, idCreditRead)
			w.creditPending = true
		}
		if w.opts.RetransmitTimeout <= 0 {
			w.handleCompletion(p, w.qp.SendCQ().Wait(p))
			if w.credits <= 0 && !w.creditPending {
				w.backoff(p)
			}
			continue
		}
		c, ok := w.qp.SendCQ().WaitTimeout(p, w.opts.RetransmitTimeout)
		if ok {
			before := w.credits
			w.handleCompletion(p, c)
			if w.credits > before {
				lastProgress = p.Now()
				rounds = 0
			}
			if w.credits > 0 {
				break
			}
			if p.Now()-lastProgress <= w.opts.RetransmitTimeout {
				if !w.creditPending {
					w.backoff(p)
				}
				continue
			}
			// Credit READs answer but the counter is stuck: the target is
			// blocked on a segment that was lost. Fall through to recovery.
		}
		w.creditPending = false
		before := w.credits
		if err := w.recover(p); err != nil {
			return err
		}
		lastProgress = p.Now()
		if w.credits <= before {
			if w.stalled(p, &rounds) {
				return fmt.Errorf("%w: no credit after %d recovery rounds", ErrFlowBroken, rounds-1)
			}
		} else {
			rounds = 0
		}
	}
	return nil
}

// flush transfers the current (possibly partial) segment. Bandwidth mode.
func (w *ringWriter) flush(p transport.Ctx) error {
	if w.fill == 0 {
		return nil
	}
	w.drainCQ(p)
	if err := w.ensureRemoteWritable(p); err != nil {
		return err
	}
	if err := w.waitLocalSlot(p); err != nil {
		return err
	}
	w.writeSegment(p, w.fill, flagConsumable)

	// Pipeline: while the segment is in flight, learn about the oldest
	// outstanding remote slot so the next flush need not wait.
	if int(w.written-w.acked) >= w.geom.nSegs-2 && !w.footerPending {
		w.postFooterRead(p)
	}
	return nil
}

// writeSegment stamps the footer of the current local segment and issues
// the RDMA WRITE(s) to the next remote slot, advancing ring positions.
// fill is the valid payload size.
func (w *ringWriter) writeSegment(p transport.Ctx, fill int, flags byte) {
	seg := w.localSeg()
	footer := seg[w.geom.segSize:]
	binary.LittleEndian.PutUint32(footer[0:4], uint32(fill))
	footer[4] = flags
	footer[5], footer[6], footer[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(footer[8:16], w.seq)
	w.seq++

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
			Signaled: signaled, ID: id, CommitTail: footerBytes,
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
				Signaled: signaled, ID: id, CommitTail: footerBytes,
			}},
		})
	}
	w.written++
	w.segsWritten.Store(w.written)
	w.payloadBytes.Add(uint64(fill))
	w.sslot = (w.sslot + 1) % w.srcSegs
	w.buf, w.fill = w.localSeg(), 0
	if w.events != nil {
		w.events.Emit(metrics.Event{
			T: p.Now(), Node: w.evNode, Type: metrics.EvSegmentWrite,
			Flow: w.evFlow, Epoch: w.mem.Epoch(), Role: "source",
			Slot: w.evSlot, Seq: w.seq - 1, Bytes: uint64(fill),
		})
	}
}

// ensureRemoteWritable blocks until the next remote slot is reusable,
// reading its footer and polling with a small random backoff while the
// target lags (paper §5.2). With RetransmitTimeout set, a stalled probe
// pipeline (lost probe, lost probe response, or a lost WRITE the target is
// stuck waiting for) triggers resync-and-retransmit instead of a hang.
func (w *ringWriter) ensureRemoteWritable(p transport.Ctx) error {
	start := p.Now()
	defer func() { w.StallRemote.Add(int64(p.Now() - start)) }()
	rounds := 0
	lastProgress := p.Now()
	for int(w.written-w.acked) >= w.geom.nSegs {
		if err := w.checkAbort(); err != nil {
			return err
		}
		if !w.footerPending {
			w.postFooterRead(p)
			continue
		}
		if w.opts.RetransmitTimeout <= 0 {
			w.handleCompletion(p, w.qp.SendCQ().Wait(p))
			continue
		}
		c, ok := w.qp.SendCQ().WaitTimeout(p, w.opts.RetransmitTimeout)
		if ok {
			before := w.acked
			w.handleCompletion(p, c)
			if w.acked > before {
				lastProgress = p.Now()
				rounds = 0
			}
			if p.Now()-lastProgress <= w.opts.RetransmitTimeout {
				continue
			}
			// Probes keep answering but the watermark is stuck: the
			// target is blocked on a lost segment, which no amount of
			// probing reveals. Fall through to recovery.
		}
		w.footerPending = false // abandon the (presumed lost) probe
		before := w.acked
		if err := w.recover(p); err != nil {
			return err
		}
		lastProgress = p.Now()
		if w.acked == before {
			if w.stalled(p, &rounds) {
				return fmt.Errorf("%w: remote ring full, no progress after %d recovery rounds", ErrFlowBroken, rounds-1)
			}
		} else {
			rounds = 0
		}
	}
	return nil
}

// postFooterRead issues an asynchronous READ of an outstanding remote
// slot's footer. Because the target consumes its ring in order, a cleared
// consumable flag at read-ahead distance d proves the d+1 oldest
// outstanding segments were all consumed — so probing half a window ahead
// reclaims many slots per round trip instead of one, keeping the source
// pipelined even when the ring runs full.
func (w *ringWriter) postFooterRead(p transport.Ctx) {
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
		if w.opts.RetransmitTimeout <= 0 {
			w.handleCompletion(p, w.qp.SendCQ().Wait(p))
			continue
		}
		c, ok := w.qp.SendCQ().WaitTimeout(p, w.opts.RetransmitTimeout)
		if ok {
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
		// A cleared consumable flag alone is ambiguous: the probe travels
		// on the fast control lane and can overtake the (bulk-lane) WRITE
		// it is probing, observing the stale footer of the previous lap.
		// The footer's sequence number pins the observation to the probed
		// write: flags clear AND seq matching means the target really
		// consumed it — and, consuming in ring order, everything older.
		seq := binary.LittleEndian.Uint64(w.footerBuf[8:16])
		if w.footerBuf[4]&flagConsumable == 0 && seq == w.probeWrite {
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
			w.postFooterRead(p)
		}
	case c.ID&idCreditRead != 0:
		w.creditPending = false
		consumed := binary.LittleEndian.Uint64(w.creditBuf)
		w.credits = w.geom.nSegs - int(w.sent-consumed)
		// The ring-header consumed counter is authoritative in both
		// modes; fold it into the acked watermark (never regressing).
		if consumed > w.acked && consumed <= w.written {
			w.acked = consumed
		}
	case c.ID&idWrapWrite != 0:
		done := c.ID &^ (idWrapWrite | idFooterRead | idCreditRead)
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
		w.qp.Read(p, w.creditBuf, w.remoteHeaderAddr(), true, idCreditRead)
		w.creditPending = true
		for w.creditPending {
			c, ok := w.qp.SendCQ().WaitTimeout(p, w.opts.RetransmitTimeout)
			if !ok {
				break
			}
			w.handleCompletion(p, c)
		}
		if !w.creditPending {
			break
		}
		w.creditPending = false
		if attempt >= w.opts.MaxRetransmits {
			return fmt.Errorf("%w: target unreachable (%d consumed-counter reads unanswered)", ErrFlowBroken, attempt+1)
		}
	}
	consumed := binary.LittleEndian.Uint64(w.creditBuf)
	if consumed > w.written {
		return fmt.Errorf("%w: target consumed %d of %d written segments (ring corrupt)", ErrFlowBroken, consumed, w.written)
	}
	if consumed > w.acked {
		w.acked = consumed
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
		lbase := int(n%uint64(w.srcSegs)) * w.geom.stride()
		seg := w.local.Bytes()[lbase : lbase+w.geom.stride()]
		rslot := int(n % uint64(w.geom.nSegs))
		if rslot == 0 && len(wrs) > 0 {
			w.qp.WriteBatch(p, wrs)
			wrs = wrs[:0]
		}
		wrs = append(wrs, transport.WriteWR{
			Src: seg, Dst: w.remoteSlotAddr(rslot),
			Opts: transport.WriteOptions{CommitTail: footerBytes},
		})
		w.Retransmits.Add(1)
	}
	if len(wrs) > 0 {
		w.qp.WriteBatch(p, wrs)
	}
	return nil
}

// confirmDelivered blocks until the target consumed everything written
// (acked == written), recovering lost segments on the way. Called from
// close when RetransmitTimeout is set, so a successful Close certifies
// delivery of the whole stream including the end-of-flow marker.
func (w *ringWriter) confirmDelivered(p transport.Ctx) error {
	rounds := 0
	lastProgress := p.Now()
	for w.acked < w.written {
		if err := w.checkAbort(); err != nil {
			return err
		}
		if !w.footerPending && w.opts.Optimization == OptimizeBandwidth {
			w.postFooterRead(p)
		}
		c, ok := w.qp.SendCQ().WaitTimeout(p, w.opts.RetransmitTimeout)
		if ok {
			before := w.acked
			w.handleCompletion(p, c)
			if w.acked > before {
				lastProgress = p.Now()
				rounds = 0
			}
			if p.Now()-lastProgress <= w.opts.RetransmitTimeout {
				continue
			}
			// Completions flow but the watermark is stuck (lost segment
			// blocking the target): fall through to recovery.
		}
		w.footerPending = false
		before := w.acked
		if err := w.recover(p); err != nil {
			return err
		}
		lastProgress = p.Now()
		if w.acked == before {
			if w.stalled(p, &rounds) {
				return fmt.Errorf("%w: %d segments unconfirmed after %d recovery rounds",
					ErrFlowBroken, w.written-w.acked, rounds-1)
			}
		} else {
			rounds = 0
		}
	}
	return nil
}

// close flushes remaining tuples and writes the end-of-flow marker. With
// RetransmitTimeout set it additionally confirms the whole stream was
// consumed, retransmitting losses.
func (w *ringWriter) close(p transport.Ctx) error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.opts.Optimization == OptimizeBandwidth {
		if err := w.flush(p); err != nil { // remaining tuples
			return err
		}
	}
	return w.writeEnd(p)
}

// finish is the first half of a phased close (sources with a live
// membership record use finish-all-then-end-all instead of per-leg
// close): flush the remaining tuples and confirm delivery, but do not
// write the end marker yet. Splitting matters under eviction — the
// harvest of a leg that dies during phase 1 is re-pushed to survivors,
// which must therefore not have sent FLOW_END yet.
func (w *ringWriter) finish(p transport.Ctx) error {
	if err := w.checkAbort(); err != nil {
		return err
	}
	if w.opts.Optimization == OptimizeBandwidth {
		if err := w.flush(p); err != nil {
			return err
		}
	}
	if w.opts.RetransmitTimeout > 0 {
		return w.confirmDelivered(p)
	}
	return nil
}

// end is the second half of a phased close: write the end-of-flow
// marker and confirm it. Only called once no live leg has anything left
// to drain (finish reached quiescence), so a late eviction here can no
// longer lose tuples.
func (w *ringWriter) end(p transport.Ctx) error {
	if w.closed {
		return nil
	}
	if err := w.checkAbort(); err != nil {
		return err
	}
	w.closed = true
	return w.writeEnd(p)
}

// writeEnd writes the end-of-flow marker segment and, with
// RetransmitTimeout set, confirms the whole stream including the marker.
func (w *ringWriter) writeEnd(p transport.Ctx) error {
	if w.opts.Optimization == OptimizeLatency {
		if err := w.ensureCredit(p); err != nil {
			return err
		}
	} else {
		w.drainCQ(p)
		if err := w.ensureRemoteWritable(p); err != nil {
			return err
		}
	}
	if err := w.waitLocalSlot(p); err != nil {
		return err
	}
	w.writeSegment(p, 0, flagConsumable|flagEndOfFlow)
	if w.opts.Optimization == OptimizeLatency {
		w.credits--
		w.sent++
	}
	if w.opts.RetransmitTimeout > 0 {
		return w.confirmDelivered(p)
	}
	return nil
}
