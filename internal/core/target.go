package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
)

// pollTimeout bounds one wait on the target's memory region before the
// consume loop re-checks all rings (a safety net; commits wake the waiter
// directly).
const pollTimeout = 100 * time.Microsecond

// zeroFlag is the store source used to clear footer flags; package-level so
// release stays allocation-free (Region.Store only reads it).
var zeroFlag [1]byte

// Target is a thread-level exit point of a flow. It owns the tuple
// iterator and the per-source state (one ringReader per source slot);
// the kind underneath — private rings, shared rings, a multicast group —
// is a segmentFeed that only supplies the next consumable segment. A
// ring target consumes segments in ring order per source and
// round-robins across sources (the nextRing() of paper Figure 4); a
// multicast target consumes them in sequence order.
type Target struct {
	meta *flowMeta
	spec *FlowSpec
	idx  int
	node transport.Endpoint
	reg  Registry

	feed    segmentFeed
	readers []*ringReader
	cur     int

	// Iteration state over the currently loaded segment.
	segData   []byte
	segOff    int
	remaining int
	tupleSize int

	// Control-plane membership (see lifecycle.go): the flow's record,
	// the last epoch folded in, the incarnation of the slot this target
	// attached under, and whether it was evicted (atomic: the node's
	// lease agent reads it to release the lease).
	mem     *registry.Membership
	epoch   uint64
	inc     uint64
	evicted atomic.Bool

	// live is how many source slots are in play — readers[:live] — and
	// sealed whether no more can join: every reader's, and final, unless
	// the flow is elastic (see foldSources).
	live   int
	sealed bool

	// nconsumed is the consume count, owned by the consuming process.
	// consumed is its scrape-visible copy, stored whenever the iterator
	// needs a new segment or reports flow end (publish): exact whenever
	// a Consume call returned false, at most the segment being iterated
	// behind otherwise.
	nconsumed uint64

	// Scrape-visible counters (atomic so a metrics endpoint can read
	// them while the flow runs).
	consumed atomic.Uint64
	done     atomic.Bool

	// resumedFrom is the consumption watermark carried over from the
	// previous incarnation by Reattach (0 for a first attachment).
	resumedFrom uint64

	// Event tracing (nil unless the application installed a sink on the
	// registry).
	events metrics.EventSink
	evNode string
}

// ringReader is the target's state for one source slot, common to every
// kind, plus the private-ring cursor (ringOff, rslot). closed means the
// slot will yield nothing more: its end marker was consumed, or the
// membership evicted the source.
type ringReader struct {
	ringOff  int
	rslot    int
	consumed atomic.Uint64 // segments consumed (private rings mirror it into the ring header)
	closed   bool
	failed   atomic.Bool // the membership evicted the source (see failSource)
}

// segmentFeed is the seam between the consuming engine and a kind: it
// finds consumable segments; the Target iterates them and keeps the
// per-source state.
type segmentFeed interface {
	// scan folds membership changes in (Target.syncMembership: before it
	// looks at a ring; after a multicast feed has taken in what arrived,
	// so that an end marker already here counts before its source is
	// folded as gone) and reports ok=false at once when that finds this
	// target evicted. Otherwise it recycles the segment handed out last,
	// makes one pass over the open sources among readers[:live] — round-robin
	// over rings, in sequence order over a multicast group — and returns
	// the first consumable segment's payload, its tuples' consume cost
	// charged. It closes a reader on its end marker. A pass that finds
	// nothing parks until something may have arrived, at most
	// pollTimeout, before it reports ok=false — unless it closed a
	// reader, skipped a gap or surfaced one, which the engine gets to see
	// at once.
	scan(p transport.Ctx) (data []byte, ok bool)
	// drop tells the kind source i will not be consumed from again
	// (evicted, or this target is going away): a shared ring stops
	// staging its tag, a multicast feed ends the slot at what it
	// delivered.
	drop(i int)
	// free releases the kind's receive buffers.
	free()
}

// privateFeed is the private-ring kind: one ring per source inside a
// single registered memory region — the coordinates in the embedded
// targetInfo, which is also what the target publishes for sources to
// connect to.
type privateFeed struct {
	targetInfo
	t      *Target
	active *ringReader // reader whose slot backs the segment handed out last

	// Scratch buffers for Region.Load/Store of footer and header bytes
	// (kept on the struct so the hot consume path does not allocate).
	footerScratch [transport.SegDescBytes]byte
	hdrScratch    [8]byte
}

// TargetOpen attaches to target slot targetIdx of the named flow. It
// allocates the target-side receive buffers (one ring per source) and
// publishes their addresses for sources to connect. For combiner flows use
// CombinerTargetOpen instead.
func TargetOpen(p transport.Ctx, reg Registry, name string, targetIdx int) (*Target, error) {
	meta := lookupFlow(p, reg, name)
	spec := &meta.spec
	if targetIdx < 0 || targetIdx >= len(spec.Targets) {
		return nil, fmt.Errorf("dfi: target index %d out of range for flow %q", targetIdx, name)
	}
	t := &Target{
		meta:      meta,
		spec:      spec,
		idx:       targetIdx,
		node:      spec.Targets[targetIdx].Node,
		reg:       reg,
		tupleSize: spec.Schema.TupleSize(),
	}
	if sink := reg.EventSink(); sink != nil {
		t.events = sink
		t.evNode = fmt.Sprintf("node%d", t.node.ID())
	}
	// info is what sources connect to, published once everything it
	// names is ready to receive.
	var info any
	switch {
	case spec.Options.Multicast:
		info = t.newMcFeed()
		t.feed.(*mcFeed).join(t.meta.group.Member(t.idx))
	case spec.Options.SharedRings:
		info = t.openSharedFeed()
	default:
		info = t.allocRings()
	}
	mem, err := membershipOf(reg, name)
	if err != nil {
		return nil, err
	}
	t.initTargetMembership(mem)
	if err := t.acquireTargetLease(p, reg, name); err != nil {
		return nil, err
	}
	if err := reg.PublishTarget(p, name, targetIdx, info); err != nil {
		return nil, err
	}
	return t, nil
}

// allocRings allocates the target's private receive memory — one ring per
// source slot (every possible slot on elastic flows) — and returns the
// connection info to publish.
func (t *Target) allocRings() *targetInfo {
	nSources := max(len(t.spec.Sources), t.spec.Options.MaxSources)
	f := &privateFeed{t: t}
	f.geom = t.spec.Options.ringGeometry()
	f.mr = t.meta.cluster.OpenRegion(t.node, nSources*f.geom.ringLen())
	t.feed = f
	for i := 0; i < nSources; i++ {
		off := i * f.geom.ringLen()
		f.ringOffs = append(f.ringOffs, off)
		t.readers = append(t.readers, &ringReader{ringOff: off})
	}
	return &f.targetInfo
}

// failSource closes source i's slot for good and reports it through
// FailedSources: the membership evicted it. The kind is told (see
// segmentFeed.drop).
func (t *Target) failSource(i int) {
	r := t.readers[i]
	r.closed = true
	r.failed.Store(true)
	t.feed.drop(i)
}

// initTargetMembership snapshots the membership the fresh rings attach
// under: the current epoch, the slot's own incarnation, the source slots
// in play, and the slots of sources already evicted or gone closed up
// front, the kind told (a re-attaching target missed those epochs while
// it was down).
func (t *Target) initTargetMembership(mem *registry.Membership) {
	t.mem = mem
	t.epoch = mem.Epoch()
	t.inc = mem.Incarnation(registry.RoleTarget, t.idx)
	t.foldSources()
	for i, r := range t.readers {
		if mem.SourceEvicted(i) {
			t.failSource(i)
		} else if mem.State(registry.RoleSource, i) == registry.StateLeft {
			// The source finished and released its lease while this target
			// was down; its end-of-flow marker went to the previous
			// incarnation's rings.
			r.closed = true
			t.feed.drop(i)
		}
	}
}

// closeLeftRings closes rings whose sources left the flow gracefully
// (released their leases after Close). A first attachment sees the
// end-of-flow marker in the ring itself; a re-attached target may have
// missed it — the marker went to the previous incarnation's rings — and
// would otherwise wait forever on a source that no longer exists. Only
// leased flows have Left sources, and only a private ring's Close
// confirms delivery before the marker goes out (its retransmit window,
// which LeaseTTL implies): a Left source has then had every data segment
// consumed, so only the marker can be skipped here. A shared ring
// confirms nothing — its Left sources may still have segments in flight
// — and never needs this: its targets cannot re-attach. Nor does a
// multicast source's Close confirm every target: it gives up on one it
// found stale and leaves, and that target still delivers what it holds,
// gaps settled by its ladder (NACK, then a skip once no arbiter is
// left), instead of being cut off here.
func (t *Target) closeLeftRings(n int) {
	if o := &t.spec.Options; o.LeaseTTL <= 0 || o.Multicast || o.SharedRings {
		return
	}
	for i, r := range t.readers[:n] {
		if !r.closed && t.mem.State(registry.RoleSource, i) == registry.StateLeft {
			r.closed = true
		}
	}
}

// Schema returns the flow's tuple schema.
func (t *Target) Schema() *schema.Schema { return t.spec.Schema }

// footerOff returns the region offset of reader r's current slot footer.
func (f *privateFeed) footerOff(r *ringReader) int {
	return r.ringOff + f.geom.segOff(r.rslot) + f.geom.segSize
}

// release marks reader r's current slot writable again and advances the
// ring: the footer flag is cleared (sources verify it with RDMA READs) and
// the ring-header consumed counter is bumped (latency-mode credit
// back-channel). Local stores by the owning node are free.
func (f *privateFeed) release(r *ringReader) {
	// The footer flag is remotely READ by writer probes and the header
	// counter by credit reads, so both stores go through Region.Store.
	f.mr.Store(f.footerOff(r)+transport.SegDescFlagsOff, zeroFlag[:])
	n := r.consumed.Load() + 1 // this process is the counter's only writer
	r.consumed.Store(n)
	binary.LittleEndian.PutUint64(f.hdrScratch[:], n)
	f.mr.Store(r.ringOff, f.hdrScratch[:])
	r.rslot = (r.rslot + 1) % f.geom.nSegs
}

// loadSegment returns the payload of reader r's current slot if it is
// consumable, releasing handled end-markers. It reports whether tuples
// became available.
func (f *privateFeed) loadSegment(p transport.Ctx, r *ringReader) ([]byte, bool) {
	// Footer bytes are written by remote WRITEs while the target polls
	// them, so the read goes through Region.Load, which synchronizes with
	// in-flight commits on concurrent backends (and is a plain copy on
	// the DES fabric).
	ftr := f.footerScratch[:]
	f.mr.Load(f.footerOff(r), ftr)
	d := transport.ParseSegDesc(ftr)
	if d.Flags&transport.SegCommitted == 0 {
		return nil, false
	}
	// The footer sequence number must match this lap's expected segment.
	// A mismatch means the slot holds stale data from a previous lap —
	// typically a retransmission or fault-injected duplicate of a segment
	// already consumed — which must not be consumed twice. The slot stays
	// blocked until the writer's current-lap WRITE overwrites it.
	seq, fill := d.Seq, int(d.Fill)
	if seq != r.consumed.Load() {
		return nil, false
	}
	if d.Flags&transport.SegEnd != 0 {
		r.closed = true
	}
	t := f.t
	if t.events != nil {
		t.events.Emit(metrics.Event{
			T: p.Now(), Node: t.evNode, Type: metrics.EvFooterCommit,
			Flow: t.spec.Name, Epoch: t.epoch, Role: "target",
			Slot: t.idx, Seq: seq, Bytes: uint64(fill),
		})
	}
	if fill == 0 {
		f.release(r)
		return nil, false
	}
	f.active = r
	off := r.ringOff + f.geom.segOff(r.rslot)
	return f.mr.Bytes()[off : off+fill], true
}

// scan releases the slot handed out last and looks once at every open
// ring among readers[:live], round-robin; an empty pass that closed no
// ring waits for the region's next commit.
func (f *privateFeed) scan(p transport.Ctx) ([]byte, bool) {
	if f.t.syncMembership() {
		return nil, false
	}
	if f.active != nil {
		f.release(f.active)
		f.active = nil
	}
	// Snapshot before looking: commits that land while the pass runs bump
	// the sequence number, so the wait returns immediately — no lost
	// wake-ups.
	seq := f.mr.CommitSeq()
	t, n := f.t, f.t.live
	ended := false
	for range t.readers[:n] {
		if t.cur >= n {
			t.cur = 0
		}
		r := t.readers[t.cur]
		t.cur = (t.cur + 1) % n
		if r.closed {
			continue
		}
		if data, ok := f.loadSegment(p, r); ok {
			t.charge(p, data)
			return data, true
		}
		ended = ended || r.closed
	}
	if !ended {
		f.mr.WaitCommit(p, seq, pollTimeout)
	}
	return nil, false
}

func (f *privateFeed) drop(int) {}

func (f *privateFeed) free() { f.mr.Deregister() }

// charge accounts the consume cost of a segment's tuples as a feed hands
// the segment out.
func (t *Target) charge(p transport.Ctx, data []byte) {
	t.node.Compute(p, time.Duration(len(data)/t.tupleSize)*consumeCost)
}

// nextSegment loads the next consumable segment into the iterator,
// blocking while none is available. It returns false when all sources
// have closed (flow end) or when this target was evicted.
func (t *Target) nextSegment(p transport.Ctx) bool {
	t.publish()
	for {
		if data, ok := t.feed.scan(p); ok {
			t.segData, t.segOff, t.remaining = data, 0, len(data)/t.tupleSize
			return true
		}
		if t.evicted.Load() || t.spec.Options.LeaseTTL == 0 && t.node.Crashed(p.Now()) {
			// Evicted from the membership (the survivors have taken over
			// this target's key range), or crashed with no lease to get it
			// evicted: stop consuming, and let go of every source so a
			// shared ring is not head-of-line-blocked by tags nobody will
			// drain.
			for i := range t.readers {
				t.feed.drop(i)
			}
			t.done.Store(true)
			return false
		}
		// Nothing consumable, and the scan has parked for it: close the
		// rings of sources that left before scanning once more — among
		// the slots of the membership the scan folded in.
		t.closeLeftRings(t.live)
		if t.flowEnded(t.live) {
			t.done.Store(true)
			return false
		}
	}
}

// flowEnded reports whether nothing more can arrive: no further source
// can join, and every slot among readers[:n] is closed.
func (t *Target) flowEnded(n int) bool {
	if !t.sealed {
		return false
	}
	for _, r := range t.readers[:n] {
		if !r.closed {
			return false
		}
	}
	return true
}

// Consume returns the next tuple from the flow, or ok=false once every
// source has closed (FLOW_END). The returned tuple is a zero-copy view
// into the receive ring, valid until the segment is recycled on a later
// Consume call — process or copy it before draining past the segment.
func (t *Target) Consume(p transport.Ctx) (schema.Tuple, bool) {
	if t.done.Load() {
		return nil, false
	}
	for t.remaining == 0 {
		if !t.nextSegment(p) {
			return nil, false
		}
	}
	tup := schema.Tuple(t.segData[t.segOff : t.segOff+t.tupleSize])
	t.segOff += t.tupleSize
	t.remaining--
	t.nconsumed++
	return tup, true
}

// ConsumeSegment returns the next whole consumable segment as a raw tuple
// batch (zero-copy), the higher-throughput interface used by the join
// implementations. The previous segment is recycled. A partially
// iterated segment hands out its rest as a batch.
func (t *Target) ConsumeSegment(p transport.Ctx) (data []byte, count int, ok bool) {
	if t.done.Load() {
		return nil, 0, false
	}
	if t.remaining == 0 && !t.nextSegment(p) {
		return nil, 0, false
	}
	data, count = t.segData[t.segOff:], t.remaining
	t.segOff = len(t.segData)
	t.remaining = 0
	t.nconsumed += uint64(count)
	return data, count, true
}

// FailedSources returns the source slots the membership evicted (a
// lapsed lease or an administrative eviction), in slot order.
func (t *Target) FailedSources() []int {
	var out []int
	for i, r := range t.readers {
		if r.failed.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Consumed returns the number of tuples consumed so far. It reads the
// consuming process's own count, so it is exact there and must not be
// called from any other goroutine while the target consumes — Stats is
// the accessor a concurrent observer uses.
func (t *Target) Consumed() uint64 { return t.nconsumed }

// publish makes the consume count visible to scrapers.
func (t *Target) publish() { t.consumed.Store(t.nconsumed) }

// ResumedFrom returns the consumption watermark the target carried over
// from its previous incarnation via Reattach (0 for a first
// attachment). Consumed counts only the current incarnation's tuples.
func (t *Target) ResumedFrom() uint64 { return t.resumedFrom }

// Slot returns the target's slot index within the flow.
func (t *Target) Slot() int { return t.idx }

// Reattach rejoins the flow after this target was evicted, reclaiming
// its old slot under a fresh incarnation. On private rings, new rings
// are allocated and republished, then the registry Rejoin bumps the flow
// epoch so every source reconnects — under ring partitioning the slot
// takes back exactly the arcs it lost, under modulo its keys rehash
// home; tuples in flight to the dead incarnation were harvested and
// re-pushed by the sources, so the stream is complete across the gap at
// least-once. A private-ring rejoin requires LeaseTTL: only a leased
// flow records the Left state that tells the fresh incarnation which
// sources finished while it was away (see closeLeftRings).
// An ordered multicast stream cannot be replayed: the fresh incarnation
// installs the registry's sequencer snapshot (high-water, per-source
// counts, agreed skips) and resumes delivery from the high-water (see
// rejoinGroup), which takes the lease/epoch control plane — without
// GlobalOrdering there is no global resume point, and without leases no
// snapshot was ever recorded. The returned Target resumes consumption;
// ResumedFrom reports the previous incarnation's consumed count.
// Rejoining a slot that was never evicted is refused, as is re-attaching
// from a crashed node.
func (t *Target) Reattach(p transport.Ctx) (*Target, error) {
	o := &t.spec.Options
	switch {
	case o.Multicast && (!o.GlobalOrdering || o.LeaseTTL <= 0):
		return nil, fmt.Errorf("%w: Reattach requires GlobalOrdering and LeaseTTL (no sequencer snapshot to rejoin from)", ErrUnsupportedOnMulticast)
	case o.SharedRings:
		return nil, fmt.Errorf("%w: Target.Reattach (shared-ring evictions re-route over the survivors instead)", ErrUnsupportedOnShared)
	case o.LeaseTTL <= 0:
		return nil, errors.New("dfi: Target.Reattach requires Options.LeaseTTL (without leases a rejoined target cannot learn which sources finished while it was away)")
	}
	if t.node.Crashed(p.Now()) {
		return nil, fmt.Errorf("dfi: target %d of flow %q cannot re-attach from crashed node %d", t.idx, t.spec.Name, t.node.ID())
	}
	name := t.spec.Name
	nt := &Target{
		meta:        t.meta,
		spec:        t.spec,
		idx:         t.idx,
		node:        t.node,
		reg:         t.reg,
		tupleSize:   t.tupleSize,
		resumedFrom: t.nconsumed,
	}
	// Fresh rings or queues first, then the epoch bump: sources folding the
	// rejoin epoch must find the republished info. RepublishTarget is fenced
	// to evicted slots, so a rejoin of a live slot is rejected here before
	// any membership change. A multicast rejoiner's info carries the
	// high-water it will install, from which sources restart its credit.
	var info any
	var snap registry.SeqSnapshot
	if o.Multicast {
		mi := nt.newMcFeed()
		snap, _ = t.reg.SeqSnapshot(p, name)
		mi.resumeAt = snap.HighWater
		info = mi
	} else {
		info = nt.allocRings()
	}
	if err := t.reg.RepublishTarget(p, name, t.idx, info); err != nil {
		nt.feed.free()
		return nil, fmt.Errorf("dfi: rejoin of target %d rejected: %w", t.idx, err)
	}
	if o.Multicast {
		if err := nt.rejoinGroup(p, t.mem, snap); err != nil {
			return nil, err
		}
	} else {
		if err := t.reg.Rejoin(p, name, registry.RoleTarget, t.idx); err != nil {
			return nil, fmt.Errorf("dfi: rejoin of target %d rejected: %w", t.idx, err)
		}
		nt.initTargetMembership(t.mem)
	}
	if err := nt.acquireTargetLease(p, t.reg, name); err != nil {
		return nil, err
	}
	return nt, nil
}

// Done reports whether the flow has ended at this target.
func (t *Target) Done() bool { return t.done.Load() }

// Free releases the target's receive buffers (after flow end).
func (t *Target) Free() { t.feed.free() }
