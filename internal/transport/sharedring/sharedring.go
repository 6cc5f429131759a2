// Package sharedring multiplexes many flows over one shared ring per
// (source-node, target-node) pair — the SRQ answer to the RDMA
// connection-scaling wall: ring memory, queue pairs and credit traffic
// grow with the number of node pairs, not the number of flows.
//
// One Link owns a receiver-side memory Region laid out as a 64-byte
// header (the receiver-advanced release counter) followed by fixed-size
// slots, each a payload area plus the 16-byte descriptor every ring kind
// uses (transport.SegDesc) as its footer: segment fill, flags, the 24-bit
// flow tag, and as seq the absolute ring index + 1, so neither a previous
// lap nor zeroed memory matches the expected slot. Senders
// on the source node share the ring under a weighted credit scheduler:
// every stream (one flow's traffic to one target slot) holds at most
// bound(weight) slots in flight, so a hot flow saturates the ring only
// up to its share and can never starve co-resident neighbors. The
// receiver demultiplexes committed slots to per-tag staging queues and
// releases them by bumping the header counter, which senders observe
// with an RDMA READ — exactly the paper's credit loop, amortized over
// all flows sharing the node pair.
//
// Receiving is leader/followers. The paper's target polls the footers
// of its own ring, so a landed segment wakes exactly one thread; a ring
// shared by many consumers keeps that property by letting only one of
// them poll it. Any consumer entering Recv pumps what is already
// committed (plain local loads) and looks at its own staging queue. If
// it has to wait, the first to do so on a link becomes the leader: it
// waits on the ring region's commit sequence, pays the backend's
// polling delay (DetectDelay on the DES) when a commit lands, pumps,
// and wakes only the consumers whose tag received a segment, an end
// marker or a drop. Everyone else is a follower parked on its own tag's
// wake-up, a hand-off through local memory that costs no polling delay;
// a segment for a follower is therefore seen exactly as late as on a
// private ring — one DetectDelay after its footer lands. A leader that
// leaves Recv for any reason (its own segment, end, drop, timeout)
// promotes the longest-waiting follower, first in first out, which
// re-snapshots the commit sequence before it pumps so that nothing
// committed in between is slept through. Slots still release in ring
// order, so the head-of-line blocking of a stalled consumer is what it
// was; the consumer that makes room in a full staging queue restarts
// the pump itself.
//
// The package is written purely against the transport verb interfaces,
// so both backends (DES fabric and chanloop) run it unmodified.
//
// Concurrency contract: all exported methods are goroutine-safe AND
// sim-safe. Internally a short-hold mutex guards ring state; it is never
// held across a parking verb (WaitCommit, Cond.Wait, ReadSync, Sleep),
// which is the rule that keeps the DES kernel — one process runs at a time — free of
// lock-ownership deadlocks.
package sharedring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// creditPoll paces senders waiting for another context's in-flight
// credit READ to land.
const creditPoll = 2 * time.Microsecond

// Errors returned by the sender side.
var (
	// ErrLinkDown reports the link was condemned (peer node declared
	// dead): every stream's sends fail and in-flight slots will never be
	// released.
	ErrLinkDown = errors.New("sharedring: link condemned, peer node down")
	// ErrStreamClosed reports a send on a stream after Close or Abandon.
	ErrStreamClosed = errors.New("sharedring: stream closed")
	// ErrPayloadTooLarge reports a segment exceeding the slot payload.
	ErrPayloadTooLarge = errors.New("sharedring: segment exceeds slot payload size")
)

// Config sizes a pool's rings. The zero value selects the defaults.
type Config struct {
	// SlotPayload is the payload capacity of one slot (default 8 KiB).
	// Every flow multiplexed on the pool must have SegmentSize at most
	// this value — admission control in core checks it.
	SlotPayload int
	// Slots is the slot count of each shared ring (default 64).
	Slots int
	// StagingCap bounds each stream's receiver-side staging queue
	// (default Slots). When one stream's consumer stalls with a full
	// staging queue, the ring head-of-line blocks for everyone — the
	// price of sharing; leases bound how long (see docs/PROTOCOL.md
	// "Connection scaling").
	StagingCap int
}

func (c Config) withDefaults() Config {
	if c.SlotPayload <= 0 {
		c.SlotPayload = 8 * 1024
	}
	if c.Slots <= 0 {
		c.Slots = 64
	}
	if c.StagingCap <= 0 {
		c.StagingCap = c.Slots
	}
	return c
}

// TenantCounters are the per-tenant credit counters exposed through the
// ops plane: slots acquired and slots refunded across every link of the
// pool. acquired-refunded is the tenant's aggregate in-flight occupancy;
// after all of a tenant's streams drain the two are equal (credit
// conservation — the property test pins it). Goroutine-safe.
type TenantCounters struct {
	// Acquired counts ring slots granted to the tenant's streams.
	Acquired atomic.Uint64
	// Refunded counts ring slots returned by receiver releases.
	Refunded atomic.Uint64
}

var (
	poolsMu sync.Mutex
	pools   = map[transport.Transport]*Pool{}
)

// PoolOf returns the process-wide pool for tr, creating it with cfg on
// first use (later calls keep the original geometry; callers validate
// fit via Config). Both backends are in-process, so a single pool per
// transport instance is the natural rendezvous: source and target sides
// of a node pair resolve the same Link without any address exchange. A
// networked backend would swap this lookup for a registry-published
// ring address. Goroutine-safe.
func PoolOf(tr transport.Transport, cfg Config) *Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if p, ok := pools[tr]; ok {
		return p
	}
	p := &Pool{
		tr:      tr,
		cfg:     cfg.withDefaults(),
		links:   map[linkKey]*Link{},
		tags:    map[string]uint32{},
		tenants: map[string]*TenantCounters{},
	}
	pools[tr] = p
	return p
}

// DropPool forgets the pool registered for tr, releasing its rings for
// garbage collection once the transport itself is unreferenced. Tests
// that build many transports call it; long-lived processes never need
// to. Goroutine-safe.
func DropPool(tr transport.Transport) {
	poolsMu.Lock()
	delete(pools, tr)
	poolsMu.Unlock()
}

// linkKey identifies a directed node pair.
type linkKey struct {
	src, dst transport.Endpoint
}

// Pool owns every shared ring of one transport instance: one Link per
// directed (source-node, target-node) pair, a flow-tag namespace, and
// the per-tenant credit counters. Goroutine-safe.
type Pool struct {
	tr  transport.Transport
	cfg Config

	mu      sync.Mutex
	links   map[linkKey]*Link
	tags    map[string]uint32
	nextTag uint32
	tenants map[string]*TenantCounters
	// published tracks which series PublishMetrics already registered on
	// each metrics registry, making re-publication (every source proc of
	// a fleet calls it) a no-op instead of a duplicate-series panic.
	published map[*metrics.Registry]map[string]bool
}

// Config returns the pool's ring geometry (defaults applied).
func (p *Pool) Config() Config { return p.cfg }

// Tag returns the stable 24-bit flow tag for key, assigning the next
// free tag on first use. Source and target sides of a stream derive the
// same key (flow name + endpoint slots), so both resolve the same tag
// without coordination. Goroutine-safe.
func (p *Pool) Tag(key string) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.tags[key]; ok {
		return t
	}
	p.nextTag++
	if p.nextTag > transport.SegDescMaxTag {
		panic("sharedring: flow-tag namespace exhausted")
	}
	p.tags[key] = p.nextTag
	return p.nextTag
}

// Tenant returns the credit counters for the named tenant, creating
// them on first use. Goroutine-safe.
func (p *Pool) Tenant(name string) *TenantCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	tc, ok := p.tenants[name]
	if !ok {
		tc = &TenantCounters{}
		p.tenants[name] = tc
	}
	return tc
}

// link returns the Link for the directed pair, creating its ring region
// (registered on dst) and queue pair on first use.
func (p *Pool) link(src, dst transport.Endpoint) *Link {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := linkKey{src, dst}
	if l, ok := p.links[k]; ok {
		return l
	}
	slotBytes := p.cfg.SlotPayload + transport.SegDescBytes
	mr := p.tr.OpenRegion(dst, transport.RingHeaderBytes+p.cfg.Slots*slotBytes)
	q, _ := p.tr.Dial(src, dst)
	l := &Link{
		pool:      p,
		src:       src,
		dst:       dst,
		cfg:       p.cfg,
		mr:        mr,
		q:         q,
		stage:     make([]byte, p.cfg.Slots*slotBytes),
		slotOwner: make([]int32, p.cfg.Slots),
		byTag:     map[uint32]int{},
		rstreams:  map[uint32]*rstream{},
	}
	for i := range l.slotOwner {
		l.slotOwner[i] = -1
	}
	p.links[k] = l
	return l
}

// Links returns the pool's links sorted by (source, target) endpoint ID
// — a stable order for metrics registration and tests. Goroutine-safe.
func (p *Pool) Links() []*Link {
	p.mu.Lock()
	out := make([]*Link, 0, len(p.links))
	for _, l := range p.links {
		out = append(out, l)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].src.ID() != out[j].src.ID() {
			return out[i].src.ID() < out[j].src.ID()
		}
		return out[i].dst.ID() < out[j].dst.ID()
	})
	return out
}

// OpenStream opens the sender half of one flow's traffic to one target
// slot over the shared ring from src to dst. key names the stream
// (conventionally "flow/srcSlot/tgtSlot"); tenant and weight feed the
// weighted credit scheduler — the stream may hold at most
// max(1, Slots*weight/totalWeight) slots in flight. abort, when non-nil,
// bounds Send's wait for credits: once it reports true a blocked Send
// gives up with ErrStreamClosed (the caller's target went away, so the
// ring may never drain). It is called from the sending context only.
// Goroutine-safe; the returned Stream must then be driven by a single
// context.
func (p *Pool) OpenStream(src, dst transport.Endpoint, key, tenant string, weight int, abort func() bool) (*Stream, error) {
	if weight <= 0 {
		weight = 1
	}
	l := p.link(src, dst)
	tag := p.Tag(key)
	tc := p.Tenant(tenant)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.byTag[tag]; dup {
		return nil, fmt.Errorf("sharedring: stream %q already open on link %d->%d", key, src.ID(), dst.ID())
	}
	st := &Stream{
		link:   l,
		idx:    len(l.streams),
		tag:    tag,
		tenant: tc,
		weight: weight,
		abort:  abort,
		open:   true,
	}
	l.streams = append(l.streams, st)
	l.byTag[tag] = st.idx
	l.totalWeight += weight
	l.recomputeBounds()
	return st, nil
}

// Receiver returns the receive half of the src→dst link, shared by all
// consumers on dst. Goroutine-safe.
func (p *Pool) Receiver(src, dst transport.Endpoint) *Receiver {
	return &Receiver{l: p.link(src, dst)}
}

// PublishMetrics registers the pool's ops-plane series on m:
// dfi_shared_ring_occupancy{src,dst} (sender-view in-flight slots per
// link), dfi_shared_ring_slots{src,dst}, and the per-tenant credit
// counters dfi_tenant_credits_acquired_total{tenant} /
// dfi_tenant_credits_refunded_total{tenant}. Links and tenants that
// exist at publish time get series; call again after opening more. The
// metrics package panics on a series registered twice, so claimSeries
// skips every series an earlier call on m already registered, which
// makes republishing them a no-op. Goroutine-safe.
func (p *Pool) PublishMetrics(m *metrics.Registry) {
	for _, l := range p.Links() {
		l := l
		if !p.claimSeries(m, fmt.Sprintf("ring:%d:%d", l.src.ID(), l.dst.ID())) {
			continue
		}
		lbl := metrics.Labels{
			"src": fmt.Sprintf("%d", l.src.ID()),
			"dst": fmt.Sprintf("%d", l.dst.ID()),
		}
		m.RegisterGaugeFunc("dfi_shared_ring_occupancy",
			"In-flight slots (sender view: acquired minus released) of one shared per-node-pair ring.",
			lbl, func() float64 { return float64(l.Occupancy()) })
		m.RegisterGaugeFunc("dfi_shared_ring_slots",
			"Slot capacity of one shared per-node-pair ring.",
			lbl, func() float64 { return float64(l.cfg.Slots) })
	}
	p.mu.Lock()
	names := make([]string, 0, len(p.tenants))
	for name := range p.tenants {
		names = append(names, name)
	}
	p.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		if !p.claimSeries(m, "tenant:"+name) {
			continue
		}
		tc := p.Tenant(name)
		lbl := metrics.Labels{"tenant": name}
		m.RegisterCounterFunc("dfi_tenant_credits_acquired_total",
			"Shared-ring slots granted to the tenant's streams.",
			lbl, func() float64 { return float64(tc.Acquired.Load()) })
		m.RegisterCounterFunc("dfi_tenant_credits_refunded_total",
			"Shared-ring slots returned to the tenant by receiver releases.",
			lbl, func() float64 { return float64(tc.Refunded.Load()) })
	}
}

// claimSeries records that the series identified by key is (about to
// be) registered on m, returning false when an earlier PublishMetrics
// call already claimed it.
func (p *Pool) claimSeries(m *metrics.Registry, key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.published == nil {
		p.published = map[*metrics.Registry]map[string]bool{}
	}
	if p.published[m] == nil {
		p.published[m] = map[string]bool{}
	}
	if p.published[m][key] {
		return false
	}
	p.published[m][key] = true
	return true
}

// Link is one shared ring: the sender-side credit scheduler and staging
// mirror on the source node, the ring Region and demultiplexer on the
// target node. All exported methods are goroutine-safe; the internal
// mutex is never held across a parking verb.
type Link struct {
	pool     *Pool
	src, dst transport.Endpoint
	cfg      Config
	mr       transport.Region
	q        transport.Queue

	mu sync.Mutex

	// Sender state. stage mirrors the remote ring slot-for-slot: WRITE
	// source buffers must stay stable until delivery (the transport's
	// selective-signaling contract), and a mirror slot is reused only
	// after the receiver released it — which implies the write landed.
	head        uint64  // next absolute slot to grant
	released    uint64  // sender's mirror of the receiver's release counter
	creditRead  bool    // a credit READ is in flight (single-flight)
	creditBuf   [8]byte // its landing buffer
	stage       []byte
	slotOwner   []int32 // stream index per slot (refund walk), -1 free
	streams     []*Stream
	byTag       map[uint32]int
	totalWeight int
	condemned   bool

	// Receiver state. leader is the stream whose consumer waits on the
	// ring region's commit sequence and pumps for everyone (nil while no
	// consumer waits); the other parked consumers queue as followers,
	// longest-waiting first.
	tail                        uint64 // next absolute slot to demultiplex
	rstreams                    map[uint32]*rstream
	leader                      *rstream
	firstFollower, lastFollower *rstream
	free                        [][]byte // staging buffers awaiting reuse
	wakeups                     uint64   // returns from a wait inside Recv
	// pumpBuf is the pump's footer and release-counter scratch: locals
	// would escape through the Region interface and cost an allocation
	// per pump.
	pumpBuf [transport.SegDescBytes + 8]byte
}

// Src returns the source-node endpoint of the directed link.
func (l *Link) Src() transport.Endpoint { return l.src }

// Dst returns the target-node endpoint of the directed link.
func (l *Link) Dst() transport.Endpoint { return l.dst }

func (l *Link) slotOff(i int) int {
	return transport.RingHeaderBytes + i*(l.cfg.SlotPayload+transport.SegDescBytes)
}
func (l *Link) footerOff(i int) int { return l.slotOff(i) + l.cfg.SlotPayload }

// recomputeBounds refreshes every open stream's credit bound from the
// current weight mix. Caller holds l.mu.
func (l *Link) recomputeBounds() {
	for _, st := range l.streams {
		if !st.open {
			st.bound = 0
			continue
		}
		b := uint64(l.cfg.Slots*st.weight) / uint64(max(1, l.totalWeight))
		if b < 1 {
			b = 1
		}
		st.bound = b
	}
}

// refund applies a fresh released value: walk the slots released since
// the last observation and return each to its owning stream, exactly
// once — the walk is strictly monotonic in the release counter, so a
// slot can never be refunded twice. Caller holds l.mu.
func (l *Link) refund(v uint64) {
	for ; l.released < v; l.released++ {
		i := int(l.released % uint64(l.cfg.Slots))
		owner := l.slotOwner[i]
		l.slotOwner[i] = -1
		if owner >= 0 {
			st := l.streams[owner]
			st.inflight--
			st.refunded++
			st.tenant.Refunded.Add(1)
		}
	}
}

// refreshCredits brings the sender's released mirror up to date with
// one RDMA READ of the ring header counter. Single-flight: if another
// context's READ is already outstanding, the caller naps instead of
// stacking reads. Never called with l.mu held.
func (l *Link) refreshCredits(p transport.Ctx) {
	l.mu.Lock()
	if l.creditRead {
		l.mu.Unlock()
		p.Sleep(creditPoll + time.Duration(p.Rand().Int63n(int64(creditPoll))))
		return
	}
	l.creditRead = true
	l.mu.Unlock()

	// creditRead makes this context the only user of creditBuf.
	l.q.ReadSync(p, l.creditBuf[:], transport.Addr{MR: l.mr, Off: 0})
	v := binary.LittleEndian.Uint64(l.creditBuf[:])

	l.mu.Lock()
	if v > l.released {
		l.refund(v)
	}
	l.creditRead = false
	l.mu.Unlock()
}

// Condemn marks the link dead — the peer node is gone. Every stream's
// future sends fail with ErrLinkDown and slots already in flight are
// never released: co-resident flows lose their in-flight window, the
// documented blast radius of sharing a ring (docs/PROTOCOL.md
// "Connection scaling"). Consumers parked in Recv wake, drain what is
// staged and then get RecvDropped. Goroutine-safe.
func (l *Link) Condemn() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.condemned = true
	if l.leader != nil {
		l.mr.Notify()
	}
	for st := l.firstFollower; st != nil; st = st.next {
		st.wake.Broadcast()
	}
}

// Settle pumps any still-committed slots out of the ring (consumers may
// all have exited while an abandoned stream's writes were in flight) and
// drives credit refreshes until the sender's release mirror catches up
// (occupancy reaches zero), or until progress stops for ~1s of polling —
// the stalled-consumer case. Flows call Send, which refreshes lazily;
// Settle is for shutdown paths and tests that assert conservation after
// a drain.
func (l *Link) Settle(p transport.Ctx) {
	stale := 0
	for stale < 1000 {
		l.mu.Lock()
		l.pumpLocked(nil)
		occ := l.head - l.released
		l.mu.Unlock()
		if occ == 0 {
			return
		}
		before := l.Released()
		l.refreshCredits(p)
		if l.Released() == before {
			stale++
			p.Sleep(time.Millisecond)
		} else {
			stale = 0
		}
	}
}

// Released returns the sender's mirror of the receiver's release
// counter. Goroutine-safe.
func (l *Link) Released() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.released
}

// Occupancy returns the sender-view in-flight slot count (granted minus
// released). Goroutine-safe.
func (l *Link) Occupancy() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.head - l.released)
}

// Wakeups returns how many times a consumer came back from a wait
// inside Recv on this link — woken or timed out. Per released slot it
// is the demultiplexer's efficiency: about one for the owner, plus one
// for the leader when the owner is a follower, however many streams
// share the link. Goroutine-safe.
func (l *Link) Wakeups() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wakeups
}

// CheckConservation verifies the credit invariants: per stream,
// acquired-refunded equals its in-flight count and never exceeds its
// bound while open; summed over streams it equals the ring occupancy.
// A leak (slot never refunded) or double refund (refunded > acquired)
// trips it. Tests call it mid-run and after drain. Goroutine-safe.
func (l *Link) CheckConservation() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum uint64
	for _, st := range l.streams {
		if st.refunded > st.acquired {
			return fmt.Errorf("sharedring: stream tag %d double refund: acquired=%d refunded=%d", st.tag, st.acquired, st.refunded)
		}
		if st.acquired-st.refunded != st.inflight {
			return fmt.Errorf("sharedring: stream tag %d credit leak: acquired=%d refunded=%d inflight=%d", st.tag, st.acquired, st.refunded, st.inflight)
		}
		sum += st.inflight
	}
	if sum != l.head-l.released {
		return fmt.Errorf("sharedring: occupancy mismatch: sum(inflight)=%d head-released=%d", sum, l.head-l.released)
	}
	return nil
}

// Stream is the sender half of one flow's traffic to one target slot.
// Open/close bookkeeping is goroutine-safe, but Send must be driven by
// a single context at a time (one sim process or one goroutine) — the
// same ownership rule as a transport Queue.
type Stream struct {
	link   *Link
	idx    int
	tag    uint32
	tenant *TenantCounters
	weight int
	abort  func() bool // nil: wait for credits as long as the link lives

	// Guarded by link.mu.
	inflight uint64
	bound    uint64
	acquired uint64
	refunded uint64
	open     bool
	dead     bool
}

// Tag returns the stream's 24-bit flow tag.
func (st *Stream) Tag() uint32 { return st.tag }

// Bound returns the stream's current credit bound (in-flight slot cap).
// Goroutine-safe.
func (st *Stream) Bound() uint64 {
	st.link.mu.Lock()
	defer st.link.mu.Unlock()
	return st.bound
}

// Inflight returns the stream's current in-flight slot count.
// Goroutine-safe.
func (st *Stream) Inflight() uint64 {
	st.link.mu.Lock()
	defer st.link.mu.Unlock()
	return st.inflight
}

// Send writes one segment (payload plus flow-tagged footer) into the
// next granted ring slot, blocking while the ring is full or the
// stream's credit bound is exhausted, until the stream's abort reports
// true (ErrStreamClosed, no slot acquired). end marks the stream's final
// segment (payload may be empty). The payload is staged into the
// sender's slot mirror, so the caller may reuse its buffer immediately.
func (st *Stream) Send(p transport.Ctx, payload []byte, end bool) error {
	l := st.link
	if len(payload) > l.cfg.SlotPayload {
		return ErrPayloadTooLarge
	}
	var slot uint64
	for {
		l.mu.Lock()
		if l.condemned {
			l.mu.Unlock()
			return ErrLinkDown
		}
		if st.dead || !st.open {
			l.mu.Unlock()
			return ErrStreamClosed
		}
		if l.head-l.released < uint64(l.cfg.Slots) && st.inflight < st.bound {
			slot = l.head
			l.head++
			st.inflight++
			st.acquired++
			st.tenant.Acquired.Add(1)
			l.slotOwner[int(slot%uint64(l.cfg.Slots))] = int32(st.idx)
			l.mu.Unlock()
			break
		}
		l.mu.Unlock()
		// Blocked on credits: a crashed peer will never release slots, so
		// condemn the link rather than spin (the documented blast radius —
		// every co-resident flow on this ring is down with the node). A
		// caller whose target left stops waiting: slots it would need can
		// stay held by segments nobody consumes. Otherwise refresh the
		// release mirror (one READ in flight link-wide; everyone else
		// naps until it lands).
		if l.dst.Crashed(p.Now()) {
			l.Condemn()
			return ErrLinkDown
		}
		if st.abort != nil && st.abort() {
			return ErrStreamClosed
		}
		l.refreshCredits(p)
	}

	i := int(slot % uint64(l.cfg.Slots))
	slotBytes := l.cfg.SlotPayload + transport.SegDescBytes
	mirror := l.stage[i*slotBytes : (i+1)*slotBytes]
	n := copy(mirror, payload)
	ftr := mirror[l.cfg.SlotPayload:]
	flags := byte(transport.SegCommitted)
	if end {
		flags |= transport.SegEnd
	}
	transport.SegDesc{Fill: uint32(n), Flags: flags, Tag: st.tag, Seq: slot + 1}.Put(ftr)

	// Payload body first, then the footer with CommitTail: RC ordering
	// plus the commit-tail contract make the footer visible strictly
	// after the payload, and the landed tail counts one region commit
	// the receiver's WaitCommit observes.
	if n > 0 {
		l.q.Write(p, mirror[:n], transport.Addr{MR: l.mr, Off: l.slotOff(i)}, transport.WriteOptions{})
	}
	l.q.Write(p, ftr, transport.Addr{MR: l.mr, Off: l.footerOff(i)}, transport.WriteOptions{CommitTail: transport.SegDescBytes})
	return nil
}

// Close sends the stream's end marker and retires its weight from the
// credit scheduler. Further sends fail with ErrStreamClosed.
func (st *Stream) Close(p transport.Ctx) error {
	if err := st.Send(p, nil, true); err != nil {
		return err
	}
	st.retire()
	return nil
}

// Abandon retires the stream without an end marker — the caller's flow
// was evicted or broke. Slots already in flight are still refunded
// (exactly once) when the receiver releases them; the receiver side
// should be dropped with Receiver.Drop so staged segments don't pile
// up. Goroutine-safe.
func (st *Stream) Abandon() {
	st.link.mu.Lock()
	st.dead = true
	st.link.mu.Unlock()
	st.retire()
}

func (st *Stream) retire() {
	l := st.link
	l.mu.Lock()
	if st.open {
		st.open = false
		l.totalWeight -= st.weight
		l.recomputeBounds()
	}
	l.mu.Unlock()
}

// RecvStatus classifies a Receiver.Recv result.
type RecvStatus int

// Recv results.
const (
	// RecvSeg delivered a segment.
	RecvSeg RecvStatus = iota
	// RecvEnd reports the stream's sender closed it and staging drained.
	RecvEnd
	// RecvIdle reports the wait budget elapsed with nothing staged.
	RecvIdle
	// RecvDropped reports that nothing more will be delivered for the
	// tag: it was dropped via Receiver.Drop, or its link was condemned
	// and staging drained.
	RecvDropped
)

// Segment is one demultiplexed delivery.
type Segment struct {
	// Fill is the payload byte count the sender committed.
	Fill int
	// End marks the sender's final segment for the stream.
	End bool
	// Data holds the payload bytes, copied out of the ring slot before
	// release into a buffer the link recycles: it is valid until the
	// next Recv on the same tag. Nil when Fill is 0.
	Data []byte
}

// rstream is one tag's receiver-side state: a fixed staging ring of
// StagingCap segments, the consumer's wake-up, and its place in the
// link's follower queue. Guarded by Link.mu.
type rstream struct {
	q       []Segment // staging ring; q[(head+i)%len(q)] for i < n
	head, n int
	// held backs the Segment.Data handed out by the last Recv; the next
	// Recv on the tag returns it to the link's free list.
	held    []byte
	ended   bool
	dropped bool

	// wake is signalled when the demultiplexer stages something for the
	// tag, ends or drops it, or promotes its consumer to leader.
	wake transport.Cond
	// queued marks membership of the link's follower queue; prev and
	// next are its links.
	queued     bool
	prev, next *rstream
}

// Receiver is the receive half of a link, shared by every consumer on
// the target node. Demultiplexing is consumer-driven — a consumer
// entering Recv pumps the slots already committed at the ring tail into
// the per-tag staging queues and publishes their release — but waiting
// is done in one place: at most one consumer per link, the leader,
// waits on the ring region's commit sequence, pumps what lands, and
// wakes exactly the consumers whose tag received something. Every
// other waiting consumer, a follower, parks on its own tag's wake-up. A
// leader that leaves Recv for any reason promotes the longest-waiting
// follower. No dedicated pump process exists, which keeps the DES
// kernel quiescent when flows are idle. One consumer at a time may call
// Recv for a given tag; across tags all methods are goroutine-safe.
type Receiver struct {
	l *Link
}

// Link returns the underlying shared ring.
func (r *Receiver) Link() *Link { return r.l }

func (l *Link) rstreamLocked(tag uint32) *rstream {
	st, ok := l.rstreams[tag]
	if !ok {
		st = &rstream{q: make([]Segment, l.cfg.StagingCap), wake: l.pool.tr.NewCond()}
		l.rstreams[tag] = st
	}
	return st
}

// enqueueLocked appends st to the follower queue.
func (l *Link) enqueueLocked(st *rstream) {
	st.queued = true
	st.prev, st.next = l.lastFollower, nil
	if st.prev != nil {
		st.prev.next = st
	} else {
		l.firstFollower = st
	}
	l.lastFollower = st
}

// dequeueLocked unlinks st from the follower queue.
func (l *Link) dequeueLocked(st *rstream) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		l.firstFollower = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		l.lastFollower = st.prev
	}
	st.queued = false
	st.prev, st.next = nil, nil
}

// leaveLocked takes st's consumer out of the wait structures on its way
// out of Recv. A departing leader hands the ring to the longest-waiting
// follower, which wakes, re-snapshots the commit sequence and pumps.
func (l *Link) leaveLocked(st *rstream) {
	if st.queued {
		l.dequeueLocked(st)
	}
	if l.leader != st {
		return
	}
	l.leader = l.firstFollower
	if l.leader != nil {
		l.dequeueLocked(l.leader)
		l.leader.wake.Broadcast()
	}
}

// wakeLocked wakes st's consumer if it is parked in Recv: a follower
// through its own wake-up, the leader through the ring region (it
// polls that memory, so it pays the polling delay like any commit).
func (l *Link) wakeLocked(st *rstream) {
	switch {
	case l.leader == st:
		l.mr.Notify()
	case st.queued:
		st.wake.Broadcast()
	}
}

// stageBufLocked returns a recycled buffer of fill bytes.
func (l *Link) stageBufLocked(fill int) []byte {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		if cap(b) >= fill {
			return b[:fill]
		}
	}
	return make([]byte, fill)
}

// discardLocked empties st's staging ring, recycling its buffers.
func (l *Link) discardLocked(st *rstream) {
	for ; st.n > 0; st.n-- {
		seg := &st.q[st.head]
		if seg.Data != nil {
			l.free = append(l.free, seg.Data)
		}
		*seg = Segment{}
		st.head = (st.head + 1) % len(st.q)
	}
}

// pumpLocked demultiplexes every committed slot at the ring tail into
// staging and releases it, waking the consumer of each tag that gained
// something — except self, the caller's own stream, which looks at its
// staging next anyway. Stops at the first uncommitted slot or when a
// destination staging queue is full (head-of-line block; whoever makes
// room in a full queue pumps again). Caller holds l.mu; Load/Store/Notify/Broadcast are non-parking local
// ops, so holding the mutex across them is safe on both backends.
func (l *Link) pumpLocked(self *rstream) {
	ftr, rel := l.pumpBuf[:transport.SegDescBytes], l.pumpBuf[transport.SegDescBytes:]
	for {
		i := int(l.tail % uint64(l.cfg.Slots))
		l.mr.Load(l.footerOff(i), ftr)
		d := transport.ParseSegDesc(ftr)
		if d.Flags&transport.SegCommitted == 0 {
			return
		}
		if d.Seq != l.tail+1 {
			return // stale footer from a previous lap
		}
		fill := int(d.Fill)
		end := d.Flags&transport.SegEnd != 0
		st := l.rstreamLocked(d.Tag)
		switch {
		case st.dropped:
			// Evicted consumer: discard the payload but still release the
			// slot so the sender's credits are refunded.
			if end {
				st.ended = true
			}
		case fill == 0 && end:
			st.ended = true
		default:
			if st.n == len(st.q) {
				return // consumer stalled; ring blocks for everyone
			}
			seg := Segment{Fill: fill, End: end}
			if fill > 0 {
				seg.Data = l.stageBufLocked(fill)
				copy(seg.Data, l.mr.Bytes()[l.slotOff(i):l.slotOff(i)+fill])
			}
			if end {
				st.ended = true
			}
			st.q[(st.head+st.n)%len(st.q)] = seg
			st.n++
		}
		if st != self {
			l.wakeLocked(st)
		}
		l.tail++
		binary.LittleEndian.PutUint64(rel, l.tail)
		l.mr.Store(0, rel)
	}
}

// takeLocked resolves st's Recv if it can be resolved now: the oldest
// staged segment, else the terminal status of a dropped, ended or
// condemned stream.
func (l *Link) takeLocked(st *rstream) (Segment, RecvStatus, bool) {
	switch {
	case st.n > 0:
		wasFull := st.n == len(st.q)
		seg := st.q[st.head]
		st.q[st.head] = Segment{}
		st.head = (st.head + 1) % len(st.q)
		st.n--
		st.held = seg.Data
		if wasFull {
			l.pumpLocked(st) // the ring may have stalled on this queue
		}
		return seg, RecvSeg, true
	case st.dropped:
		return Segment{}, RecvDropped, true
	case st.ended:
		return Segment{}, RecvEnd, true
	case l.condemned:
		return Segment{}, RecvDropped, true
	}
	return Segment{}, RecvIdle, false
}

// Recv returns the next staged segment for tag, waiting up to wait when
// nothing is staged. The first consumer to wait on an unled link
// becomes its leader and waits on the ring's commit sequence, pumping
// for every tag; the others wait on their own tag's wake-up, which the
// leader's pump, Drop and Condemn signal — a hand-off through local
// memory that costs no polling delay. RecvEnd is terminal: the sender
// closed the stream and staging is drained.
func (r *Receiver) Recv(p transport.Ctx, tag uint32, wait time.Duration) (Segment, RecvStatus) {
	l := r.l
	deadline := p.Now() + wait
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.rstreamLocked(tag)
	if st.held != nil {
		l.free = append(l.free, st.held)
		st.held = nil
	}
	for {
		if l.leader == nil {
			l.leader = st
		}
		leading := l.leader == st
		// Snapshot the sequence to wait on before looking: a commit (or
		// wake-up) landing after the look then ends the wait at once. A
		// follower just promoted passes through here too, so commits
		// that landed while the ring had no leader are pumped now.
		var since uint64
		if leading {
			since = l.mr.CommitSeq()
		} else {
			since = st.wake.Seq()
		}
		l.pumpLocked(st)
		seg, status, ok := l.takeLocked(st)
		remain := deadline - p.Now()
		if ok || remain <= 0 {
			l.leaveLocked(st)
			return seg, status
		}
		if !leading && !st.queued {
			l.enqueueLocked(st)
		}
		l.mu.Unlock()
		if leading {
			l.mr.WaitCommit(p, since, remain)
		} else {
			st.wake.Wait(p, since, remain)
		}
		l.mu.Lock()
		l.wakeups++
	}
}

// Drop marks tag evicted: staged segments are discarded and future
// deliveries for it are released without staging, so an evicted flow's
// in-flight slots still refund the sender's credits. A consumer parked
// in Recv for the tag wakes and returns RecvDropped. Goroutine-safe.
func (r *Receiver) Drop(tag uint32) {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.rstreamLocked(tag)
	st.dropped = true
	wasFull := st.n == len(st.q)
	l.discardLocked(st)
	l.wakeLocked(st)
	if wasFull {
		l.pumpLocked(nil) // the ring may have stalled on this queue
	}
}
