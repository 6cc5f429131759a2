package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// Shared-ring flow transport (Options.SharedRings): the connection-
// scaling data path. Instead of a private ring per (source, target)
// pair — whose memory and queue-pair count grow with the product of
// endpoints — every shared flow between two nodes multiplexes over one
// fixed-size ring owned by the transport's sharedring.Pool. muxSource
// stages tuples into one local segment buffer per target and ships full
// segments as flow-tagged stream sends; muxTarget demultiplexes its
// per-source tags off the shared receivers. Per-flow credit accounting
// (weighted by Options.TenantWeight) keeps one hot flow from starving
// its ring neighbors, and lease heartbeats batch per node so control-
// plane traffic stays sublinear in the flow count.
//
// Failure model (docs/PROTOCOL.md, "Connection scaling"): shared mode
// has no per-flow retransmit window. On an eviction the source re-routes
// its *staged* (unsent) tuples over the survivors, but segments already
// in flight on the shared ring are lost — at-most-once across the
// eviction, versus the private-ring path's at-least-once harvest. A
// crashed peer node condemns the whole ring: every co-resident flow on
// that node pair breaks together.

// muxTargetInfo is the marker a shared-ring target publishes in place
// of ring-buffer coordinates: sources only need to know the slot is
// attached (and observe evictions through WaitTargetLive) — the ring
// itself is the pool's, keyed by node pair.
type muxTargetInfo struct{}

// streamKey names one flow-tagged stream: both halves derive the same
// key, so they resolve the same 24-bit tag without coordination.
func streamKey(flow string, srcSlot, tgtSlot int) string {
	return fmt.Sprintf("%s/%d/%d", flow, srcSlot, tgtSlot)
}

// --- Source side ----------------------------------------------------

// muxSource is the sending half of a shared-ring flow: one
// sharedring.Stream and one staging segment per target slot.
type muxSource struct {
	s    *Source
	pool *sharedring.Pool

	// streams[i] is the stream to target slot i; nil once the target is
	// evicted (or was already evicted at open). bufs[i]/counts[i] stage
	// the segment being filled for it.
	streams []*sharedring.Stream
	bufs    [][]byte
	counts  []int
	ended   []bool

	// Scrape-visible counters (atomic so a metrics endpoint can read
	// them mid-run).
	segsWritten  atomic.Uint64
	payloadBytes atomic.Uint64
}

// newMuxSource opens one stream per live target over the pool's shared
// rings and initializes the membership view (the shared-mode half of
// connectAll).
func newMuxSource(p transport.Ctx, reg Registry, meta *flowMeta, s *Source) (*muxSource, error) {
	m := &muxSource{s: s, pool: meta.pool}
	name := s.spec.Name
	s.mem = reg.MembershipOf(name)
	for t := range s.spec.Targets {
		_, evicted := reg.WaitTargetLive(p, name, t)
		if evicted {
			m.streams = append(m.streams, nil)
			m.bufs = append(m.bufs, nil)
			m.counts = append(m.counts, 0)
			m.ended = append(m.ended, true)
			continue
		}
		st, err := m.pool.OpenStream(s.node, s.spec.Targets[t].Node,
			streamKey(name, s.idx, t), s.spec.Options.Tenant, s.spec.Options.TenantWeight)
		if err != nil {
			return nil, err
		}
		m.streams = append(m.streams, st)
		m.bufs = append(m.bufs, make([]byte, 0, s.spec.Options.SegmentSize))
		m.counts = append(m.counts, 0)
		m.ended = append(m.ended, false)
	}
	s.view = s.spec.table().NewView()
	if s.mem != nil {
		s.epoch = s.mem.Epoch()
		if err := m.refreshView(); err != nil {
			return nil, fmt.Errorf("%w: every target of flow %q is evicted", ErrFlowBroken, name)
		}
	}
	return m, nil
}

// refreshView rebuilds the partitioner view's liveness from the
// surviving streams (the shared-mode analogue of Source.refreshView).
func (m *muxSource) refreshView() error {
	s := m.s
	live := make([]bool, len(m.streams))
	for i, st := range m.streams {
		live[i] = st != nil && (s.mem == nil || !s.mem.TargetEvicted(i))
	}
	s.view.SetLive(live)
	if s.view.LiveCount() == 0 {
		return ErrFlowBroken
	}
	return nil
}

// flushSlot ships target i's staged segment as one stream send. The
// staging buffer may be reused immediately (sharedring mirrors the
// payload per slot).
func (m *muxSource) flushSlot(p transport.Ctx, i int) error {
	st := m.streams[i]
	if st == nil {
		return errEvicted
	}
	if len(m.bufs[i]) == 0 {
		return nil
	}
	if err := st.Send(p, m.bufs[i], false); err != nil {
		if m.s.mem != nil && m.s.mem.TargetEvicted(i) {
			return errEvicted
		}
		return fmt.Errorf("%w: shared-ring send to target %d of flow %q: %v",
			ErrFlowBroken, i, m.s.spec.Name, err)
	}
	m.segsWritten.Add(1)
	m.payloadBytes.Add(uint64(len(m.bufs[i])))
	m.bufs[i] = m.bufs[i][:0]
	m.counts[i] = 0
	return nil
}

// append stages one tuple for target i, shipping the segment first when
// it is full. Returns errEvicted when the target has left the
// membership (the caller folds the epoch in and re-routes).
func (m *muxSource) append(p transport.Ctx, i int, t schema.Tuple) error {
	if m.streams[i] == nil || (m.s.mem != nil && m.s.mem.TargetEvicted(i)) {
		return errEvicted
	}
	if len(m.bufs[i])+len(t) > m.s.spec.Options.SegmentSize {
		if err := m.flushSlot(p, i); err != nil {
			return err
		}
	}
	m.bufs[i] = append(m.bufs[i], t...)
	m.counts[i]++
	return nil
}

// syncEpoch folds membership changes in (the shared-mode analogue of
// Source.syncEpoch): streams to evicted targets are abandoned — their
// credits refund when the receiver drops the tag — and only their
// *staged* tuples re-route over the survivors; the in-flight window is
// lost by design (no per-flow retransmission on a shared ring).
func (m *muxSource) syncEpoch(p transport.Ctx) error {
	s := m.s
	if s.mem == nil || s.mem.Epoch() == s.epoch {
		return nil
	}
	var pending []pendingTuple
	for {
		s.epoch = s.mem.Epoch()
		if s.mem.SourceEvicted(s.idx) {
			return fmt.Errorf("%w: source %d was evicted from flow %q (epoch %d)",
				ErrFlowBroken, s.idx, s.spec.Name, s.epoch)
		}
		ts := s.spec.Schema.TupleSize()
		for i, st := range m.streams {
			if st == nil || !s.mem.TargetEvicted(i) {
				continue
			}
			buf := m.bufs[i]
			for off := 0; off+ts <= len(buf); off += ts {
				pending = append(pending, pendingTuple{data: buf[off : off+ts], from: i})
			}
			m.bufs[i] = nil
			m.counts[i] = 0
			st.Abandon()
			m.streams[i] = nil
			m.ended[i] = true
		}
		if err := m.refreshView(); err != nil {
			return fmt.Errorf("%w: every target of flow %q evicted (epoch %d)", ErrFlowBroken, s.spec.Name, s.epoch)
		}
		if s.spec.FlowType() == ReplicateFlow {
			// Replicate legs are dropped rather than drained: every
			// survivor already receives its own copy of the stream.
			pending = nil
		}
		for len(pending) > 0 {
			t := schema.Tuple(pending[0].data)
			err := m.append(p, s.remap(t, pending[0].from), t)
			if errors.Is(err, errEvicted) {
				break // another eviction mid-drain: re-sync, keep the tail
			}
			if err != nil {
				return err
			}
			pending = pending[1:]
			s.rerouted.Add(1)
		}
		if len(pending) == 0 && s.mem.Epoch() == s.epoch {
			return nil
		}
	}
}

// pushTo routes one tuple to the named target, remapping onto a live
// owner when the declared one is down (mirrors Source.PushTo).
func (m *muxSource) pushTo(p transport.Ctx, t schema.Tuple, target int) error {
	if target < 0 || target >= len(m.streams) {
		return fmt.Errorf("dfi: target %d out of range (%d targets)", target, len(m.streams))
	}
	if m.s.mem == nil {
		return m.append(p, target, t)
	}
	for {
		if err := m.syncEpoch(p); err != nil {
			return err
		}
		slot := m.s.remap(t, target)
		err := m.append(p, slot, t)
		if !errors.Is(err, errEvicted) {
			if err == nil && slot != target {
				m.s.moved.Add(1)
			}
			return err
		}
	}
}

// pushReplicate stages one tuple for every live leg (mirrors
// Source.pushReplicate; dead legs are dropped, not drained).
func (m *muxSource) pushReplicate(p transport.Ctx, t schema.Tuple) error {
	if err := m.syncEpoch(p); err != nil {
		return err
	}
	for i := range m.streams {
		if m.streams[i] == nil || !m.s.view.Live(i) {
			continue
		}
		err := m.append(p, i, t)
		if errors.Is(err, errEvicted) {
			if err := m.syncEpoch(p); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// flush ships every partially filled staging segment.
func (m *muxSource) flush(p transport.Ctx) error {
	for {
		if err := m.syncEpoch(p); err != nil {
			return err
		}
		again := false
		for i := range m.streams {
			if m.streams[i] == nil {
				continue
			}
			err := m.flushSlot(p, i)
			if errors.Is(err, errEvicted) {
				again = true
				break
			}
			if err != nil {
				return err
			}
		}
		if !again {
			return nil
		}
	}
}

// close flushes the staged tail and sends each live leg's end marker,
// folding in membership changes until a round completes cleanly.
func (m *muxSource) close(p transport.Ctx) error {
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	maxRounds := len(m.streams) + 2
	for round := 0; ; round++ {
		if err := m.syncEpoch(p); err != nil {
			record(err)
			return firstErr
		}
		again := false
		for i, st := range m.streams {
			if st == nil || m.ended[i] {
				continue
			}
			err := m.flushSlot(p, i)
			if errors.Is(err, errEvicted) {
				again = true
				break
			}
			if err != nil {
				record(err)
				m.ended[i] = true
				continue
			}
			record(st.Close(p))
			m.ended[i] = true
		}
		if !again {
			return firstErr
		}
		if round >= maxRounds {
			record(fmt.Errorf("%w: close did not stabilize after %d membership changes", ErrFlowBroken, round))
			return firstErr
		}
	}
}

// free abandons any stream the close path never ended (error exits), so
// its in-flight slots still refund once the receiver drops the tag.
func (m *muxSource) free() {
	for i, st := range m.streams {
		if st != nil && !m.ended[i] {
			st.Abandon()
		}
	}
}

// --- Target side ----------------------------------------------------

// muxTarget is the consuming half of a shared-ring flow: one receiver
// handle and flow tag per source slot, demultiplexed off the shared
// per-node-pair rings.
type muxTarget struct {
	t    *Target
	pool *sharedring.Pool

	rcv    []*sharedring.Receiver
	tags   []uint32
	closed []bool
	failed []atomic.Bool // scraper-readable via failedSources
	cur    int

	// Iteration state over the active segment.
	segData   []byte
	segOff    int
	remaining int
	zero      []byte

	evicted bool
	done    bool

	segsConsumed atomic.Uint64
}

// newMuxTarget wires one receiver+tag per source; the caller publishes
// the attachment marker after the lease is held.
func newMuxTarget(p transport.Ctx, reg Registry, meta *flowMeta, t *Target) (*muxTarget, error) {
	m := &muxTarget{t: t, pool: meta.pool}
	name := t.spec.Name
	n := len(t.spec.Sources)
	m.rcv = make([]*sharedring.Receiver, n)
	m.tags = make([]uint32, n)
	m.closed = make([]bool, n)
	m.failed = make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		m.rcv[i] = m.pool.Receiver(t.spec.Sources[i].Node, t.node)
		m.tags[i] = m.pool.Tag(streamKey(name, i, t.idx))
	}
	t.initTargetMembership(reg.MembershipOf(name))
	if t.mem != nil {
		for i := range m.closed {
			if t.mem.SourceEvicted(i) {
				m.closed[i] = true
				m.failed[i].Store(true)
				m.rcv[i].Drop(m.tags[i])
			}
		}
	}
	return m, nil
}

// dropAll drops every tag this target owns so its share of the rings
// cannot head-of-line-block co-resident flows once it stops consuming.
func (m *muxTarget) dropAll() {
	for i := range m.rcv {
		m.rcv[i].Drop(m.tags[i])
	}
}

// load makes seg the active segment. seg.Data belongs to the link and
// is recycled by the next Recv on its tag, which nextSegment issues only
// after the segment is drained — the same lifetime Consume documents for
// a private ring's slot. Backends that model payloads without moving
// bytes deliver Data nil; the tuples handed out are then zero-filled
// with correct counts, matching the private-ring path on the same
// backend.
func (m *muxTarget) load(p transport.Ctx, seg sharedring.Segment) {
	count := seg.Fill / m.t.tupleSize
	data := seg.Data
	if data == nil {
		if cap(m.zero) < seg.Fill {
			m.zero = make([]byte, seg.Fill)
		}
		data = m.zero[:seg.Fill]
	}
	m.t.node.Compute(p, time.Duration(count)*m.t.spec.Options.ConsumeCost)
	m.segData = data
	m.segOff = 0
	m.remaining = count
	m.segsConsumed.Add(1)
}

// nextSegment scans the per-source tags round-robin for a staged
// segment, folding in membership changes and subdividing the poll
// budget across open sources. Returns false at flow end or eviction.
func (m *muxTarget) nextSegment(p transport.Ctx) bool {
	t := m.t
	for {
		if t.syncMembership() {
			// Evicted: release the rings for the co-resident survivors.
			m.dropAll()
			m.evicted = true
			return false
		}
		open := 0
		for i := range m.rcv {
			if m.closed[i] {
				continue
			}
			if t.mem != nil && t.mem.SourceEvicted(i) {
				m.closed[i] = true
				m.failed[i].Store(true)
				m.rcv[i].Drop(m.tags[i])
				continue
			}
			open++
		}
		if open == 0 {
			m.done = true
			return false
		}
		wait := pollTimeout / time.Duration(open)
		for k := 0; k < len(m.rcv); k++ {
			i := m.cur
			m.cur = (m.cur + 1) % len(m.rcv)
			if m.closed[i] {
				continue
			}
			seg, st := m.rcv[i].Recv(p, m.tags[i], wait)
			switch st {
			case sharedring.RecvSeg:
				if seg.Fill == 0 {
					continue // bare end marker rides a zero-fill segment
				}
				m.load(p, seg)
				return true
			case sharedring.RecvEnd, sharedring.RecvDropped:
				m.closed[i] = true
			}
		}
	}
}

// consume hands out the next tuple (mirrors the ring path's
// Consume/loadSegment split).
func (m *muxTarget) consume(p transport.Ctx) (schema.Tuple, bool) {
	if m.done || m.evicted {
		return nil, false
	}
	for m.remaining == 0 {
		if !m.nextSegment(p) {
			return nil, false
		}
	}
	tup := schema.Tuple(m.segData[m.segOff : m.segOff+m.t.tupleSize])
	m.segOff += m.t.tupleSize
	m.remaining--
	return tup, true
}

// consumeSegment hands out the rest of the active segment as a raw
// batch (mirrors Target.ConsumeSegment).
func (m *muxTarget) consumeSegment(p transport.Ctx) (data []byte, count int, ok bool) {
	if m.done || m.evicted {
		return nil, 0, false
	}
	if m.remaining > 0 {
		data, count = m.segData[m.segOff:], m.remaining
		m.segOff = len(m.segData)
		m.remaining = 0
		return data, count, true
	}
	if !m.nextSegment(p) {
		return nil, 0, false
	}
	data, count = m.segData, m.remaining
	m.segOff = len(m.segData)
	m.remaining = 0
	return data, count, true
}

// failedSources lists source slots whose eviction closed their stream.
// Safe for a concurrent scraper.
func (m *muxTarget) failedSources() []int {
	var out []int
	for i := range m.failed {
		if m.failed[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// --- Batched lease heartbeats ---------------------------------------

// At O(1000) shared flows, per-endpoint heartbeat processes would put
// O(flows) renewal RPCs per tick on the registry. Shared-ring endpoints
// instead enroll with a per-(transport, registry, node) lease agent: one
// background process per node that renews every enrolled lease in one
// RenewLeaseBatch per tick — against a sharded registry, one RPC per
// shard touched. Renewal traffic then scales with nodes and shards, not
// with flows.

// leaseAgentKey identifies one agent: same simulated node, same
// registry, same transport instance (so concurrent simulations in one
// test binary never share an agent).
type leaseAgentKey struct {
	reg  Registry
	tpt  transport.Transport
	node int
}

var (
	leaseAgentsMu sync.Mutex
	leaseAgents   = map[leaseAgentKey]*leaseAgent{}
)

// leaseAgent batches lease renewals for every shared-ring endpoint on
// one node. Enrollments add refs; the agent process prunes refs whose
// endpoint closed (releasing the lease) or whose renewal was fenced,
// and self-terminates once no refs remain — the discrete-event kernel
// only ends its run when no events remain, so an immortal ticker would
// hang every simulation.
type leaseAgent struct {
	key  leaseAgentKey
	node transport.Endpoint

	mu      sync.Mutex
	refs    map[registry.LeaseRef]*leaseEnrollment
	running bool
}

// leaseEnrollment is one endpoint's entry: its renewal interval and its
// liveness probe.
type leaseEnrollment struct {
	interval time.Duration
	closed   func() bool
}

// enrollLease registers one endpoint's lease with its node's agent,
// spawning the agent process on first use.
func enrollLease(p transport.Ctx, tpt transport.Transport, reg Registry, node transport.Endpoint, flow string, role registry.Role, idx int, ttl time.Duration, closed func() bool) {
	key := leaseAgentKey{reg: reg, tpt: tpt, node: node.ID()}
	leaseAgentsMu.Lock()
	a := leaseAgents[key]
	if a == nil {
		a = &leaseAgent{key: key, node: node, refs: map[registry.LeaseRef]*leaseEnrollment{}}
		leaseAgents[key] = a
	}
	leaseAgentsMu.Unlock()

	iv := ttl / heartbeatDivisor
	if iv <= 0 {
		iv = ttl
	}
	a.mu.Lock()
	a.refs[registry.LeaseRef{Flow: flow, Role: role, Idx: idx}] = &leaseEnrollment{interval: iv, closed: closed}
	start := !a.running
	a.running = true
	a.mu.Unlock()
	if start {
		tpt.Spawn(p, fmt.Sprintf("lease-agent:node%d", node.ID()), func(hp transport.Ctx) {
			a.run(hp, reg)
		})
	}
}

// interval returns the shortest enrolled renewal interval (TTL/3 of the
// tightest lease keeps every enrolled lease alive through two missed
// ticks, matching the per-endpoint heartbeat's margin).
func (a *leaseAgent) interval() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	var min time.Duration
	for _, e := range a.refs {
		if min == 0 || e.interval < min {
			min = e.interval
		}
	}
	return min
}

// collect splits the enrolled refs into renewals and releases (closed
// endpoints), in deterministic order — simulation timing must not
// depend on map iteration.
func (a *leaseAgent) collect() (renew, release []registry.LeaseRef) {
	a.mu.Lock()
	for ref, e := range a.refs {
		if e.closed() {
			release = append(release, ref)
			delete(a.refs, ref)
			continue
		}
		renew = append(renew, ref)
	}
	a.mu.Unlock()
	sortRefs(renew)
	sortRefs(release)
	return renew, release
}

func sortRefs(refs []registry.LeaseRef) {
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Idx < b.Idx
	})
}

// prune drops refs the registry fenced (already evicted, or the flow is
// gone): a stale heartbeat must not keep retrying them.
func (a *leaseAgent) prune(failed []registry.LeaseRef) {
	if len(failed) == 0 {
		return
	}
	a.mu.Lock()
	for _, ref := range failed {
		delete(a.refs, ref)
	}
	a.mu.Unlock()
}

// stop tears the agent down; returns false when a concurrent enrollment
// arrived and the process must keep running.
func (a *leaseAgent) stop() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.refs) > 0 {
		return false
	}
	a.running = false
	leaseAgentsMu.Lock()
	if leaseAgents[a.key] == a {
		delete(leaseAgents, a.key)
	}
	leaseAgentsMu.Unlock()
	return true
}

// run is the agent process: one batched renewal per tick until the node
// crashes (leases expire toward eviction) or no refs remain.
func (a *leaseAgent) run(hp transport.Ctx, reg Registry) {
	for {
		iv := a.interval()
		if iv <= 0 {
			if a.stop() {
				return
			}
			continue
		}
		hp.Sleep(iv)
		if a.node.Crashed(hp.Now()) {
			a.mu.Lock()
			a.refs = map[registry.LeaseRef]*leaseEnrollment{}
			a.mu.Unlock()
			a.stop()
			return
		}
		renew, release := a.collect()
		for _, ref := range release {
			reg.ReleaseLease(hp, ref.Flow, ref.Role, ref.Idx)
		}
		if len(renew) > 0 {
			a.prune(reg.RenewLeaseBatch(hp, renew))
		}
		a.mu.Lock()
		empty := len(a.refs) == 0
		a.mu.Unlock()
		if empty && a.stop() {
			return
		}
	}
}
