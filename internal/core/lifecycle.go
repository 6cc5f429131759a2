package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
)

// Flow lifecycle: the data-plane half of the control-plane failure model
// (docs/PROTOCOL.md, "Control-plane failure model"). The registry keeps
// an epoch-versioned membership record per flow (dfi/internal/registry);
// this file wires the record into sources and targets:
//
//   - endpoints of a flow with Options.LeaseTTL hold registry leases,
//     renewed in batches by their node's lease agent until the endpoint
//     finishes (or its node crashes, letting the lease expire);
//   - sources cache the membership epoch and, whenever it moves, fold
//     the new membership in: legs to evicted targets are abandoned, what
//     they still hold locally harvested and re-pushed over the
//     survivors — routed by the flow's partitioner view
//     (dfi/internal/core/partition): Route for key-routed tuples, Fold
//     otherwise;
//   - sources also reconnect to targets that rejoined the flow
//     (registry Rejoin bumps the slot's incarnation along with the
//     epoch): the old leg is harvested like a dead one — anything in
//     flight to the previous incarnation's rings is gone — and a fresh
//     leg attaches to the republished rings;
//   - targets close the rings of evicted sources (so flow end does not
//     wait on a corpse) and stop consuming when evicted themselves.
//
// Epoch checks are one atomic load on paths the endpoints poll anyway,
// so a flow whose membership never changes behaves — event for event —
// like one with no membership at all. None of this knows the backend:
// leases tick on whatever clock the registry was built on.

// heartbeatDivisor sets the lease renewal interval to TTL/3: two renewal
// losses in a row still keep the lease alive.
const heartbeatDivisor = 3

// At O(1000) flows, per-endpoint heartbeat processes would put O(flows)
// renewal RPCs per tick on the registry. Every leased endpoint — private
// ring, shared ring or multicast — instead enrolls with a lease agent:
// one background process per (transport, registry, node, renewal
// interval) that renews every enrolled lease in one RenewLeaseBatch per
// tick — against a sharded registry, one RPC per shard touched. Renewal
// traffic then scales with nodes and shards, not with flows. Agents are
// per interval so no lease ever waits on a longer tick than its own.

// leaseAgentKey identifies one agent: same simulated node, same
// registry, same transport instance (so concurrent simulations in one
// test binary never share an agent), same renewal interval.
type leaseAgentKey struct {
	reg      Registry
	tpt      transport.Transport
	node     int
	interval time.Duration
}

var (
	leaseAgentsMu sync.Mutex
	leaseAgents   = map[leaseAgentKey]*leaseAgent{}
)

// leaseAgent batches lease renewals for the endpoints on one node.
// Enrollments add refs; the agent process prunes refs whose endpoint
// closed (releasing the lease), whose renewal was fenced, or whose slot
// a rejoined successor took over, and self-terminates once no refs
// remain — the discrete-event kernel only ends its run when no events
// remain, so an immortal ticker would hang every simulation.
type leaseAgent struct {
	key  leaseAgentKey
	node transport.Endpoint

	mu      sync.Mutex
	refs    map[registry.LeaseRef]leaseEnrollment
	running bool

	// renew and release are collect's buffers, reused tick after tick;
	// only the agent process touches them.
	renew, release []registry.LeaseRef
}

// leaseEnrollment is one endpoint's entry: the flow's membership record,
// the slot incarnation the endpoint holds the lease under, and the probe
// that reports the endpoint is done with the flow (the lease is then
// released).
type leaseEnrollment struct {
	mem  *registry.Membership
	inc  uint64
	done func() bool
}

// enrollLease acquires the endpoint's lease and registers it with its
// node's agent, spawning the agent process on first use. A
// re-enrollment of the same slot (a rejoined successor) replaces the
// predecessor's entry.
func enrollLease(p transport.Ctx, tpt transport.Transport, reg Registry, node transport.Endpoint, flow string, role registry.Role, idx int, o *Options, done func() bool) error {
	if o.LeaseTTL <= 0 {
		return nil
	}
	// A Suspect slot's grace before eviction is one more TTL.
	if err := reg.AcquireLease(p, flow, role, idx, o.LeaseTTL, o.LeaseTTL); err != nil {
		return err
	}
	mem, err := membershipOf(reg, flow)
	if err != nil {
		return err
	}
	iv := o.LeaseTTL / heartbeatDivisor
	if iv <= 0 {
		iv = o.LeaseTTL
	}
	key := leaseAgentKey{reg: reg, tpt: tpt, node: node.ID(), interval: iv}
	leaseAgentsMu.Lock()
	a := leaseAgents[key]
	if a == nil {
		a = &leaseAgent{key: key, node: node, refs: map[registry.LeaseRef]leaseEnrollment{}}
		leaseAgents[key] = a
	}
	leaseAgentsMu.Unlock()

	e := leaseEnrollment{mem: mem, inc: mem.Incarnation(role, idx), done: done}
	a.mu.Lock()
	a.refs[registry.LeaseRef{Flow: flow, Role: role, Idx: idx}] = e
	start := !a.running
	a.running = true
	a.mu.Unlock()
	if start {
		tpt.Spawn(p, fmt.Sprintf("lease-agent:node%d", node.ID()), a.run)
	}
	return nil
}

// collect splits the enrolled refs into renewals and releases (closed
// endpoints), in deterministic order — simulation timing must not
// depend on map iteration. An entry whose slot incarnation has moved on
// is dropped without renewing or releasing: a rejoined successor owns
// the slot's lease now. The slices are the agent's own buffers, valid
// until the next collect.
func (a *leaseAgent) collect() (renew, release []registry.LeaseRef) {
	renew, release = a.renew[:0], a.release[:0]
	a.mu.Lock()
	for ref, e := range a.refs {
		if e.mem.Incarnation(ref.Role, ref.Idx) != e.inc {
			delete(a.refs, ref)
			continue
		}
		if e.done() {
			release = append(release, ref)
			delete(a.refs, ref)
			continue
		}
		renew = append(renew, ref)
	}
	a.mu.Unlock()
	slices.SortFunc(renew, compareRefs)
	slices.SortFunc(release, compareRefs)
	a.renew, a.release = renew, release
	return renew, release
}

// compareRefs orders refs by flow, then role, then slot.
func compareRefs(a, b registry.LeaseRef) int {
	if c := strings.Compare(a.Flow, b.Flow); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Role, b.Role); c != 0 {
		return c
	}
	return cmp.Compare(a.Idx, b.Idx)
}

// prune drops refs the registry fenced (already evicted, or the flow is
// gone): a stale heartbeat must not keep retrying them.
func (a *leaseAgent) prune(failed []registry.LeaseRef) {
	a.mu.Lock()
	for _, ref := range failed {
		delete(a.refs, ref)
	}
	a.mu.Unlock()
}

// stop tears the agent down if no refs remain; it reports false when an
// enrollment is (or just arrived) in place and the process must keep
// running.
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
func (a *leaseAgent) run(hp transport.Ctx) {
	for {
		hp.Sleep(a.key.interval)
		if a.node.Crashed(hp.Now()) {
			a.mu.Lock()
			a.refs = map[registry.LeaseRef]leaseEnrollment{}
			a.mu.Unlock()
			a.stop()
			return
		}
		renew, release := a.collect()
		for _, ref := range release {
			a.key.reg.ReleaseLease(hp, ref.Flow, ref.Role, ref.Idx)
		}
		if len(renew) > 0 {
			a.prune(a.key.reg.RenewLeaseBatch(hp, renew))
		}
		if a.stop() {
			return
		}
	}
}

// acquireSourceLease sets up the lease + heartbeat for a source slot.
func (s *Source) acquireSourceLease(p transport.Ctx, reg Registry, name string) error {
	return enrollLease(p, s.meta.cluster, reg, s.node, name, registry.RoleSource, s.idx, &s.spec.Options,
		s.closed.Load)
}

// initMembership builds the partitioner view over the flow's membership
// record; called once the legs are connected. Targets already evicted
// at open (nil legs) start out routed around.
func (s *Source) initMembership(name string) error {
	s.view = s.spec.table().NewView()
	if err := s.refreshView(); err != nil {
		return fmt.Errorf("%w: every target of flow %q is evicted", ErrFlowBroken, name)
	}
	return nil
}

// refreshView rebuilds the view's liveness from the current legs and
// membership record. Errors when no target remains live.
func (s *Source) refreshView() error {
	live := make([]bool, len(s.legs))
	for i, l := range s.legs {
		live[i] = l != nil && !l.dead && !l.gone()
	}
	s.view.SetLive(live)
	if s.view.LiveCount() == 0 {
		return ErrFlowBroken
	}
	return nil
}

// remap maps a tuple's declared route onto a live leg through the
// partitioner view: the declared index when its target survives;
// otherwise the live owner of the tuple's key (key-routed flows) or the
// view's deterministic fold (custom routing and PushTo). Every source
// computes the same remap from the same table and membership record, so
// a key keeps hitting one target per epoch — and under ring
// partitioning, only the dead target's arcs move at all.
func (s *Source) remap(t schema.Tuple, idx int) int {
	if s.view.Live(idx) {
		return idx
	}
	if s.spec.Routing == nil && s.spec.ShuffleKey >= 0 && t != nil {
		slot, _ := s.view.Route(s.spec.Schema.KeyUint64(t, s.spec.ShuffleKey))
		return slot
	}
	slot, _ := s.view.Fold(idx)
	return slot
}

// pendingTuple is one harvested tuple awaiting re-push: the payload (a
// view into the dead leg's local segments, stable until Free) and the
// slot it was originally routed to.
type pendingTuple struct {
	data []byte
	from int
}

// syncEpoch folds control-plane membership changes into the source:
// it abandons legs whose targets were evicted *or* rejoined under a new
// incarnation (harvesting what they still hold locally — a private
// ring's unconsumed window and partial segment, a shared ring's staged
// segment only), reconnects to rejoined targets' republished rings,
// refreshes the partitioner view, and re-pushes the harvest over the
// live owners. A no-op (one integer
// compare) while the epoch is unchanged. Returns ErrFlowBroken when no
// target survives, or when this source was itself evicted (epoch
// fencing: its peers have moved on).
func (s *Source) syncEpoch(p transport.Ctx) error {
	if s.mem.Epoch() == s.epoch {
		return nil
	}
	// The fold below abandons legs and rebuilds the view; an error exit
	// leaves the per-tuple path off for good.
	s.steady = false
	s.publish()
	var pending []pendingTuple
	var drained uint64
	defer func() {
		if drained == 0 {
			return
		}
		if sink := s.reg.EventSink(); sink != nil {
			sink.Emit(metrics.Event{
				T: p.Now(), Node: fmt.Sprintf("node%d", s.node.ID()),
				Type: metrics.EvReroute, Flow: s.spec.Name, Epoch: s.epoch,
				Role: "source", Slot: s.idx, Seq: drained,
				Detail: fmt.Sprintf("re-pushed %d harvested tuples", drained),
			})
		}
	}()
	for {
		s.epoch = s.mem.Epoch()
		if s.mem.SourceEvicted(s.idx) {
			return fmt.Errorf("%w: source %d was evicted from flow %q (epoch %d)",
				ErrFlowBroken, s.idx, s.spec.Name, s.epoch)
		}
		// Harvest legs whose rings are gone: targets evicted this epoch,
		// and targets that rejoined with fresh rings (incarnation bump) —
		// anything in flight to the previous incarnation will never be
		// consumed.
		for i, l := range s.legs {
			if l == nil || l.dead || !l.gone() {
				continue
			}
			for _, data := range l.abandon(s.spec.Schema.TupleSize()) {
				pending = append(pending, pendingTuple{data: data, from: i})
			}
		}
		if err := s.reconnectRejoined(p); err != nil {
			return err
		}
		// View after reconnect: harvested tuples re-route over the
		// post-change membership — a rejoined target's own harvest
		// lands back on its fresh rings.
		if err := s.refreshView(); err != nil {
			return fmt.Errorf("%w: every target of flow %q evicted (epoch %d)", ErrFlowBroken, s.spec.Name, s.epoch)
		}
		if s.spec.FlowType() == ReplicateFlow {
			// Replicate legs are dropped rather than drained: every
			// survivor already receives its own copy of the stream.
			pending = nil
		}
		for len(pending) > 0 {
			err := s.repush(p, schema.Tuple(pending[0].data), pending[0].from)
			if errors.Is(err, errEvicted) {
				break // another eviction mid-drain: re-sync, keep the tail
			}
			if err != nil {
				return err
			}
			pending = pending[1:]
			s.rerouted.Add(1)
			drained++
		}
		if len(pending) == 0 && s.mem.Epoch() == s.epoch {
			s.setSteady()
			return nil
		}
	}
}

// reconnectRejoined replaces legs whose target slot rejoined the flow
// under a fresh incarnation (and fills slots that were evicted at open
// time and have since come back): the retired leg's local segments stay
// registered until Free — its harvest is still being re-pushed — and a
// new leg attaches to the rings the target republished before its
// Rejoin bumped the epoch.
func (s *Source) reconnectRejoined(p transport.Ctx) error {
	for i, l := range s.legs {
		if s.mem.TargetEvicted(i) || l != nil && !l.dead && !l.gone() {
			continue
		}
		inc := s.targetInc(i)
		info, ok := s.reg.TargetInfo(p, s.spec.Name, i)
		if !ok {
			continue // never published; WaitTargetLive said evicted at open
		}
		fresh, err := s.connectLeg(info, i, inc)
		if err != nil {
			return err
		}
		s.statsMu.Lock()
		if l != nil {
			s.retired = append(s.retired, l)
		}
		s.legs[i] = fresh
		s.statsMu.Unlock()
	}
	return nil
}

// repush routes one harvested tuple to a surviving leg. During Close,
// survivors that already sent FLOW_END cannot take tuples anymore; the
// re-push then folds onto any still-open survivor (phase ordering makes
// this rare: end markers only go out once every live leg drained).
func (s *Source) repush(p transport.Ctx, t schema.Tuple, from int) error {
	l := s.legs[s.remap(t, from)]
	if l.closed || l.dead {
		l = nil
		for _, i := range s.view.LiveSlots() {
			if cl := s.legs[i]; !cl.closed && !cl.dead {
				l = cl
				break
			}
		}
		if l == nil {
			return fmt.Errorf("%w: no open target left for rerouted tuples of flow %q", ErrFlowBroken, s.spec.Name)
		}
	}
	return s.pushLeg(p, l, t)
}

// Epoch returns the last membership epoch the source has folded in.
func (s *Source) Epoch() uint64 { return s.epoch }

// --- Target side ---------------------------------------------------

// acquireTargetLease sets up the lease + heartbeat for a target slot.
func (t *Target) acquireTargetLease(p transport.Ctx, reg Registry, name string) error {
	return enrollLease(p, t.meta.cluster, reg, t.node, name, registry.RoleTarget, t.idx, &t.spec.Options,
		func() bool { return t.done.Load() || t.evicted.Load() })
}

// syncMembership folds membership changes into the target's ring state:
// rings of evicted sources are closed (and reported in FailedSources),
// and a target that was itself evicted — or whose slot a successor took
// under a fresh incarnation while it was not looking — stops consuming.
// On an elastic flow it also picks up attached sources and the seal.
// Reports whether the target is evicted. A no-op (one integer compare)
// while the epoch is unchanged. Every feed's scan calls it once per pass
// (see segmentFeed).
func (t *Target) syncMembership() bool {
	e := t.mem.Epoch()
	if e == t.epoch {
		return t.evicted.Load()
	}
	t.epoch = e
	if t.mem.TargetEvicted(t.idx) || t.mem.Incarnation(registry.RoleTarget, t.idx) != t.inc {
		t.evicted.Store(true)
		return true
	}
	t.foldSources()
	for i, r := range t.readers {
		if !r.closed && t.mem.SourceEvicted(i) {
			t.failSource(i)
		}
	}
	return false
}

// foldSources reads the source slots in play off the record: every
// reader's, for good — or on an elastic flow the declared sources plus
// the attached ones, for good once sealed. The seal is read first: no
// attach follows it, so a count read after a seal is final.
func (t *Target) foldSources() {
	t.live, t.sealed = len(t.readers), true
	if t.spec.Options.elastic() {
		t.sealed = t.mem.Sealed()
		t.live = len(t.spec.Sources) + t.mem.Attached()
	}
}

// Evicted reports whether the control plane evicted this target from the
// flow membership (its key range has been rehashed over the survivors).
func (t *Target) Evicted() bool { return t.evicted.Load() }
