package registry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// Lease-based flow membership (control-plane failure model).
//
// Every published flow carries an epoch-versioned Membership record. An
// endpoint that opts into leases (core.Options.LeaseTTL) acquires one at
// open and renews it on a background tick; an endpoint whose lease
// expires — crash, partition, wedged process — moves to Suspect when the
// TTL runs out and to Evicted after a further grace period. Eviction
// bumps the flow epoch; data-plane endpoints compare their cached epoch
// against the record on their normal wait paths and fold the new
// membership in (re-routing around evicted targets, closing rings of
// evicted sources). Endpoints may also be evicted administratively with
// Evict, which takes effect at the next epoch immediately.
//
// Timers are clock callbacks (kernel events on the DES, one re-armed
// time.Timer per slot on the wall clock), not processes: each (re)arm
// bumps a generation counter and schedules one expiry check that no-ops
// when the generation moved on. A quiescent flow therefore leaves no
// pending events behind once its endpoints release their leases, which
// is what keeps the discrete-event kernel's run loop terminating. Every
// check of a slot is the same object, the lease's leaseTimer, scheduled
// with its generation and step packed into the event's argument: a
// heartbeat's re-arm pushes one kernel event on the DES, resets the
// slot's timer on the wall clock, and allocates nothing on either.

// Role distinguishes the two endpoint kinds in a membership record.
type Role uint8

// Endpoint roles.
const (
	RoleSource Role = iota
	RoleTarget
)

// String returns the role's protocol name ("source" or "target").
func (r Role) String() string {
	if r == RoleTarget {
		return "target"
	}
	return "source"
}

// EndpointState is the lease state of one endpoint slot.
type EndpointState uint8

// Lease states. Slots that never acquired a lease are Active (membership
// is advisory until an endpoint opts in).
const (
	StateActive EndpointState = iota
	StateSuspect
	StateEvicted
	StateLeft // released voluntarily (graceful close)
)

// String returns the lease state's protocol name.
func (s EndpointState) String() string {
	switch s {
	case StateSuspect:
		return "suspect"
	case StateEvicted:
		return "evicted"
	case StateLeft:
		return "left"
	}
	return "active"
}

// epKey identifies one endpoint slot within a flow.
type epKey struct {
	role Role
	idx  int
}

// lease is the registry-side state of one endpoint slot.
type lease struct {
	state EndpointState
	ttl   time.Duration
	grace time.Duration
	gen   uint64     // bumped on every (re)arm/cancel; pending timers check it
	timer leaseTimer // the op every check of this slot schedules

	// inc is the slot's incarnation, bumped by every Rejoin: peers use it
	// to tell a rejoined endpoint from the evicted one it replaces (stale
	// heartbeats and writers fence themselves on a mismatch).
	inc uint64
}

// leaseTimer is a slot's expiry check: the one clock op every arm of
// the slot's lease schedules. The argument carries the generation the
// check was armed under and its step (timerExpire or timerGrace), so an
// orphaned check — its lease re-armed, released or evicted since — finds
// the generation moved on and does nothing.
type leaseTimer struct {
	m    *Membership
	k    epKey
	wall wallTimer // the slot's host timer on the wall clock
}

func (t *leaseTimer) wallTimer() *wallTimer { return &t.wall }

// leaseTimer steps, the low bit of the argument.
const (
	timerExpire = 0 // the TTL ran out: Active -> Suspect
	timerGrace  = 1 // the grace period ran out: Suspect -> Evicted
)

// RunOp runs one check in clock context; it takes the monitor itself.
func (t *leaseTimer) RunOp(arg uint64) {
	if gen := arg >> 1; arg&1 == timerExpire {
		t.m.expire(t.k, gen)
	} else {
		t.m.evictExpired(t.k, gen)
	}
}

// Membership is the epoch-versioned membership record of one flow. The
// pointer handed out by MembershipOf stays valid for the flow's lifetime
// (client-side cache semantics); reading it is free of RPC cost, like
// reading any local cache — endpoints learn of changes by comparing
// Epoch against the value they acted on last. It is safe to read from
// any goroutine: Epoch, probed once per pushed tuple, is an atomic load;
// the slot accessors take the registry's monitor.
type Membership struct {
	r    *Registry
	flow string

	epoch atomic.Uint64
	eps   map[epKey]*lease // under r.mu

	// The source slots AttachSource claimed and whether Seal closed the
	// flow to more: each change bumps the epoch.
	attached atomic.Int64
	sealed   atomic.Bool
}

func newMembership(r *Registry, flow string) *Membership {
	return &Membership{r: r, flow: flow, eps: make(map[epKey]*lease)}
}

// Epoch returns the record's current epoch. It starts at 0 and is bumped
// by every eviction, rejoin, attach and seal.
func (m *Membership) Epoch() uint64 { return m.epoch.Load() }

// Attached returns how many source slots AttachSource has claimed.
func (m *Membership) Attached() int { return int(m.attached.Load()) }

// Sealed reports whether Seal closed the flow to further attaches.
func (m *Membership) Sealed() bool { return m.sealed.Load() }

// slot copies one endpoint slot out of the record: the zero lease —
// Active, incarnation 0 — when the slot never acquired one.
func (m *Membership) slot(role Role, idx int) lease {
	m.r.mu.Lock()
	defer m.r.mu.Unlock()
	return m.peek(role, idx)
}

// peek is slot for callers inside the monitor.
func (m *Membership) peek(role Role, idx int) lease {
	if l, ok := m.eps[epKey{role, idx}]; ok {
		return *l
	}
	return lease{}
}

// State returns the lease state of an endpoint slot (Active when the
// slot never acquired a lease).
func (m *Membership) State(role Role, idx int) EndpointState { return m.slot(role, idx).state }

// Evicted reports whether the endpoint slot has been evicted.
func (m *Membership) Evicted(role Role, idx int) bool {
	return m.State(role, idx) == StateEvicted
}

// TargetEvicted reports whether target slot idx has been evicted.
func (m *Membership) TargetEvicted(idx int) bool { return m.Evicted(RoleTarget, idx) }

// SourceEvicted reports whether source slot idx has been evicted.
func (m *Membership) SourceEvicted(idx int) bool { return m.Evicted(RoleSource, idx) }

// Incarnation returns the endpoint slot's incarnation: 0 until the slot
// first rejoins after an eviction, bumped by every Rejoin. Like Epoch it
// is a local cache read.
func (m *Membership) Incarnation(role Role, idx int) uint64 { return m.slot(role, idx).inc }

// EvictedTargets returns the evicted target slots in ascending order.
func (m *Membership) EvictedTargets() []int {
	var out []int
	m.r.mu.Lock()
	for k, l := range m.eps {
		if k.role == RoleTarget && l.state == StateEvicted {
			out = append(out, k.idx)
		}
	}
	m.r.mu.Unlock()
	sort.Ints(out)
	return out
}

// leaseAt returns slot k's lease, creating an Active one — no TTL, its
// timer bound to this record — when the slot never held one.
func (m *Membership) leaseAt(k epKey) *lease {
	l := m.eps[k]
	if l == nil {
		l = &lease{timer: leaseTimer{m: m, k: k}}
		m.eps[k] = l
	}
	return l
}

// arm schedules the lease's expiry check. Renewals re-arm by bumping the
// generation, which orphans the previously scheduled check.
func (m *Membership) arm(l *lease) {
	l.gen++
	m.r.clk.after(l.ttl, &l.timer, l.gen<<1|timerExpire)
}

// expire moves an unrenewed Active lease to Suspect and starts the grace
// timer toward eviction. A timer callback: it takes the monitor.
func (m *Membership) expire(k epKey, gen uint64) {
	m.r.mu.Lock()
	defer m.r.mu.Unlock()
	l := m.eps[k]
	if l == nil || l.gen != gen || l.state != StateActive {
		return
	}
	l.state = StateSuspect
	m.r.clk.broadcast()
	m.r.emit(metrics.Event{Type: metrics.EvLease, Flow: m.flow, Epoch: m.epoch.Load(),
		Role: k.role.String(), Slot: k.idx, Detail: "lease expired: active -> suspect"})
	m.r.changed = m.r.clk.now()
	m.armGrace(l)
}

// armGrace schedules the eviction check of a Suspect lease under its
// current generation.
func (m *Membership) armGrace(l *lease) {
	m.r.clk.after(l.grace, &l.timer, l.gen<<1|timerGrace)
}

// evictExpired evicts a lease still Suspect when its grace period ends.
// A timer callback: it takes the monitor.
func (m *Membership) evictExpired(k epKey, gen uint64) {
	m.r.mu.Lock()
	defer m.r.mu.Unlock()
	l := m.eps[k]
	if l == nil || l.gen != gen || l.state != StateSuspect {
		return
	}
	m.evict(k, l)
}

// evict moves a slot to Evicted and bumps the flow epoch. Waiters on the
// registry condition (WaitTargetLive, data-plane epoch checks via
// broadcast-coupled conds) observe the new epoch.
func (m *Membership) evict(k epKey, l *lease) {
	l.state = StateEvicted
	m.r.emit(metrics.Event{Type: metrics.EvEviction, Flow: m.flow, Epoch: m.epoch.Load() + 1,
		Role: k.role.String(), Slot: k.idx, Detail: "evicted from membership"})
	m.bump("epoch bumped by eviction")
	m.r.changed = m.r.clk.now()
}

// bump moves the record to its next epoch — the one signal every
// membership change sends — and wakes waiters.
func (m *Membership) bump(detail string) {
	m.r.emit(metrics.Event{Type: metrics.EvEpoch, Flow: m.flow, Epoch: m.epoch.Add(1), Detail: detail})
	m.r.clk.broadcast()
}

// membership returns the record for a published flow.
func (r *Registry) membership(flow string) (*Membership, bool) {
	e, ok := r.flows[flow]
	if !ok {
		return nil, false
	}
	return e.mem, true
}

// MembershipOf returns the flow's membership record, or nil if the flow
// is not published. The record is the client-side cached view: reading
// it costs no RPC (endpoints poll Epoch on their normal wait paths),
// while the mutating lease calls below are real RPCs.
func (r *Registry) MembershipOf(name string) *Membership {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.membership(name)
	return m
}

// AcquireLease grants the endpoint slot a lease with the given TTL and
// Suspect grace period (grace defaults to ttl when zero). Acquiring is
// fenced: a slot that was already evicted cannot re-acquire — the epoch
// that evicted it has been observed by its peers. Re-admission goes
// through Rejoin, which bumps the slot's incarnation (and the flow
// epoch) so peers can tell the new endpoint from the corpse.
//
// On a replicated registry the acquisition is a logged command: it
// commits through the consensus log before applying, so the lease
// survives a master failover.
func (r *Registry) AcquireLease(p transport.Ctx, flow string, role Role, idx int, ttl, grace time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("registry: lease TTL must be positive")
	}
	if grace <= 0 {
		grace = ttl
	}
	return r.update(p, flow, func(e *entry) error {
		m := e.mem
		l := m.leaseAt(epKey{role, idx})
		if l.state == StateEvicted {
			return fmt.Errorf("registry: %s %d of flow %q was evicted (epoch %d)", role, idx, flow, m.epoch.Load())
		}
		l.state = StateActive
		l.ttl, l.grace = ttl, grace
		m.arm(l)
		r.emit(metrics.Event{Type: metrics.EvLease, Flow: flow, Epoch: m.epoch.Load(),
			Role: role.String(), Slot: idx, Detail: "lease acquired"})
		return nil
	})
}

// RenewLease refreshes the endpoint's lease, rescuing a Suspect slot
// back to Active. Renewing an evicted lease fails (epoch fencing): the
// eviction is already visible to peers and cannot be taken back.
//
// Renewals are logged commands like every other mutation unless the
// replicated registry was built with ReplicaConfig.UnloggedRenew, which
// serves them as plain master RPCs — the explicit relaxation for
// high-rate heartbeats (a renewal lost to a failover costs TTL budget,
// never correctness: the slot still expires toward eviction, later).
func (r *Registry) RenewLease(p transport.Ctx, flow string, role Role, idx int) error {
	return r.invokeRenew(p, func() error {
		m, ok := r.membership(flow)
		if !ok {
			return fmt.Errorf("registry: flow %q not published", flow)
		}
		l := m.eps[epKey{role, idx}]
		if l == nil || l.state == StateLeft {
			return fmt.Errorf("registry: %s %d of flow %q holds no lease", role, idx, flow)
		}
		if l.state == StateEvicted {
			return fmt.Errorf("registry: %s %d of flow %q was evicted (epoch %d)", role, idx, flow, m.epoch.Load())
		}
		m.renew(l)
		return nil
	})
}

// renew re-arms a live lease, rescuing a Suspect slot back to Active.
// Only the rescue is a change Status shows.
func (m *Membership) renew(l *lease) {
	if l.state != StateActive {
		l.state = StateActive
		m.r.changed = m.r.clk.now()
	}
	m.arm(l)
}

// invokeRenew routes a renewal through the log, or — under the
// UnloggedRenew relaxation — as a plain RPC against the master. Every
// call is one renewal round trip whatever it carries, which is what the
// dfi_registry_lease_renew_rpcs_total counter measures: a batch of N
// slots renewed through RenewLeaseBatch costs one, the per-endpoint
// heartbeat path costs one per slot per tick.
func (r *Registry) invokeRenew(p transport.Ctx, op func() error) error {
	r.renewRPCs.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	if r.repl != nil && r.repl.cfg.UnloggedRenew {
		r.rpc(p)
		err = op()
	} else {
		err = r.run(p, op)
	}
	return err
}

// LeaseRef names one leased endpoint slot for batched renewal.
type LeaseRef struct {
	Flow string
	Role Role
	Idx  int
}

// RenewLeaseBatch refreshes many leases in one renewal RPC (one logged
// command, or one master round trip under UnloggedRenew) — the
// control-plane half of connection scaling: a node heartbeating on
// behalf of all its flow endpoints sends O(ticks) renewals instead of
// O(flows·ticks). Slots that cannot be renewed — unpublished flow, no
// lease, or fenced by eviction — are returned so the caller can drop
// them from future batches; the rest renew normally.
func (r *Registry) RenewLeaseBatch(p transport.Ctx, refs []LeaseRef) []LeaseRef {
	var failed []LeaseRef
	_ = r.invokeRenew(p, func() error {
		for _, ref := range refs {
			m, ok := r.membership(ref.Flow)
			if !ok {
				failed = append(failed, ref)
				continue
			}
			l := m.eps[epKey{ref.Role, ref.Idx}]
			if l == nil || l.state == StateLeft || l.state == StateEvicted {
				failed = append(failed, ref)
				continue
			}
			m.renew(l)
		}
		return nil
	})
	return failed
}

// ReleaseLease gives the lease up voluntarily (graceful close). The slot
// moves to Left without an epoch bump: peers need no rerouting for an
// endpoint that finished its part of the flow protocol. Logged on a
// replicated registry (a Left slot that flipped back to Active on
// failover would stall target re-attach, which closes Left readers).
func (r *Registry) ReleaseLease(p transport.Ctx, flow string, role Role, idx int) {
	_ = r.invoke(p, func() error {
		m, ok := r.membership(flow)
		if !ok {
			return nil
		}
		l := m.eps[epKey{role, idx}]
		if l == nil || l.state == StateEvicted {
			return nil
		}
		l.gen++ // orphan any pending expiry check
		l.state = StateLeft
		r.emit(metrics.Event{Type: metrics.EvLease, Flow: flow, Epoch: m.epoch.Load(),
			Role: role.String(), Slot: idx, Detail: "lease released: -> left"})
		return nil
	})
}

// Evict administratively removes an endpoint from the flow at the next
// epoch, without waiting out lease timers (operator action, or a peer
// with out-of-band failure evidence). Idempotent. Replicated registries
// commit the eviction through the consensus log like any mutation.
func (r *Registry) Evict(p transport.Ctx, flow string, role Role, idx int) error {
	return r.update(p, flow, func(e *entry) error {
		m := e.mem
		k := epKey{role, idx}
		l := m.leaseAt(k)
		if l.state == StateEvicted {
			return nil
		}
		l.gen++ // orphan any pending expiry check
		m.evict(k, l)
		return nil
	})
}

// Rejoin re-admits an evicted endpoint to the flow — the sanctioned way
// back through the epoch fence. The endpoint reclaims its old slot under
// a fresh incarnation: the slot turns Active, its lease timer is
// re-armed (when it ever held one), and the flow epoch is bumped so
// peers reconnect — under ring partitioning the slot takes back exactly
// the arcs it lost. The one caller in the data plane is a re-attaching
// target (core's Target.Reattach, which requires a lease). Rejoining a
// slot that is not evicted is an error — there is nothing to re-admit,
// and callers (cmd/dfiflow) treat it as a rejected rejoin.
func (r *Registry) Rejoin(p transport.Ctx, flow string, role Role, idx int) error {
	return r.update(p, flow, func(e *entry) error {
		m := e.mem
		l := m.eps[epKey{role, idx}]
		if l == nil || l.state != StateEvicted {
			return fmt.Errorf("registry: %s %d of flow %q is not evicted (state %v); rejoin rejected",
				role, idx, flow, m.peek(role, idx).state)
		}
		l.gen++ // orphan pre-eviction timers
		l.inc++
		l.state = StateActive
		if l.ttl > 0 {
			m.arm(l)
		}
		r.emit(metrics.Event{Type: metrics.EvLease, Flow: flow, Epoch: m.epoch.Load() + 1,
			Role: role.String(), Slot: idx, Seq: l.inc, Detail: "rejoined own slot"})
		m.bump("epoch bumped by rejoin")
		return nil
	})
}

// AttachSource claims the flow's next source slot — first, then one
// higher per claim — below max, unless the flow is sealed, and bumps the
// epoch: targets learn of one more slot to poll. One command, so a retry
// after a lost reply never claims a second slot.
func (r *Registry) AttachSource(p transport.Ctx, flow string, first, max int) (int, error) {
	slot := first
	err := r.update(p, flow, func(e *entry) error {
		m := e.mem
		if m.sealed.Load() {
			return fmt.Errorf("registry: flow %q is sealed", flow)
		}
		if slot += m.Attached(); slot >= max {
			return fmt.Errorf("registry: flow %q has no source slot left below %d", flow, max)
		}
		m.attached.Add(1)
		m.bump(fmt.Sprintf("epoch bumped by attach of source %d", slot))
		return nil
	})
	return slot, err
}

// Seal closes the flow to further attaches and bumps the epoch: targets
// learn that the sources they poll are all there will be. Sealing a
// sealed flow changes nothing.
func (r *Registry) Seal(p transport.Ctx, flow string) error {
	return r.update(p, flow, func(e *entry) error {
		if !e.mem.sealed.Swap(true) {
			e.mem.bump("epoch bumped by seal")
		}
		return nil
	})
}
