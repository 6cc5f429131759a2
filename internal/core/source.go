package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/core/partition"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
)

// chargeBatch is how many per-tuple CPU costs are accumulated before being
// charged to the virtual clock in one Compute call. Batching keeps the
// event count independent of tuple count without changing total cost.
const chargeBatch = 128

// Source is a thread-level entry point into a flow (paper Figure 1). A
// Source is owned by exactly one simulated process; Push is asynchronous
// and returns once the tuple is copied into the internal send buffer,
// which is what enables compute/communication overlap.
type Source struct {
	meta *flowMeta
	spec *FlowSpec
	idx  int
	node transport.Endpoint
	reg  Registry

	// legs holds one leg per target — a private ring writer or a shared-
	// ring stream, whichever the target published — or, on a multicast
	// flow, the one group leg that reaches them all. An entry is nil only
	// when its target was already evicted from the flow membership at
	// open time; such slots are routed around from the start. A leg whose
	// target rejoined with fresh rings (an incarnation bump) is harvested
	// and replaced (see lifecycle.go). retired keeps replaced legs alive
	// until Free — harvested tuples view their local segments.
	legs    []*leg
	retired []*leg

	// statsMu guards the legs/retired slice headers against a concurrent
	// scraper walking Stats() while the simulation appends (connectAll)
	// or swaps (reconnectRejoined) entries. It is only held around the
	// non-blocking slice mutations and the stats walks — never across a
	// simulation park, which would deadlock the baton-passing scheduler.
	statsMu sync.Mutex

	// Control-plane membership (see lifecycle.go). mem is the flow's
	// epoch-versioned record; epoch is the last value folded in; view is
	// the partitioner joined with that epoch's liveness — the survivor
	// routing state.
	mem   *registry.Membership
	epoch uint64
	view  *partition.View

	// steady caches whether Push may take its per-tuple path: a key-routed
	// bandwidth flow with every declared target live. It can only change
	// where the legs or the view do — connectAll, syncEpoch — and Close
	// clears it. general counts the Push calls that took the general path
	// instead (read by the shape gate in steady_test.go).
	steady  bool
	general uint64

	// npushed is the push count, owned by the pushing process. pushed is
	// its scrape-visible copy, stored on every general-path push (so at
	// every segment flush and charge batch), PushBatch and Commit, and by
	// Flush, Close and syncEpoch: exact after any of those,
	// and in between behind by the tuples staged since — fewer than
	// chargeBatch.
	npushed uint64

	// Scrape-visible counters (atomic so a metrics endpoint can read
	// them mid-run).
	rerouted atomic.Uint64
	moved    atomic.Uint64
	pushed   atomic.Uint64

	pendingCharge int
	// closed is read by the node's lease agent (another goroutine on a
	// wall-clock backend) to release the lease.
	closed atomic.Bool

	// Reusable scratch for PushBatch's vectorized route pass.
	routeScratch []int32
	keyScratch   []uint64
}

// SourceOpen attaches to source slot sourceIdx of the named flow,
// retrieving the flow metadata from the registry and connecting one leg
// to every target (one to the group on a multicast flow). It blocks
// until the flow and all targets are available.
func SourceOpen(p transport.Ctx, reg Registry, name string, sourceIdx int) (*Source, error) {
	meta := lookupFlow(p, reg, name)
	spec := &meta.spec
	if sourceIdx < 0 || sourceIdx >= len(spec.Sources) {
		return nil, fmt.Errorf("dfi: source index %d out of range for flow %q", sourceIdx, name)
	}
	s := &Source{meta: meta, spec: spec, idx: sourceIdx, node: spec.Sources[sourceIdx].Node, reg: reg}
	if err := s.acquireSourceLease(p, reg, name); err != nil {
		return nil, err
	}
	return s, s.connectAll(p, name)
}

// connectAll waits for every target to publish its info or be evicted
// and connects to it — a leg per target, or its queue on a multicast
// flow's one group leg — then initializes the membership view: the shared
// tail of SourceOpen and AttachSource.
func (s *Source) connectAll(p transport.Ctx, name string) error {
	var err error
	if s.mem, err = membershipOf(s.reg, name); err != nil {
		return err
	}
	// The epoch this source starts from is the one before any leg
	// connects: a target evicted while the others are still connecting
	// then shows as an epoch to fold in (syncEpoch abandons its leg),
	// not as a live leg nobody will ever harvest.
	s.epoch = s.mem.Epoch()
	var group *mcTx
	if s.spec.Options.Multicast {
		group = newMcTx(s)
		s.appendLeg(&group.leg)
	}
	for t := range s.spec.Targets {
		inc := s.targetInc(t)
		info, evicted := s.reg.WaitTargetLive(p, name, t)
		switch {
		case group != nil:
			group.connect(t, info, inc)
		case evicted:
			s.appendLeg(nil)
		default:
			l, err := s.connectLeg(info, t, inc)
			if err != nil {
				return err
			}
			s.appendLeg(l)
		}
	}
	if err := s.initMembership(name); err != nil {
		return err
	}
	s.setSteady()
	return nil
}

// setSteady decides whether Push may take its per-tuple path: routes
// come from the shuffle key alone, tuples batch into segments, and every
// declared target is live, so a key's home is where it goes.
func (s *Source) setSteady() {
	s.steady = s.spec.Routing == nil && s.spec.ShuffleKey >= 0 &&
		s.spec.FlowType() != ReplicateFlow &&
		s.spec.Options.Optimization == OptimizeBandwidth &&
		s.view.LiveCount() == len(s.legs)
}

// appendLeg grows the leg set under statsMu (WaitTargetLive above
// blocks, so the lock cannot wrap the whole connect loop).
func (s *Source) appendLeg(l *leg) {
	s.statsMu.Lock()
	s.legs = append(s.legs, l)
	s.statsMu.Unlock()
}

// targetInc reads a target slot's current incarnation from the
// membership record.
func (s *Source) targetInc(i int) uint64 {
	return s.mem.Incarnation(registry.RoleTarget, i)
}

// connectLeg builds the leg to target slot i under incarnation inc, of
// the ring kind the target published. The eviction probe also fires on
// an incarnation bump: a leg connected to a rejoined target's *previous*
// rings can never be drained and must be harvested like one whose target
// died.
func (s *Source) connectLeg(info any, i int, inc uint64) (*leg, error) {
	var l *leg
	switch ti := info.(type) {
	case *targetInfo:
		w := newRingWriter(s.meta.cluster, s.node, ti, ti.ringOffs[s.idx], &s.spec.Options)
		if sink := s.reg.EventSink(); sink != nil {
			w.events = sink
			w.evNode = fmt.Sprintf("node%d", s.node.ID())
			w.evFlow = s.spec.Name
			w.evSlot = i
		}
		l = &w.leg
	case *sharedTargetInfo:
		x, err := newSharedTx(s, i)
		if err != nil {
			return nil, err
		}
		l = &x.leg
	}
	l.mem, l.slot, l.inc = s.mem, i, inc
	return l, nil
}

// Schema returns the flow's tuple schema.
func (s *Source) Schema() *schema.Schema { return s.spec.Schema }

// chargePush accounts one tuple's CPU cost, batched for simulation
// efficiency in bandwidth mode.
func (s *Source) chargePush(p transport.Ctx) {
	s.chargePushN(p, 1)
}

// settleCharge flushes any accumulated per-tuple CPU cost.
func (s *Source) settleCharge(p transport.Ctx) {
	if s.pendingCharge > 0 {
		s.node.Compute(p, time.Duration(s.pendingCharge)*pushCost)
		s.pendingCharge = 0
	}
}

// Push routes one tuple into the flow. For shuffle and combiner flows the
// route comes from the shuffle key hash or the flow's RoutingFunc; for
// replicate flows the tuple goes to every target. Push is non-blocking
// except for flow control (a saturated ring or exhausted credit).
//
// In the steady state of a key-routed bandwidth flow a tuple costs what
// the paper's design says it should — its route and its copy into the
// segment being filled. One load of the membership epoch stands in for
// every per-tuple guard of the general path (syncEpoch, remap, the leg's
// eviction probe): nothing they look at changes without the epoch moving,
// and the leg was found live at this epoch (seen). A tuple that would
// ship a segment or complete a charge batch, and any tuple after the
// epoch moved, takes the general path, so flushes, Compute calls and
// re-routes happen exactly where they always did.
func (s *Source) Push(p transport.Ctx, t schema.Tuple) error {
	if sch := s.spec.Schema; s.steady && s.mem.Epoch() == s.epoch && len(t) == sch.TupleSize() {
		l := s.legs[s.view.Table().Home(sch.KeyUint64(t, s.spec.ShuffleKey))]
		if end := l.fill + len(t); l.seen == s.epoch && !l.dead && end <= l.segSize && s.pendingCharge < chargeBatch-1 {
			copy(l.buf[l.fill:], t)
			l.fill = end
			s.pendingCharge++
			s.npushed++
			return nil
		}
	}
	// The general path: every check made per tuple. It stays in this
	// function because a source parks from deep below here: one more
	// frame on that chain took every source process of a 256-flow fleet
	// over a stack-doubling boundary (+1 MiB peak RSS).
	s.general++
	if s.closed.Load() {
		return fmt.Errorf("dfi: push on closed source of flow %q", s.spec.Name)
	}
	if len(t) != s.spec.Schema.TupleSize() {
		return fmt.Errorf("dfi: tuple size %d does not match schema size %d", len(t), s.spec.Schema.TupleSize())
	}
	s.countPushed(1)
	s.chargePush(p)
	switch s.spec.FlowType() {
	case ReplicateFlow:
		return s.pushReplicate(p, t)
	default:
		if s.spec.Routing == nil && s.spec.ShuffleKey < 0 {
			// normalize allows this configuration for PushTo-only flows;
			// letting it reach routeIndex would panic on column -1.
			return fmt.Errorf("dfi: flow %q declares no routing (ShuffleKey -1 and no RoutingFunc); use PushTo", s.spec.Name)
		}
		return s.pushTo(p, t, routeIndex(s.spec, t))
	}
}

// countPushed adds n to the push count and publishes it.
func (s *Source) countPushed(n int) {
	s.npushed += uint64(n)
	s.publish()
}

// publish makes the push count visible to scrapers.
func (s *Source) publish() { s.pushed.Store(s.npushed) }

// pushReplicate copies one tuple to every live leg of a replicate flow
// (a multicast flow has one, the group) — liveness comes from the same
// partitioner view the routed flows use. A leg whose target gets evicted
// mid-push is dropped: the survivors carry their own complete copies,
// and the dead leg's harvest is discarded by syncEpoch rather than
// drained.
func (s *Source) pushReplicate(p transport.Ctx, t schema.Tuple) error {
	if err := s.syncEpoch(p); err != nil {
		return err
	}
	for i, l := range s.legs {
		if l == nil || l.dead || !s.view.Live(i) {
			continue
		}
		err := s.pushLeg(p, l, t)
		if errors.Is(err, errEvicted) {
			if err := s.syncEpoch(p); err != nil {
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

// PushTo sends one tuple directly to the target with the given index,
// bypassing key routing (paper §4.2.1, routing option 3). When the named
// target has been evicted from the flow membership the tuple is remapped
// onto a survivor (see lifecycle.go).
func (s *Source) PushTo(p transport.Ctx, t schema.Tuple, target int) error {
	if target >= 0 && target < len(s.legs) {
		s.countPushed(1)
	}
	return s.pushTo(p, t, target)
}

// pushTo is PushTo for a tuple its caller has already counted (Push and
// PushBatch count before they route).
func (s *Source) pushTo(p transport.Ctx, t schema.Tuple, target int) error {
	if target < 0 || target >= len(s.legs) {
		return fmt.Errorf("dfi: target %d out of range (%d targets)", target, len(s.legs))
	}
	for {
		if err := s.syncEpoch(p); err != nil {
			return err
		}
		slot := s.remap(t, target)
		err := s.pushLeg(p, s.legs[slot], t)
		if !errors.Is(err, errEvicted) {
			if err == nil && slot != target {
				// The declared owner is down: the tuple landed on the live
				// owner instead. Moved counts this steady-state rebalance
				// traffic; Rerouted counts harvested re-pushes.
				s.moved.Add(1)
			}
			return err
		}
		// The routed target died mid-push (the tuple was not appended):
		// fold the eviction in and re-route.
	}
}

// pushLeg appends one tuple to a leg. In latency mode the tuple is its
// own segment and ships at once: a ring writer has a path of its own for
// that (its window is tuple-granular), a multicast group flushes what was
// just staged, and normalize rejects the mode on shared rings.
func (s *Source) pushLeg(p transport.Ctx, l *leg, t schema.Tuple) error {
	if s.spec.Options.Optimization == OptimizeLatency {
		if w, ok := l.tx.(*ringWriter); ok {
			return w.pushImmediate(p, t)
		}
		if err := l.push(p, t); err != nil {
			return err
		}
		return l.tx.flush(p)
	}
	return l.push(p, t)
}

// Flush pushes out all partially filled segments (bandwidth mode). Tuples
// already pushed become consumable at their targets even if segments were
// not full. A non-nil error (ErrFlowBroken) means a target became
// unreachable and bounded recovery gave up.
func (s *Source) Flush(p transport.Ctx) error {
	s.publish()
	s.settleCharge(p)
	for {
		if err := s.syncEpoch(p); err != nil {
			return err
		}
		again := false
		for _, l := range s.legs {
			if l == nil || l.dead {
				continue
			}
			err := l.tx.flush(p)
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

// Close flushes remaining tuples and propagates the end-of-flow marker to
// every target. Targets return flow-end from Consume once every source has
// closed. With Options.RetransmitTimeout set, a nil return additionally
// certifies that every target consumed the full stream; ErrFlowBroken
// reports an unreachable or stuck target.
func (s *Source) Close(p transport.Ctx) error {
	if s.closed.Load() {
		return nil
	}
	s.steady = false
	s.publish()
	s.settleCharge(p)
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Phase 1 drains and confirms every live leg, folding in evictions
	// (and re-routing their harvest) until a round completes with the
	// membership unchanged — only then is no tuple left that an eviction
	// could strand.
	maxRounds := len(s.legs) + 2
	for round := 0; ; round++ {
		if err := s.syncEpoch(p); err != nil {
			record(err)
			s.closed.Store(true)
			return firstErr
		}
		again := false
		for _, l := range s.legs {
			if l == nil || l.dead || l.closed {
				continue
			}
			err := l.tx.finish(p)
			if errors.Is(err, errEvicted) {
				again = true
				break
			}
			if err != nil {
				// This leg is broken beyond recovery; do not stall on it
				// again in phase 2.
				record(err)
				l.dead = true
			}
		}
		if !again {
			break
		}
		if round >= maxRounds {
			record(fmt.Errorf("%w: close did not stabilize after %d membership changes", ErrFlowBroken, round))
			break
		}
	}
	// Phase 2: the end-of-flow markers.
	for round := 0; ; round++ {
		if err := s.syncEpoch(p); err != nil {
			record(err)
			break
		}
		again := false
		for _, l := range s.legs {
			if l == nil || l.dead || l.closed {
				continue
			}
			err := l.tx.end(p)
			if errors.Is(err, errEvicted) {
				again = true // fold in on the next round; nothing to drain here
				continue
			}
			record(err)
		}
		if !again {
			break
		}
		if round >= maxRounds {
			record(fmt.Errorf("%w: close did not stabilize after %d membership changes", ErrFlowBroken, round))
			break
		}
	}
	s.closed.Store(true)
	return firstErr
}

// Pushed returns the number of tuples pushed so far. It reads the
// pushing process's own count, so it is exact there and must not be
// called from any other goroutine while the source pushes — Stats is the
// accessor a concurrent observer uses.
func (s *Source) Pushed() uint64 { return s.npushed }

// Free releases what the source's legs hold (after Close), including
// legs retired when their target rejoined under fresh rings.
func (s *Source) Free() {
	for _, l := range s.legs {
		if l != nil {
			l.tx.free()
		}
	}
	for _, l := range s.retired {
		l.tx.free()
	}
}

// Slot returns the source's slot index within the flow.
func (s *Source) Slot() int { return s.idx }

// FlowType returns the flow type declared in the spec's Type field.
func (s *FlowSpec) FlowType() FlowType { return s.Type }
