package core

import (
	"errors"
	"fmt"
	"time"

	"dfi/internal/schema"
	"dfi/internal/transport"
)

// This file is the batched data path: PushBatch routes many tuples per
// call with one vectorized partition pass and per-target grouped copies;
// ConsumeBatch amortizes the receive side. Both are semantics-preserving
// on every leg kind: the segments they produce or drain are
// byte-identical to the equivalent sequence of Push/Consume calls (see
// batch_test.go), and the virtual-time CPU cost is charged through the
// same chargeBatch accounting.

// chargePushN accounts n tuples' CPU cost. The charge sequence is
// identical to n single chargePush calls: latency mode charges every
// tuple immediately (folded into one Compute of equal total), bandwidth
// mode accumulates and drains in chargeBatch-sized Compute calls — so
// batched and sequential pushes advance the virtual clock identically.
func (s *Source) chargePushN(p transport.Ctx, n int) {
	if n <= 0 {
		return
	}
	if s.spec.Options.Optimization == OptimizeLatency {
		s.node.Compute(p, time.Duration(n)*pushCost)
		return
	}
	s.pendingCharge += n
	for s.pendingCharge >= chargeBatch {
		s.node.Compute(p, chargeBatch*pushCost)
		s.pendingCharge -= chargeBatch
	}
}

// adjacent reports whether b begins exactly where a ends within the same
// backing array, so the two can travel in one copy. The one-past-the-end
// reslice is only legal when a's capacity extends past its length; the
// pointer equality then proves b aliases the same allocation.
func adjacent(a, b []byte) bool {
	if cap(a) <= len(a) || len(b) == 0 {
		return false
	}
	return &a[:len(a)+1][len(a)] == &b[0]
}

// PushBatch routes a whole batch of tuples into the flow in one call.
// Shuffle and combiner flows extract every partition key in one
// vectorized pass (schema.KeysUint64), group the tuples per target, and
// append each group with one copy per contiguous run — so a batch carved
// out of one buffer costs one route pass and a handful of copies instead
// of len(tuples) of each. Replicate flows append the whole batch to every
// live leg. The rings produced are byte-identical to pushing the same
// tuples with sequential Push calls.
//
// On error, tuples already grouped into legs stay pushed (the same
// at-least-once posture every data-path error path has); the caller
// re-pushes the batch only on a flow-level retry protocol of its own.
func (s *Source) PushBatch(p transport.Ctx, tuples []schema.Tuple) error {
	if s.closed.Load() {
		return fmt.Errorf("dfi: push on closed source of flow %q", s.spec.Name)
	}
	ts := s.spec.Schema.TupleSize()
	for _, t := range tuples {
		if len(t) != ts {
			return fmt.Errorf("dfi: tuple size %d does not match schema size %d", len(t), ts)
		}
	}
	if len(tuples) == 0 {
		return nil
	}
	// Latency mode transfers per tuple by design: it keeps its per-tuple
	// semantics and gains only the amortized entry point.
	if s.spec.Options.Optimization == OptimizeLatency {
		for _, t := range tuples {
			if err := s.Push(p, t); err != nil {
				return err
			}
		}
		return nil
	}
	n := len(tuples)
	// Membership changes fold in once per batch rather than once per
	// tuple; a leg dying mid-batch surfaces as errEvicted from its
	// append and is handled below.
	if err := s.syncEpoch(p); err != nil {
		return err
	}
	if s.spec.FlowType() == ReplicateFlow {
		s.countPushed(n)
		s.chargePushN(p, n)
		for i, l := range s.legs {
			if l == nil || l.dead || !s.view.Live(i) {
				continue
			}
			err := s.pushGrouped(p, l, tuples, nil, i, ts)
			if errors.Is(err, errEvicted) {
				// As in pushReplicate: drop the dead leg — every survivor
				// carries its own complete copy of the stream.
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
	if s.spec.Routing == nil && s.spec.ShuffleKey < 0 {
		return fmt.Errorf("dfi: flow %q declares no routing (ShuffleKey -1 and no RoutingFunc); use PushTo", s.spec.Name)
	}
	// Vectorized route pass.
	if cap(s.routeScratch) < n {
		s.routeScratch = make([]int32, n)
	}
	routes := s.routeScratch[:n]
	if s.spec.Routing != nil {
		for i, t := range tuples {
			routes[i] = int32(s.spec.Routing(t))
		}
	} else {
		s.keyScratch = s.spec.Schema.KeysUint64(s.keyScratch, tuples, s.spec.ShuffleKey)
		tbl := s.spec.table()
		for i, k := range s.keyScratch {
			routes[i] = int32(tbl.Home(k))
		}
	}
	if s.view.LiveCount() != len(s.legs) {
		// Some declared owner is down: remap onto survivors exactly as
		// sequential PushTo would, counting the rebalance traffic.
		for i := range routes {
			slot := s.remap(tuples[i], int(routes[i]))
			if slot != int(routes[i]) {
				s.moved.Add(1)
			}
			routes[i] = int32(slot)
		}
	}
	s.countPushed(n)
	s.chargePushN(p, n)
	// Grouped append: per target, in input order, coalescing runs of
	// consecutive memory-adjacent tuples into single copies.
	for ti, l := range s.legs {
		if l == nil || l.dead {
			// The slot can be latched dead mid-batch: an earlier group's
			// eviction fallback folds the membership change in via
			// syncEpoch, which abandons *every* newly evicted leg, not
			// just the one that errored. This slot's share of the batch
			// re-routes per tuple over the survivors, exactly as the
			// sequential PushTo path would — skipping it would drop tuples.
			if err := s.pushRouteAround(p, tuples, routes, ti); err != nil {
				return err
			}
			continue
		}
		if err := s.pushGrouped(p, l, tuples, routes, ti, ts); err != nil {
			return err
		}
	}
	return nil
}

// pushRouteAround re-pushes, per tuple in input order, every batch tuple
// routed to the dead (or never-connected) target ti through pushTo, which
// remaps each onto a live owner — the batched path's form of the
// at-least-once eviction window.
func (s *Source) pushRouteAround(p transport.Ctx, tuples []schema.Tuple, routes []int32, ti int) error {
	for i := range tuples {
		if int(routes[i]) != ti {
			continue
		}
		if err := s.pushTo(p, tuples[i], ti); err != nil {
			return err
		}
	}
	return nil
}

// pushGrouped appends, in input order, every tuple routed to target ti
// (or all tuples when routes is nil — the replicate case) to leg l.
// Runs of consecutive selected tuples that abut in memory collapse into
// one pushRun copy.
func (s *Source) pushGrouped(p transport.Ctx, l *leg, tuples []schema.Tuple, routes []int32, ti, ts int) error {
	n := len(tuples)
	i := 0
	for i < n {
		if routes != nil && int(routes[i]) != ti {
			i++
			continue
		}
		j := i + 1
		for j < n && (routes == nil || int(routes[j]) == ti) && adjacent(tuples[j-1], tuples[j]) {
			j++
		}
		if err := l.pushRun(p, tuples[i][:ts*(j-i)], ts); err != nil {
			if routes != nil && errors.Is(err, errEvicted) {
				// The target died mid-batch. What the leg still holds —
				// including any prefix of this run already appended — is
				// harvested and re-pushed by syncEpoch inside PushTo; the
				// rest of this target's share re-routes per tuple over the
				// survivors (the usual at-least-once eviction window).
				return s.pushRouteAround(p, tuples[i:], routes[i:], ti)
			}
			return err
		}
		i = j
	}
	return nil
}

// ConsumeBatch fills dst with zero-copy tuple views from the flow,
// blocking only until the first tuple (or flow end) is available and then
// draining the active segment without further blocking. It returns the
// number of views filled and ok=false once every source has closed. The
// views obey the same lifetime rule as Consume: valid until the segment
// is recycled by a later consume call.
func (t *Target) ConsumeBatch(p transport.Ctx, dst []schema.Tuple) (int, bool) {
	if t.done.Load() {
		return 0, false
	}
	if len(dst) == 0 {
		return 0, true
	}
	for t.remaining == 0 {
		if !t.nextSegment(p) {
			return 0, false
		}
	}
	n := 0
	for n < len(dst) && t.remaining > 0 {
		dst[n] = schema.Tuple(t.segData[t.segOff : t.segOff+t.tupleSize])
		t.segOff += t.tupleSize
		t.remaining--
		n++
	}
	t.nconsumed += uint64(n)
	return n, true
}
