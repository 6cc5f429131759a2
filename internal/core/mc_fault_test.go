package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// Fault-tolerance tests for ordered multicast under the lease/epoch
// control plane: source crashes detected by lease eviction, gap
// agreement between the survivors, target eviction with snapshot-based
// rejoin, and the explicit unsupported-operation surface. All of these
// sweep seeds via DFI_CHAOS_SEED (`make chaos-mc`).

// survivorsAgree asserts what ordered multicast promises between the
// surviving targets listed (two or more; one has nobody to agree with):
// each delivered the sequence the first did, and skipped as many
// sequence numbers — the agreed-skip set is one set across survivors.
func survivorsAgree(t *testing.T, orders [][]int64, skipped []uint64, survivors []int) {
	t.Helper()
	if len(survivors) < 2 {
		return
	}
	ref := survivors[0]
	for _, ti := range survivors[1:] {
		if !slices.Equal(orders[ti], orders[ref]) {
			i := 0
			for i < len(orders[ti]) && i < len(orders[ref]) && orders[ti][i] == orders[ref][i] {
				i++
			}
			t.Fatalf("targets %d and %d diverge at tuple %d (they delivered %d and %d tuples)",
				ref, ti, i, len(orders[ref]), len(orders[ti]))
		}
		if skipped[ti] != skipped[ref] {
			t.Fatalf("targets %d and %d skipped %d and %d sequence numbers", ref, ti, skipped[ref], skipped[ti])
		}
	}
}

// TestChaosOrderedMulticastSourceCrash: one of two ordered-multicast
// sources' NODE crashes mid-flow while UD loss is in play. The lease
// heartbeat dies with the node, the registry evicts the slot, and the
// surviving targets run gap agreement for the crashed source's
// unanswerable gaps (its retransmission history died with it). Every
// live target must end with the IDENTICAL global order and skip count,
// and nothing outside the agreed-skip set may be lost: the healthy
// source's stream arrives complete, in push order. Two inputs: the node
// crashes at 400 µs under a pushing source, whose Push then fails; and,
// swept over kernel seeds (each one loses different UD sends, so
// different sequences need agreement), it crashes the instant its
// source has pushed a quarter of its stream, unflushed.
func TestChaosOrderedMulticastSourceCrash(t *testing.T) {
	t.Run("crash=400us", func(t *testing.T) { orderedSourceCrash(t, testSeed(), 400*time.Microsecond) })
	for _, seed := range chaosSeeds(1, 24) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { orderedSourceCrash(t, seed, 0) })
	}
}

// orderedSourceCrash runs TestChaosOrderedMulticastSourceCrash at one
// kernel seed: source 1's node crashes at crashAt, or with crashAt 0
// once the source pushed n/4 tuples.
func orderedSourceCrash(t *testing.T, seed int64, crashAt time.Duration) {
	plan := &fabric.FaultPlan{DropSend: 0.05}
	if crashAt > 0 {
		plan.CrashNode(1, crashAt)
	}
	e := newSeededEnv(t, seed, 5, withFaults(plan))
	spec := FlowSpec{
		Name:    "omc-crash",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}},
		Schema:  kvSchema,
		Options: Options{
			Multicast:      true,
			GlobalOrdering: true,
			SegmentSize:    256,
			LeaseTTL:       100 * time.Microsecond,
		},
	}
	const n = 1000
	orders := make([][]int64, len(spec.Targets))
	failed := make([][]int, len(spec.Targets))
	skipped := make([]uint64, len(spec.Targets))
	var crashedErr error
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 2; si++ {
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			count := n
			if si == 1 && crashAt == 0 {
				count = n / 4
			}
			for i := 0; i < count; i++ {
				key := int64(si*n + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					if si == 1 {
						crashedErr = err // node crashed under it
						return
					}
					t.Errorf("healthy source push: %v", err)
					return
				}
				p.Sleep(500 * time.Nanosecond)
			}
			if si == 1 && crashAt == 0 {
				// Crash: no flush, no close, no end marker, no lease renewal.
				plan.CrashNode(1, p.Now())
				return
			}
			if err := src.Close(p); err != nil && si == 0 {
				t.Errorf("healthy source close: %v", err)
			}
		})
	}
	for ti := range spec.Targets {
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				orders[ti] = append(orders[ti], kvSchema.Int64(tup, 0))
			}
			if !tgt.Done() {
				t.Errorf("target %d stopped without reaching flow end", ti)
			}
			failed[ti] = tgt.FailedSources()
			skipped[ti] = tgt.Stats().McGapsSkipped
		})
	}
	e.run(t)
	if crashAt > 0 && !errors.Is(crashedErr, ErrFlowBroken) {
		t.Fatalf("crashed source error %v, want ErrFlowBroken", crashedErr)
	}
	for ti := range spec.Targets {
		if len(failed[ti]) != 1 || failed[ti][0] != 1 {
			t.Fatalf("target %d failed sources %v, want [1] (lease eviction)", ti, failed[ti])
		}
		// Zero loss outside the agreed-skip set: the healthy source's
		// keys [0,n) all arrive, in push order (its history outlives
		// every gap, so none of its sequences can be agreed away).
		last, seen := int64(-1), 0
		for _, k := range orders[ti] {
			if k >= int64(n) {
				continue // crashed source's partial prefix
			}
			if k <= last {
				t.Fatalf("target %d: healthy source out of order (%d after %d)", ti, k, last)
			}
			last = k
			seen++
		}
		if seen != n {
			t.Fatalf("target %d delivered %d of %d healthy-source tuples", ti, seen, n)
		}
	}
	// Identical global order and skip count everywhere — the headline
	// invariant.
	survivorsAgree(t, orders, skipped, []int{0, 1, 2})
}

func TestChaosOrderedMulticastTargetEvictRejoin(t *testing.T) {
	// A target is administratively evicted mid-flow and immediately
	// rejoins via Reattach: the fresh incarnation installs the
	// registry's sequencer snapshot and resumes at the high-water. The
	// survivor must deliver the complete stream, and everything the
	// rejoiner consumes after the rejoin must be a suffix of the
	// survivor's global order — same sequence, later entry point. Swept
	// over kernel seeds: on some, the survivor reports progress between
	// the rejoiner's snapshot read and the sources' reconnect, which once
	// credited the rejoiner from the newer high-water and exhausted its
	// receive pool.
	for _, seed := range chaosSeeds(1, 60) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { orderedTargetEvictRejoin(t, seed) })
	}
}

func orderedTargetEvictRejoin(t *testing.T, seed int64) {
	e := newSeededEnv(t, seed, 4, withFaults(&fabric.FaultPlan{DropSend: 0.03}))
	spec := FlowSpec{
		Name:    "omc-rejoin",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			Multicast:      true,
			GlobalOrdering: true,
			SegmentSize:    256,
			LeaseTTL:       100 * time.Microsecond,
		},
	}
	const n = 2000
	var survivor, pre, post []int64
	var resumedFrom uint64
	rejoinedDone := false
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 2; si++ {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				key := int64(si*n + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					t.Errorf("source %d push: %v", si, err)
					return
				}
				p.Sleep(200 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
		})
	}
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond)
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 1); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	e.k.Spawn("tgt0", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			survivor = append(survivor, kvSchema.Int64(tup, 0))
		}
		if !tgt.Done() {
			t.Error("survivor stopped without reaching flow end")
		}
	})
	e.k.Spawn("tgt1", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			pre = append(pre, kvSchema.Int64(tup, 0))
		}
		if !tgt.Evicted() {
			t.Error("target 1 stopped consuming but was not evicted")
			return
		}
		nt, err := tgt.Reattach(p)
		if err != nil {
			t.Errorf("rejoin: %v", err)
			return
		}
		resumedFrom = nt.ResumedFrom()
		for {
			tup, ok := nt.Consume(p)
			if !ok {
				break
			}
			post = append(post, kvSchema.Int64(tup, 0))
		}
		rejoinedDone = nt.Done()
	})
	e.run(t)
	if len(survivor) != 2*n {
		t.Fatalf("survivor delivered %d tuples, want %d", len(survivor), 2*n)
	}
	if len(pre) == 0 || resumedFrom == 0 {
		t.Fatalf("rejoiner consumed nothing before eviction (pre=%d resumedFrom=%d)", len(pre), resumedFrom)
	}
	if !rejoinedDone {
		t.Fatal("rejoined target did not reach flow end")
	}
	if len(post) == 0 {
		t.Fatal("rejoined target consumed nothing after snapshot install")
	}
	// The rejoiner resumes at the snapshot high-water: its post-rejoin
	// stream must be exactly the tail of the survivor's global order.
	off := len(survivor) - len(post)
	if off < 0 {
		t.Fatalf("rejoiner delivered %d tuples after rejoin, more than survivor's %d", len(post), len(survivor))
	}
	for i := range post {
		if post[i] != survivor[off+i] {
			t.Fatalf("rejoiner diverges from survivor tail at %d: %d vs %d", i, post[i], survivor[off+i])
		}
	}
}

func TestChaosOrderedMulticastAgreedSkips(t *testing.T) {
	// Gap agreement under the lease control plane, with heavy UD loss: a
	// sequence a target skips must be one ALL live targets agreed is
	// unfillable (recorded in the registry before any target acts on
	// it) — never a local timeout's guess. Both targets must skip the
	// same sequences and deliver the identical tuple order around them.
	plan := (&fabric.FaultPlan{DropSend: 0.15}).CrashNode(1, 300*time.Microsecond)
	e := newEnv(t, 4, withFaults(plan))
	spec := FlowSpec{
		Name:    "omc-gap-agree",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			Multicast:      true,
			GlobalOrdering: true,
			SegmentSize:    256,
			LeaseTTL:       100 * time.Microsecond,
			GapNackLimit:   2, // escalate to agreement a little sooner
		},
	}
	const n = 1000
	orders := make([][]int64, len(spec.Targets))
	skipped := make([]uint64, len(spec.Targets))
	snaps := make([]registry.SeqSnapshot, len(spec.Targets))
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 2; si++ {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				key := int64(si*n + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					if si == 1 && errors.Is(err, ErrFlowBroken) {
						return // its node crashed under it
					}
					t.Errorf("source %d push: %v", si, err)
					return
				}
				p.Sleep(300 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil && si == 0 {
				t.Errorf("healthy source close: %v", err)
			}
		})
	}
	for ti := range spec.Targets {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				orders[ti] = append(orders[ti], kvSchema.Int64(tup, 0))
			}
			if !tgt.Done() {
				t.Errorf("target %d stopped without reaching flow end", ti)
			}
			skipped[ti] = tgt.Stats().McGapsSkipped
			// Read the sequencer record AFTER this target finished: every
			// skip it made must already be on file (the arbiter records
			// the verdict before announcing it).
			snaps[ti], _ = e.reg.SeqSnapshot(p, spec.Name)
		})
	}
	e.run(t)
	survivorsAgree(t, orders, skipped, []int{0, 1})
	for ti := range spec.Targets {
		if skipped[ti] != uint64(len(snaps[ti].Skips)) {
			t.Fatalf("target %d skipped %d sequences, the registry records %d agreed skips %v",
				ti, skipped[ti], len(snaps[ti].Skips), snaps[ti].Skips)
		}
	}
	// Healthy stream complete: no skip may have cost a tuple whose
	// retransmission history was still alive.
	seen := 0
	for _, k := range orders[0] {
		if k < int64(n) {
			seen++
		}
	}
	if seen != n {
		t.Fatalf("delivered %d of %d healthy-source tuples", seen, n)
	}
}

func TestMulticastUnsupportedOps(t *testing.T) {
	// What cannot work on a multicast flow — a target rejoin without a
	// sequencer snapshot — fails with the typed sentinel so applications
	// can branch on errors.Is instead of string-matching.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "mc-unsupported",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, GlobalOrdering: true, SegmentSize: 4 * 16}, // ordered, but no lease; four tuples a segment
	}
	const n = 50
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := src.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
				t.Error(err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Error(err)
		}
		if st := src.Stats(); st.TuplesPushed != n || st.SegmentsWritten != (n+3)/4 {
			t.Errorf("source stats %+v, want %d tuples in %d segments", st, n, (n+3)/4)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got := 0
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			if k, v := kvSchema.Int64(tup, 0), kvSchema.Int64(tup, 1); k != int64(got) || v != 2*k {
				t.Errorf("tuple %d is (%d, %d), want (%d, %d)", got, k, v, got, 2*got)
			}
			got++
		}
		if got != n {
			t.Errorf("consumed %d tuples, want %d", got, n)
		}
		// Without LeaseTTL no sequencer snapshot was ever recorded, so
		// there is nothing to rejoin from.
		if _, err := tgt.Reattach(p); !errors.Is(err, ErrUnsupportedOnMulticast) {
			t.Errorf("Target.Reattach error %v, want ErrUnsupportedOnMulticast", err)
		}
	})
	e.run(t)
}

func TestGapNackLimitValidation(t *testing.T) {
	e := newEnv(t, 2)
	mc := Options{Multicast: true, GlobalOrdering: true}
	e.k.Spawn("p", func(p *sim.Proc) {
		bad := FlowSpec{
			Name:    "nack-bad",
			Type:    ReplicateFlow,
			Sources: []Endpoint{{Node: e.c.Node(0)}},
			Targets: []Endpoint{{Node: e.c.Node(1)}},
			Schema:  kvSchema,
			Options: mc,
		}
		bad.Options.GapNackLimit = -1
		if err := FlowInit(p, e.reg, e.c, bad); err == nil {
			t.Error("negative GapNackLimit accepted")
		}
		good := bad
		good.Name = "nack-good"
		good.Options.GapNackLimit = 5
		if err := FlowInit(p, e.reg, e.c, good); err != nil {
			t.Errorf("GapNackLimit=5 rejected: %v", err)
		}
	})
	e.run(t)
}

// TestMulticastForgedMessagesAreDropped: what a peer wrote into a
// multicast message is not trusted. A source index that is no declared
// slot used to index the per-source state unchecked (index out of range
// [7] with length 1, on an end marker as on a data segment), and a
// descriptor whose Fill exceeds the bytes that followed it handed the
// application the neighbouring pool buffer's bytes. Each forged message
// is multicast into a one-source flow ahead of the real stream, which
// must arrive complete and alone.
func TestMulticastForgedMessagesAreDropped(t *testing.T) {
	const tuple, segSize = 16, 4 * 16
	forge := func(d transport.SegDesc, payload int) []byte {
		msg := make([]byte, transport.SegDescBytes+payload)
		d.Put(msg)
		for i := transport.SegDescBytes; i < len(msg); i++ {
			msg[i] = 0xee
		}
		return msg
	}
	data := byte(transport.SegCommitted)
	for _, tc := range []struct {
		name    string
		ordered bool
		msg     []byte
	}{
		{"end marker from an undeclared source", false,
			forge(transport.SegDesc{Flags: data | transport.SegEnd, Tag: mcTag(7, 0)}, 0)},
		{"ordered end marker from an undeclared source", true,
			forge(transport.SegDesc{Flags: data | transport.SegEnd, Tag: mcTag(7, 0)}, 0)},
		{"segment from an undeclared source", false,
			forge(transport.SegDesc{Fill: tuple, Flags: data, Tag: mcTag(7, 0)}, tuple)},
		{"fill beyond the bytes received", false,
			forge(transport.SegDesc{Fill: 3 * tuple, Flags: data, Tag: mcTag(0, 0)}, tuple)},
		{"ordered fill beyond the bytes received", true,
			forge(transport.SegDesc{Fill: 3 * tuple, Flags: data, Tag: mcTag(0, 0)}, tuple)},
		{"fill beyond a segment", false,
			forge(transport.SegDesc{Fill: segSize + 2*tuple, Flags: data, Tag: mcTag(0, 0)}, segSize)},
		{"fill short of the bytes received", false,
			forge(transport.SegDesc{Fill: tuple, Flags: data, Tag: mcTag(0, 0)}, 2*tuple)},
		{"shorter than a descriptor", false, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 3)
			spec := FlowSpec{
				Name:    "mc-forged",
				Type:    ReplicateFlow,
				Sources: []Endpoint{{Node: e.c.Node(0)}},
				Targets: []Endpoint{{Node: e.c.Node(1)}},
				Schema:  kvSchema,
				Options: Options{Multicast: true, GlobalOrdering: tc.ordered, SegmentSize: segSize},
			}
			const n = 40
			e.k.Spawn("init", func(p *sim.Proc) {
				if err := FlowInit(p, e.reg, e.c, spec); err != nil {
					t.Error(err)
				}
			})
			e.k.Spawn("forger", func(p *sim.Proc) {
				p.Sleep(20 * time.Microsecond)
				lookupFlow(p, e.reg, spec.Name).group.Send(p, e.c.Node(2), tc.msg, false)
			})
			e.k.Spawn("src", func(p *sim.Proc) {
				src, err := SourceOpen(p, e.reg, spec.Name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				p.Sleep(50 * time.Microsecond) // the forged message lands first
				for i := 0; i < n; i++ {
					if err := src.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := src.Close(p); err != nil {
					t.Error(err)
				}
			})
			e.k.Spawn("tgt", func(p *sim.Proc) {
				tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				got := 0
				for {
					tup, ok := tgt.Consume(p)
					if !ok {
						break
					}
					if k, v := kvSchema.Int64(tup, 0), kvSchema.Int64(tup, 1); k != int64(got) || v != 2*k {
						t.Errorf("tuple %d is (%d, %d), want (%d, %d)", got, k, v, got, 2*got)
					}
					got++
				}
				if got != n {
					t.Errorf("consumed %d tuples, want %d", got, n)
				}
			})
			e.run(t)
		})
	}
}

// TestMulticastSourceHeldBehindGapFails: a source whose node crashed
// with its head segment lost and a later one already here is held behind
// a gap nobody will refill — its NACKs go unanswered. Once its lease
// lapses the registry evicts it, and the target lets go of what it held
// (the source's extent ends at what was delivered from it: nothing), so
// the flow ends for the surviving source too. Source 1's node crashes
// right after it opens; the segment after its lost first one is
// multicast in its name.
func TestMulticastSourceHeldBehindGapFails(t *testing.T) {
	const tuple, segSize, n = 16, 4 * 16, 40 // source 0 sends 10 segments
	for _, tc := range []struct {
		name    string
		ordered bool
		seq     uint64 // of the segment that arrives
	}{
		{"unordered", false, 1}, // per-source sequence 0 is lost
		{"ordered", true, 11},   // global sequence 10 is lost
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &fabric.FaultPlan{}
			e := newEnv(t, 5, withFaults(plan))
			e.k.MaxEvents = 5_000_000
			spec := FlowSpec{
				Name:    "mc-held",
				Type:    ReplicateFlow,
				Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
				Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
				Schema:  kvSchema,
				Options: Options{Multicast: true, GlobalOrdering: tc.ordered, SegmentSize: segSize, LeaseTTL: 100 * time.Microsecond},
			}
			e.k.Spawn("init", func(p *sim.Proc) {
				if err := FlowInit(p, e.reg, e.c, spec); err != nil {
					t.Error(err)
				}
			})
			e.k.Spawn("src0", func(p *sim.Proc) {
				src, err := SourceOpen(p, e.reg, spec.Name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if err := src.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := src.Close(p); err != nil {
					t.Errorf("surviving source close: %v", err)
				}
			})
			e.k.Spawn("src1", func(p *sim.Proc) {
				if _, err := SourceOpen(p, e.reg, spec.Name, 1); err != nil {
					t.Error(err)
				}
				// Crash: no push, no close, no end marker, no NACK
				// answered, no lease renewed.
				plan.CrashNode(1, p.Now())
			})
			e.k.Spawn("src1-last-words", func(p *sim.Proc) {
				p.Sleep(100 * time.Microsecond)
				msg := make([]byte, transport.SegDescBytes+tuple)
				transport.SegDesc{Fill: tuple, Flags: transport.SegCommitted, Tag: mcTag(1, 0), Seq: tc.seq}.Put(msg)
				copy(msg[transport.SegDescBytes:], mkTuple(-1, -2))
				lookupFlow(p, e.reg, spec.Name).group.Send(p, e.c.Node(4), msg, false)
			})
			for ti := range spec.Targets {
				e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
					tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
					if err != nil {
						t.Error(err)
						return
					}
					got := 0
					for {
						if _, ok := tgt.Consume(p); !ok {
							break
						}
						got++
					}
					if got != n {
						t.Errorf("target %d consumed %d tuples, want source 0's %d", ti, got, n)
					}
					if failed := tgt.FailedSources(); len(failed) != 1 || failed[0] != 1 {
						t.Errorf("target %d failed sources %v, want [1]", ti, failed)
					}
					if !tgt.Done() {
						t.Errorf("target %d stopped without reaching flow end", ti)
					}
				})
			}
			e.run(t)
		})
	}
}

// TestMulticastStragglerTargetEnds: a target too slow for its sources —
// its node computes at a twentieth of the speed — gates them with its
// credit for the whole run, and a target whose node crashes mid-stream
// gates them for good. On a leased flow slow is not dead: its lease is
// renewed, so no source gives up on it, however long its credit stalls
// past the retransmission budget; every target, the straggler included,
// consumes the whole stream with no source declared failed, and the
// source's Close returns nil. A lease-less flow bounds the wait instead,
// fail-stop: a target silent for the retransmission budget breaks the
// flow with an error naming it, and the stream ends where it stands at
// every member, the silent one included — nobody is dropped while the
// others carry on. The crashed target stays silent, so the source's Push
// or Close names it and both survivors end with the same count; the
// straggler does talk, only rarely, so it too is named, and every target
// ends with the count the source sent before the break.
func TestMulticastStragglerTargetEnds(t *testing.T) {
	const n = 200_000
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) { stragglerCases(t, ordered, n) })
	}
}

// stragglerCases runs TestMulticastStragglerTargetEnds's three cases on
// one multicast kind.
func stragglerCases(t *testing.T, ordered bool, n int) {
	t.Run("leased", func(t *testing.T) {
		r := runSilentTarget(t, ordered, 100*time.Microsecond, 0, n)
		if r.srcErr != nil {
			t.Errorf("source: %v, want nil: the straggler is slow, not dead", r.srcErr)
		}
		for ti, got := range r.got {
			if got != n || len(r.failed[ti]) != 0 || !r.done[ti] {
				t.Errorf("target %d consumed %d of %d tuples, failed sources %v, done %v", ti, got, n, r.failed[ti], r.done[ti])
			}
		}
	})
	t.Run("lease-less", func(t *testing.T) {
		r := runSilentTarget(t, ordered, 0, 0, n)
		r.brokenBy(t, 2)
		if !r.pushFailed {
			t.Error("the source's Close broke the flow, want its Push: the straggler sends no credit within the bound once the first window is full")
		}
		for ti, got := range r.got {
			if got != r.got[0] || got == 0 || got >= n || len(r.failed[ti]) != 0 || !r.done[ti] {
				t.Errorf("target %d consumed %d tuples (target 0: %d, pushed %d), failed sources %v, done %v",
					ti, got, r.got[0], n, r.failed[ti], r.done[ti])
			}
		}
	})
	t.Run("lease-less-crash", func(t *testing.T) {
		r := runSilentTarget(t, ordered, 0, 100*time.Microsecond, n)
		r.brokenBy(t, 2)
		for ti := range 2 {
			if got := r.got[ti]; got != r.got[0] || got == 0 || got >= n || !r.done[ti] {
				t.Errorf("survivor %d consumed %d tuples (survivor 0: %d, pushed %d), done %v", ti, got, r.got[0], n, r.done[ti])
			}
		}
	})
}

// silentTargetRun is what runSilentTarget saw: the source's first error
// (Push's, else Close's) and whether Push returned it, and per target the
// tuples consumed, the sources it reports failed and whether it reached
// flow end.
type silentTargetRun struct {
	srcErr     error
	pushFailed bool
	got        []int
	failed     [][]int
	done       []bool
}

// brokenBy asserts that the source broke the flow naming target j.
func (r silentTargetRun) brokenBy(t *testing.T, j int) {
	t.Helper()
	want := fmt.Sprintf("replicate target %d stopped responding", j)
	if !errors.Is(r.srcErr, ErrFlowBroken) || !strings.Contains(r.srcErr.Error(), want) {
		t.Errorf("source: %v, want ErrFlowBroken naming target %d", r.srcErr, j)
	}
}

// runSilentTarget runs one source multicasting n tuples to three targets
// with RetransmitTimeout 20 µs and the lease given (0: none). Target 2's
// node crashes at crashAt, or with crashAt 0 computes at a twentieth of
// its peers' speed. The run must end under the kernel's MaxEvents.
func runSilentTarget(t *testing.T, ordered bool, lease, crashAt time.Duration, n int) silentTargetRun {
	t.Helper()
	var faults []func(*fabric.Config)
	if crashAt > 0 {
		faults = append(faults, withFaults((&fabric.FaultPlan{}).CrashNode(3, crashAt)))
	}
	e := newEnv(t, 4, faults...)
	e.k.MaxEvents = 20_000_000
	if crashAt == 0 {
		e.c.Node(3).CPUScale = 0.05
	}
	spec := FlowSpec{
		Name:    "mc-straggler",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			Multicast: true, GlobalOrdering: ordered,
			RetransmitTimeout: 20 * time.Microsecond, LeaseTTL: lease,
		},
	}
	r := silentTargetRun{got: make([]int, 3), failed: make([][]int, 3), done: make([]bool, 3)}
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n && r.srcErr == nil; i++ {
			r.srcErr = src.Push(p, mkTuple(int64(i), int64(i)))
		}
		r.pushFailed = r.srcErr != nil
		if err := src.Close(p); r.srcErr == nil {
			r.srcErr = err
		}
	})
	for ti := range spec.Targets {
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok := tgt.Consume(p); !ok {
					break
				}
				r.got[ti]++
			}
			r.failed[ti], r.done[ti] = tgt.FailedSources(), tgt.Done()
		})
	}
	e.run(t)
	return r
}

// TestMulticastFlowIsOneRegistryEntry: a multicast flow's endpoints meet
// through the flow's own registry entry — each target publishes its info
// there like a ring target — so the registry holds one flow with every
// target published, not a rendezvous flow per (source, target) pair; and
// a target that was evicted and rejoined republishes in place instead of
// leaving entries behind.
func TestMulticastFlowIsOneRegistryEntry(t *testing.T) {
	oneEntry := func(t *testing.T, e *env) {
		t.Helper()
		if n := e.reg.Flows(); n != 1 {
			t.Errorf("registry holds %d flows, want 1", n)
		}
		if st := e.reg.Status().Flows; len(st) != 1 || st[0].TargetsPublished != 3 {
			t.Errorf("status lists %+v, want one flow with 3 targets published", st)
		}
	}
	mcSpec := func(e *env, o Options) FlowSpec {
		o.Multicast = true
		return FlowSpec{
			Name:    "mc",
			Type:    ReplicateFlow,
			Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
			Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}},
			Schema:  kvSchema,
			Options: o,
		}
	}
	t.Run("2:3", func(t *testing.T) {
		e := newEnv(t, 5)
		for ti, ord := range runReplicate(t, e, mcSpec(e, Options{}), 1000) {
			if len(ord) != 2000 {
				t.Errorf("target %d consumed %d tuples, want 2000", ti, len(ord))
			}
		}
		oneEntry(t, e)
	})
	t.Run("ordered 2:3, target 1 evicted and rejoined", func(t *testing.T) {
		e := newEnv(t, 5)
		spec := mcSpec(e, Options{GlobalOrdering: true, SegmentSize: 256, LeaseTTL: 100 * time.Microsecond})
		const n = 2000
		rejoined := false
		e.k.Spawn("init", func(p *sim.Proc) {
			if err := FlowInit(p, e.reg, e.c, spec); err != nil {
				t.Error(err)
			}
		})
		for si := range spec.Sources {
			si := si
			e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
				src, err := SourceOpen(p, e.reg, spec.Name, si)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if err := src.Push(p, mkTuple(int64(si*n+i), 0)); err != nil {
						t.Errorf("source %d push: %v", si, err)
						return
					}
					p.Sleep(200 * time.Nanosecond)
				}
				if err := src.Close(p); err != nil {
					t.Errorf("source %d close: %v", si, err)
				}
			})
		}
		e.k.Spawn("evictor", func(p *sim.Proc) {
			p.Sleep(150 * time.Microsecond)
			if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 1); err != nil {
				t.Errorf("evict: %v", err)
			}
		})
		for ti := range spec.Targets {
			ti := ti
			e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
				tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					if _, ok := tgt.Consume(p); !ok {
						break
					}
				}
				if ti != 1 {
					return
				}
				nt, err := tgt.Reattach(p)
				if err != nil {
					t.Errorf("rejoin: %v", err)
					return
				}
				for {
					if _, ok := nt.Consume(p); !ok {
						break
					}
				}
				rejoined = nt.Done()
			})
		}
		e.run(t)
		if !rejoined {
			t.Fatal("target 1 did not rejoin and reach flow end")
		}
		if inc := e.reg.MembershipOf(spec.Name).Incarnation(registry.RoleTarget, 1); inc != 1 {
			t.Errorf("target 1 incarnation %d, want 1", inc)
		}
		oneEntry(t, e)
	})
}

// TestMulticastTargetEvictedBeforeOpen: a target evicted before it ever
// opened publishes nothing, and its sources, which wait for every target
// to publish or be evicted, exclude its slot from the start — a lease
// eviction, not a target that stopped responding. The source opens,
// pushes and closes cleanly and the other targets consume everything, on
// both backends and for either multicast kind.
func TestMulticastTargetEvictedBeforeOpen(t *testing.T) {
	const n = 3000
	for _, kind := range []diffKind{diffMulticast, diffOrdered} {
		for _, mk := range []func(int) *diffBackend{newDiffDES, newDiffChan} {
			b := mk(4)
			spec := FlowSpec{
				Name:    "mc-evicted",
				Type:    ReplicateFlow,
				Sources: []Endpoint{{Node: b.node(0)}},
				Targets: []Endpoint{{Node: b.node(1)}, {Node: b.node(2)}, {Node: b.node(3)}},
				Schema:  kvSchema,
				Options: Options{LeaseTTL: b.ttl},
			}
			kind.set(&spec.Options)
			var consumed [2]int
			bodies := []func(transport.Ctx){
				func(p transport.Ctx) {
					if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
						t.Error(err)
						return
					}
					if err := b.reg.Evict(p, spec.Name, registry.RoleTarget, 2); err != nil {
						t.Error(err)
					}
					if _, err := TargetOpen(p, b.reg, spec.Name, 2); err == nil {
						t.Error("an evicted target opened")
					}
				},
				func(p transport.Ctx) {
					src, err := SourceOpen(p, b.reg, spec.Name, 0)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						if err := src.Push(p, mkTuple(int64(i), 0)); err != nil {
							t.Errorf("push: %v", err)
							return
						}
					}
					if err := src.Close(p); err != nil {
						t.Errorf("close: %v", err)
					}
				},
			}
			for ti := range consumed {
				ti := ti
				bodies = append(bodies, func(p transport.Ctx) {
					tgt, err := TargetOpen(p, b.reg, spec.Name, ti)
					if err != nil {
						t.Error(err)
						return
					}
					diffConsume(p, tgt, apiPushConsume, func(schema.Tuple) { consumed[ti]++ })
				})
			}
			b.run(t, bodies)
			if consumed != [2]int{n, n} {
				t.Errorf("%s/%s: targets 0 and 1 consumed %v tuples, want %d each", kind.name, b.name, consumed, n)
			}
		}
	}
}
