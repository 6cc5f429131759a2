package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dfi/internal/core/partition"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// Re-attach suite: an evicted target rejoining a live, leased flow under
// a fresh incarnation. The chaos test pins the delivery contract across a
// rejoin: at-least-once, a duplicate only across the eviction boundary,
// and never a loss.

// TestRouteIndexAgreesWithPartitioner pins the routing dedup: routeIndex
// is the partitioner's Home for every key under both schemes, and under
// modulo it still equals the legacy inline hash formula bit for bit.
func TestRouteIndexAgreesWithPartitioner(t *testing.T) {
	for _, sc := range []partition.Scheme{partition.Modulo, partition.Ring} {
		const nTargets = 5
		spec := FlowSpec{
			Targets:    make([]Endpoint, nTargets),
			Schema:     kvSchema,
			ShuffleKey: 0,
			Options:    Options{Partitioning: sc},
		}
		for i := int64(0); i < 5000; i++ {
			tup := mkTuple(i, 0)
			key := kvSchema.KeyUint64(tup, 0)
			got := routeIndex(&spec, tup)
			if want := spec.table().Home(key); got != want {
				t.Fatalf("%v: routeIndex(key %d) = %d, partitioner Home = %d", sc, i, got, want)
			}
			if sc == partition.Modulo {
				if legacy := int(schema.Hash(key) % nTargets); got != legacy {
					t.Fatalf("modulo: routeIndex(key %d) = %d, legacy hash formula = %d", i, got, legacy)
				}
			}
		}
	}
}

// reattachCollect drains one target incarnation into a per-key delivery
// count, checking payload integrity. Uniqueness is asserted on the
// counts after the run, across incarnations.
func reattachCollect(t *testing.T, p *sim.Proc, tgt *Target, into map[int64]int) {
	t.Helper()
	for {
		tup, ok := tgt.Consume(p)
		if !ok {
			return
		}
		k := kvSchema.Int64(tup, 0)
		if v := kvSchema.Int64(tup, 1); v != 2*k {
			t.Errorf("key %d has value %d, want %d", k, v, 2*k)
		}
		into[k]++
	}
}

func TestChaosTargetEvictReattachResume(t *testing.T) {
	// A ring-partitioned shuffle target of a leased flow is
	// administratively evicted mid-stream (the TTL is long enough that no
	// lease expires), waits out an outage window, and re-attaches. Every
	// key is delivered at least once, a duplicate must straddle the
	// eviction boundary — one copy on the dead incarnation, one on a
	// survivor — and nothing is lost. The rejoined incarnation must take
	// back its arcs and consume again.
	const (
		perSource = 3000
		deadIdx   = 1
		evictAt   = 250 * time.Microsecond
		rejoinGap = 100 * time.Microsecond
	)
	e := newEnv(t, 6)
	spec := FlowSpec{
		Name:       "reattach-tgt",
		Sources:    []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets:    []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}, {Node: e.c.Node(5)}},
		Schema:     kvSchema,
		ShuffleKey: 0,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
			LeaseTTL:          10 * time.Millisecond,
			Partitioning:      partition.Ring,
		},
	}
	nTargets := len(spec.Targets)
	// One delivery count per incarnation: slots 0..3 are the first
	// incarnations, slot 4 the rejoined target's second incarnation.
	cols := make([]map[int64]int, nTargets+1)
	for i := range cols {
		cols[i] = make(map[int64]int)
	}
	srcs := make([]*Source, len(spec.Sources))
	var sawEvict bool
	var oldConsumed, resumedFrom uint64
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(evictAt)
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, deadIdx); err != nil {
			t.Errorf("evict: %v", err)
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
			srcs[si] = src
			base := int64(si * perSource)
			for i := int64(0); i < perSource; i++ {
				if err := src.Push(p, mkTuple(base+i, 2*(base+i))); err != nil {
					t.Errorf("source %d push %d: %v", si, i, err)
					return
				}
				p.Sleep(200 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
		})
	}
	for ti := 0; ti < nTargets; ti++ {
		ti := ti
		if ti == deadIdx {
			continue
		}
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			reattachCollect(t, p, tgt, cols[ti])
			if tgt.Evicted() {
				t.Errorf("surviving target %d was evicted", ti)
			}
		})
	}
	e.k.Spawn("tgt-dead", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, deadIdx)
		if err != nil {
			t.Error(err)
			return
		}
		reattachCollect(t, p, tgt, cols[deadIdx])
		sawEvict = tgt.Evicted()
		oldConsumed = tgt.Consumed()
		p.Sleep(rejoinGap) // the outage window the survivors cover
		nt, err := tgt.Reattach(p)
		if err != nil {
			t.Errorf("reattach: %v", err)
			return
		}
		resumedFrom = nt.ResumedFrom()
		reattachCollect(t, p, nt, cols[nTargets])
	})
	e.run(t)

	for si, src := range srcs {
		if src == nil {
			t.Fatalf("source %d never opened", si)
		}
		if src.Epoch() < 2 {
			t.Errorf("source %d folded epoch %d, want >= 2 (eviction + rejoin)", si, src.Epoch())
		}
	}
	if !sawEvict {
		t.Fatal("the evicted target never observed its eviction")
	}
	if oldConsumed == 0 {
		t.Fatal("evicted target consumed nothing before the eviction; eviction came too early")
	}
	if resumedFrom != oldConsumed {
		t.Errorf("ResumedFrom = %d, want the previous incarnation's consumed count %d", resumedFrom, oldConsumed)
	}
	if len(cols[nTargets]) == 0 {
		t.Fatal("rejoined incarnation consumed nothing; sources never reconnected or arcs were not reclaimed")
	}
	var moved, rerouted uint64
	for _, src := range srcs {
		st := src.Stats()
		moved += st.Moved
		rerouted += st.Rerouted
	}
	if moved == 0 {
		t.Error("no tuple was routed to a live owner while the slot was down")
	}
	if rerouted == 0 {
		t.Error("no harvested tuple was re-pushed after the eviction")
	}

	total := make(map[int64]int)
	for _, col := range cols {
		for k, c := range col {
			total[k] += c
		}
	}
	for i := int64(0); i < int64(len(spec.Sources))*perSource; i++ {
		c := total[i]
		if c == 0 {
			t.Fatalf("key %d lost across the eviction/rejoin", i)
		}
		if c > 2 {
			t.Errorf("key %d delivered %d times, want at most twice", i, c)
		}
		if c == 2 && cols[deadIdx][i] == 0 {
			// A duplicate must straddle the eviction boundary: one copy on
			// the dead incarnation, the re-push on a live member. Two
			// copies among live members break exactly-once.
			t.Errorf("key %d duplicated among live members", i)
		}
	}
}

func TestReattachRejectedWhileLive(t *testing.T) {
	// Rejoin fencing: a target that was never evicted cannot re-attach —
	// a duplicate incarnation of a live slot would split its stream.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "reattach-live",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{RetransmitTimeout: 40 * time.Microsecond, LeaseTTL: 10 * time.Millisecond},
	}
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
		for i := int64(0); i < 100; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	got := make(map[int64]int)
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tgt.Reattach(p); err == nil {
			t.Error("live target re-attached; rejoin fencing is broken")
		}
		reattachCollect(t, p, tgt, got)
	})
	e.run(t)
	if len(got) != 100 {
		t.Fatalf("delivered %d keys, want 100 (the rejected rejoins must not disturb the flow)", len(got))
	}
}

// TestTargetReattachNeedsLease: a lease-less private-ring flow records no
// Left state, so a rejoined target could never learn that its sources
// closed while it was away and would wait on them forever. Reattach
// refuses up front, naming LeaseTTL, and the flow the evicted target left
// still completes over the survivors.
func TestTargetReattachNeedsLease(t *testing.T) {
	const n = 2000
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:       "reattach-leaseless",
		Sources:    []Endpoint{{Node: e.c.Node(0)}},
		Targets:    []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:     kvSchema,
		ShuffleKey: 0,
		Options:    Options{SegmentSize: 256, RetransmitTimeout: 20 * time.Microsecond},
	}
	cols := make([]map[int64]int, len(spec.Targets))
	for i := range cols {
		cols[i] = make(map[int64]int)
	}
	var reattachErr error
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(40 * time.Microsecond)
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 1); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < n; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			p.Sleep(100 * time.Nanosecond)
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
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
			reattachCollect(t, p, tgt, cols[ti])
			if ti != 1 {
				return
			}
			if !tgt.Evicted() {
				t.Error("target 1 was not evicted; retune the test timings")
				return
			}
			if _, reattachErr = tgt.Reattach(p); reattachErr == nil {
				t.Error("lease-less Target.Reattach accepted")
			}
		})
	}
	e.run(t)
	if reattachErr == nil || !strings.Contains(reattachErr.Error(), "LeaseTTL") {
		t.Errorf("Reattach error %v, want one naming LeaseTTL", reattachErr)
	}
	total := make(map[int64]int)
	for _, col := range cols {
		for k, c := range col {
			total[k] += c
		}
	}
	for i := int64(0); i < n; i++ {
		if total[i] == 0 {
			t.Fatalf("key %d lost after the refused rejoin", i)
		}
	}
}

// TestTargetSupersededWhileAway: a consumer that spends the whole
// evict → rejoin interval in application code never sees its slot
// evicted — on its next pass the epoch has moved by two and the slot is
// live again, under a successor's incarnation. It must still stop and
// report Evicted(), on every kind, rather than keep scanning rings (or a
// detached group endpoint) beside its successor.
func TestTargetSupersededWhileAway(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  FlowType
		opts Options
	}{
		{"private rings", ShuffleFlow, Options{SegmentSize: 256, RetransmitTimeout: 40 * time.Microsecond, LeaseTTL: 10 * time.Millisecond}},
		{"ordered multicast", ReplicateFlow, Options{SegmentSize: 256, Multicast: true, GlobalOrdering: true, LeaseTTL: 100 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 3)
			e.k.MaxEvents = 5_000_000
			spec := FlowSpec{
				Name:    "superseded",
				Type:    tc.typ,
				Sources: []Endpoint{{Node: e.c.Node(0)}},
				Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
				Schema:  kvSchema,
				Options: tc.opts,
			}
			const n = 3000
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
				for i := int64(0); i < n; i++ {
					if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
						t.Errorf("push %d: %v", i, err)
						return
					}
					p.Sleep(200 * time.Nanosecond)
				}
				if err := src.Close(p); err != nil {
					t.Errorf("close: %v", err)
				}
			})
			e.k.Spawn("tgt0", func(p *sim.Proc) {
				tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				reattachCollect(t, p, tgt, make(map[int64]int))
			})
			var old *Target
			e.k.Spawn("tgt1", func(p *sim.Proc) {
				tgt, err := TargetOpen(p, e.reg, spec.Name, 1)
				if err != nil {
					t.Error(err)
					return
				}
				old = tgt
				for i := 0; i < 20; i++ {
					if _, ok := tgt.Consume(p); !ok {
						t.Errorf("target 1 stopped after %d tuples, before the eviction", i)
						return
					}
				}
				p.Sleep(300 * time.Microsecond) // away: evicted at 100 µs, superseded at 150 µs
				reattachCollect(t, p, tgt, make(map[int64]int))
				if !tgt.Evicted() {
					t.Error("superseded target stopped consuming without reporting Evicted()")
				}
			})
			successorDone := false
			e.k.Spawn("successor", func(p *sim.Proc) {
				p.Sleep(100 * time.Microsecond)
				if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 1); err != nil {
					t.Errorf("evict: %v", err)
					return
				}
				p.Sleep(50 * time.Microsecond)
				if old == nil || old.Evicted() {
					t.Error("target 1 was not away over the eviction; retune the test timings")
					return
				}
				nt, err := old.Reattach(p)
				if err != nil {
					t.Errorf("rejoin: %v", err)
					return
				}
				reattachCollect(t, p, nt, make(map[int64]int))
				successorDone = nt.Done()
			})
			e.run(t)
			if !successorDone {
				t.Error("the successor did not reach flow end")
			}
		})
	}
}
