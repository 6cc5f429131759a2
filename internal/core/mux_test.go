package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dfi/internal/registry"
	"dfi/internal/sim"
	"dfi/internal/transport/sharedring"
)

// Shared-ring flow tests (Options.SharedRings): the endpoint engine over
// the shared ring kind of mux.go and the pool in transport/sharedring.
// The O(1000)-flow sweep lives in chaos_scale_test.go; these cover the
// basic semantics one flow at a time.

func sharedSpec(e *env, name string, srcNodes, tgtNodes []int, opt Options) FlowSpec {
	opt.SharedRings = true
	spec := FlowSpec{Name: name, Schema: kvSchema, Options: opt}
	for _, n := range srcNodes {
		spec.Sources = append(spec.Sources, Endpoint{Node: e.c.Node(n)})
	}
	for _, n := range tgtNodes {
		spec.Targets = append(spec.Targets, Endpoint{Node: e.c.Node(n)})
	}
	return spec
}

func TestSharedRingsShuffle(t *testing.T) {
	// Many-to-many shuffle over shared rings: same delivery contract as
	// the private-ring path (every key exactly once, correct bytes).
	e := newEnv(t, 4)
	spec := sharedSpec(e, "shared-nm", []int{0, 1}, []int{2, 3}, Options{SegmentSize: 256})
	const n = 2000
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, 2*n)
}

func TestSharedRingsManyFlowsOneNodePair(t *testing.T) {
	// Several flows between one node pair multiplex over ONE shared ring:
	// all deliver fully, the pool holds a single link for the pair, and
	// credit accounting conserves across the co-resident streams.
	e := newEnv(t, 2)
	const flows, n = 6, 500
	results := make([]map[int64]int64, flows)
	specs := make([]FlowSpec, flows)
	for f := 0; f < flows; f++ {
		specs[f] = sharedSpec(e, fmt.Sprintf("shared-f%d", f), []int{0}, []int{1}, Options{
			SegmentSize:  128,
			Tenant:       fmt.Sprintf("tenant%d", f%3),
			TenantWeight: 1 + f%3,
		})
	}
	e.k.Spawn("init", func(p *sim.Proc) {
		for f := range specs {
			if err := FlowInit(p, e.reg, e.c, specs[f]); err != nil {
				t.Error(err)
			}
		}
	})
	for f := 0; f < flows; f++ {
		f := f
		results[f] = make(map[int64]int64)
		e.k.Spawn(fmt.Sprintf("src%d", f), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, specs[f].Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				key := int64(f*n + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Error(err)
			}
		})
		e.k.Spawn(fmt.Sprintf("tgt%d", f), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, specs[f].Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				results[f][kvSchema.Int64(tup, 0)] = kvSchema.Int64(tup, 1)
			}
			if st := tgt.Stats(); !st.Done {
				t.Errorf("flow %d: target stopped before flow end", f)
			}
		})
	}
	e.run(t)
	for f := 0; f < flows; f++ {
		if len(results[f]) != n {
			t.Errorf("flow %d delivered %d tuples, want %d", f, len(results[f]), n)
		}
		for k, v := range results[f] {
			if v != 2*k {
				t.Errorf("flow %d: key %d has value %d, want %d", f, k, v, 2*k)
			}
		}
	}
	pool := sharedring.PoolOf(e.c, sharedring.Config{})
	links := pool.Links()
	if len(links) != 1 {
		t.Fatalf("pool holds %d links for one node pair, want 1", len(links))
	}
	if err := links[0].CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRingsEvictionReroute(t *testing.T) {
	// Administrative eviction of one target mid-burst: the source folds
	// the epoch in, re-routes its *staged* tuples over the survivor, and
	// completes cleanly. The in-flight shared-ring window is lost by
	// design (at-most-once across eviction), but the loss is bounded by
	// the ring geometry and nothing is ever duplicated.
	e := newEnv(t, 3)
	spec := sharedSpec(e, "shared-evict", []int{0}, []int{1, 2}, Options{
		SegmentSize: 128,
		LeaseTTL:    300 * time.Microsecond,
	})
	const n = 6000
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	var srcStats SourceStats
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			key := int64(i)
			if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			p.Sleep(100 * time.Nanosecond)
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		srcStats = src.Stats()
	})
	e.k.Spawn("chaos", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond)
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 1); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	results := make([]map[int64]int64, 2)
	for ti := 0; ti < 2; ti++ {
		ti := ti
		results[ti] = make(map[int64]int64)
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
				results[ti][kvSchema.Int64(tup, 0)] = kvSchema.Int64(tup, 1)
			}
			if ti == 0 {
				if st := tgt.Stats(); !st.Done {
					t.Error("survivor target stopped before flow end")
				}
			}
		})
	}
	e.run(t)
	seen := make(map[int64]bool)
	for ti, m := range results {
		for k, v := range m {
			if v != 2*k {
				t.Errorf("target %d: key %d has value %d, want %d", ti, k, v, 2*k)
			}
			if seen[k] {
				t.Errorf("key %d delivered twice across targets", k)
			}
			seen[k] = true
		}
	}
	// Loss bound: only segments in flight on the shared ring at eviction
	// time can vanish — at most Slots committed plus StagingCap staged at
	// the receiver (pool defaults), plus the segment being loaded, each
	// carrying SegmentSize/tupleSize tuples.
	cfg := sharedring.PoolOf(e.c, sharedring.Config{}).Config()
	perSeg := spec.Options.SegmentSize / kvSchema.TupleSize()
	bound := (cfg.Slots + cfg.StagingCap + 1) * perSeg
	if len(seen) < n-bound {
		t.Fatalf("delivered %d of %d tuples; lost more than the in-flight bound %d", len(seen), n, bound)
	}
	if len(results[0]) == 0 {
		t.Fatal("survivor target received nothing")
	}
	if srcStats.Rerouted == 0 && srcStats.Moved == 0 {
		t.Error("source recorded no rerouted or moved tuples despite mid-burst eviction")
	}
}

func TestSharedRingsLeaseAgentKeepsFlowsAlive(t *testing.T) {
	// Flows spanning many lease intervals stay alive on the batched
	// per-node renewals (no spurious expiry eviction), the registry sees
	// batched round trips, and the agent self-terminates (the kernel run
	// ending at all proves no immortal ticker is left).
	e := newEnv(t, 2)
	const flows, n = 4, 800
	specs := make([]FlowSpec, flows)
	for f := 0; f < flows; f++ {
		specs[f] = sharedSpec(e, fmt.Sprintf("leased-f%d", f), []int{0}, []int{1}, Options{
			SegmentSize: 128,
			LeaseTTL:    150 * time.Microsecond,
		})
	}
	delivered := make([]int, flows)
	e.k.Spawn("init", func(p *sim.Proc) {
		for f := range specs {
			if err := FlowInit(p, e.reg, e.c, specs[f]); err != nil {
				t.Error(err)
			}
		}
	})
	for f := 0; f < flows; f++ {
		f := f
		e.k.Spawn(fmt.Sprintf("src%d", f), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, specs[f].Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if err := src.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
					t.Errorf("flow %d push: %v", f, err)
					return
				}
				// Stretch the flow across many lease ticks.
				p.Sleep(500 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil {
				t.Errorf("flow %d close: %v", f, err)
			}
		})
		e.k.Spawn(fmt.Sprintf("tgt%d", f), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, specs[f].Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok := tgt.Consume(p); !ok {
					break
				}
				delivered[f]++
			}
			if st := tgt.Stats(); !st.Done {
				t.Errorf("flow %d: target evicted or stalled instead of reaching flow end", f)
			}
		})
	}
	e.run(t)
	for f := 0; f < flows; f++ {
		if delivered[f] != n {
			t.Errorf("flow %d delivered %d tuples, want %d", f, delivered[f], n)
		}
	}
	if e.reg.LeaseRenewRPCs() == 0 {
		t.Fatal("no batched lease-renewal RPCs recorded despite LeaseTTL flows")
	}
}

func TestSharedRingsAdmission(t *testing.T) {
	// normalize rejects what genuinely needs a private ring per pair, and
	// tenant attribution requires shared mode. Combiner flows run on the
	// common engine and are admitted.
	base := func() FlowSpec {
		return FlowSpec{
			Name:    "adm",
			Sources: []Endpoint{{}},
			Targets: []Endpoint{{}},
			Schema:  kvSchema,
		}
	}
	cases := []struct {
		name string
		mut  func(*FlowSpec)
		ok   bool
	}{
		{name: "tenant without shared", mut: func(s *FlowSpec) { s.Options.Tenant = "x" }},
		{name: "weight without shared", mut: func(s *FlowSpec) { s.Options.TenantWeight = 2 }},
		{name: "latency mode", mut: func(s *FlowSpec) { s.Options.SharedRings = true; s.Options.Optimization = OptimizeLatency }},
		{name: "multicast", mut: func(s *FlowSpec) {
			s.Options.SharedRings = true
			s.Type = ReplicateFlow
			s.Options.Multicast = true
		}},
		{name: "elastic", mut: func(s *FlowSpec) { s.Options.SharedRings = true; s.Options.MaxSources = 2 }},
		{name: "retransmit window", mut: func(s *FlowSpec) { s.Options.SharedRings = true; s.Options.RetransmitTimeout = time.Millisecond }},
		{name: "negative weight", mut: func(s *FlowSpec) { s.Options.SharedRings = true; s.Options.TenantWeight = -1 }},
		{name: "combiner", ok: true, mut: func(s *FlowSpec) {
			s.Options.SharedRings = true
			s.Type = CombinerFlow
			s.ShuffleKey = 0
		}},
	}
	for _, tc := range cases {
		spec := base()
		tc.mut(&spec)
		if err := spec.normalize(); (err == nil) != tc.ok {
			t.Errorf("%s: normalize returned %v, want admitted=%v", tc.name, err, tc.ok)
		}
	}
	// The happy path defaults tenant attribution.
	spec := base()
	spec.Options.SharedRings = true
	if err := spec.normalize(); err != nil {
		t.Fatalf("valid shared spec rejected: %v", err)
	}
	if spec.Options.Tenant != "default" || spec.Options.TenantWeight != 1 {
		t.Fatalf("tenant defaults = %q/%d, want default/1", spec.Options.Tenant, spec.Options.TenantWeight)
	}
}

func TestSharedRingsUnsupportedOps(t *testing.T) {
	// Target.Reattach has no meaning without a per-flow retransmit
	// window; it must fail fast with the typed sentinel.
	e := newEnv(t, 2)
	spec := sharedSpec(e, "shared-unsup", []int{0}, []int{1}, Options{SegmentSize: 256})
	const n = 100
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
	})
	got := 0
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tgt.Reattach(p); !errors.Is(err, ErrUnsupportedOnShared) {
			t.Errorf("Target.Reattach error %v, want ErrUnsupportedOnShared", err)
		}
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
			got++
		}
	})
	e.run(t)
	if got != n {
		t.Fatalf("delivered %d tuples, want %d", got, n)
	}
}

func TestSharedRingsEvictedSourceTagDropped(t *testing.T) {
	// A source that goes silent without closing keeps its slot while its
	// lease is renewed — three TTLs of silence are not a failure. Evicted,
	// it is reported failed and its tag is dropped, and the epoch fence
	// refuses the zombie's later flood, so nothing of it piles up in
	// staging and a co-resident flow on the same node-pair ring keeps
	// making progress.
	const ttl, evictAt = 100 * time.Microsecond, 300 * time.Microsecond
	e := newEnv(t, 2)
	victim := sharedSpec(e, "shared-silent", []int{0, 0}, []int{1}, Options{
		SegmentSize: 128,
		LeaseTTL:    ttl,
	})
	neighbor := sharedSpec(e, "shared-neighbor", []int{0}, []int{1}, Options{SegmentSize: 128})
	const n = 400
	cfg := sharedring.PoolOf(e.c, sharedring.Config{}).Config()
	flood := 2 * (cfg.Slots + cfg.StagingCap) * victim.Options.SegmentSize / kvSchema.TupleSize()
	e.k.Spawn("init", func(p *sim.Proc) {
		for _, spec := range []FlowSpec{victim, neighbor} {
			if err := FlowInit(p, e.reg, e.c, spec); err != nil {
				t.Error(err)
			}
		}
	})
	push := func(p *sim.Proc, src *Source, key int64) {
		if err := src.Push(p, mkTuple(key, 0)); err != nil {
			t.Errorf("%s push: %v", src.spec.Name, err)
		}
	}
	e.k.Spawn("healthy", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, victim.Name, 0)
		for i := 0; i < n; i++ {
			push(p, src, int64(i))
		}
		if err := src.Close(p); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(evictAt)
		if err := e.reg.Evict(p, victim.Name, registry.RoleSource, 1); err != nil {
			t.Error(err)
		}
	})
	var failed []int
	var floodErr error
	var victimEnd time.Duration
	victimDone, floodDone := false, false
	e.k.Spawn("zombie", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, victim.Name, 1)
		for i := 0; i < 10; i++ {
			push(p, src, int64(n+i))
		}
		_ = src.Flush(p)
		for !victimDone { // silent until the target has let go of it
			p.Sleep(10 * time.Microsecond)
		}
		for i := 0; i < flood && floodErr == nil; i++ { // nobody drains this tag anymore
			floodErr = src.Push(p, mkTuple(int64(2*n+i), 0))
		}
		_ = src.Close(p)
		floodDone = true
	})
	got := 0
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, victim.Name, 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
			got++
		}
		failed = tgt.FailedSources()
		if !tgt.Done() {
			t.Error("target did not reach flow end after the silent source's eviction")
		}
		victimEnd = p.Now()
		victimDone = true
	})
	neighborPushed, neighborGot := 0, 0
	e.k.Spawn("neighbor-src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, neighbor.Name, 0)
		for !floodDone { // spans the silence and the flood
			push(p, src, int64(neighborPushed))
			neighborPushed++
			p.Sleep(time.Microsecond)
		}
		if err := src.Close(p); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("neighbor-tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, neighbor.Name, 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
			neighborGot++
		}
	})
	e.run(t)
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed sources = %v, want [1]", failed)
	}
	if got != n+10 {
		t.Errorf("victim flow delivered %d tuples, want the healthy source's %d plus the zombie's flushed 10", got, n)
	}
	if victimEnd < evictAt {
		t.Errorf("victim flow ended at %v, before the eviction at %v: a silent but leased source was let go", victimEnd, evictAt)
	}
	if !errors.Is(floodErr, ErrFlowBroken) {
		t.Errorf("evicted zombie's flood: %v, want ErrFlowBroken (epoch fence)", floodErr)
	}
	if neighborGot != neighborPushed || neighborGot == 0 {
		t.Errorf("co-resident flow delivered %d of %d tuples", neighborGot, neighborPushed)
	}
}
