package core

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// kiloSchema carries 1 KiB tuples (key + padding), matching the larger
// tuple sizes of the paper's bandwidth experiments.
var kiloSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "pad", Type: schema.Char(1016)},
)

// lineSchema carries 64 B tuples, 128 to the default segment.
var lineSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "pad", Type: schema.Char(56)},
)

// runReplicate drives a replicate flow with perSource tuples per source and
// returns, per target, the ordered list of (key) values consumed.
func runReplicate(t *testing.T, e *env, spec FlowSpec, perSource int) [][]int64 {
	t.Helper()
	orders, _ := runReplicateStats(t, e, spec, perSource)
	return orders
}

// runReplicateStats is runReplicate that also returns each target's
// counters at flow end.
func runReplicateStats(t *testing.T, e *env, spec FlowSpec, perSource int) ([][]int64, []TargetStats) {
	t.Helper()
	orders := make([][]int64, len(spec.Targets))
	stats := make([]TargetStats, len(spec.Targets))
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
			for i := 0; i < perSource; i++ {
				key := int64(si*perSource + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					t.Error(err)
					return
				}
			}
			src.Close(p)
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
			stats[ti] = tgt.Stats()
		})
	}
	e.run(t)
	return orders, stats
}

func TestReplicateNaiveDeliversToAllTargets(t *testing.T) {
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:    "rep-naive",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
	}
	const n = 2000
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != n {
			t.Fatalf("target %d got %d tuples, want %d", ti, len(ord), n)
		}
		for i, k := range ord {
			if k != int64(i) {
				t.Fatalf("target %d out of order at %d: %d", ti, i, k)
			}
		}
	}
}

func TestReplicateNaiveLatencyMode(t *testing.T) {
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:    "rep-lat",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{Optimization: OptimizeLatency},
	}
	const n = 200
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != n {
			t.Fatalf("target %d got %d tuples, want %d", ti, len(ord), n)
		}
	}
}

func TestReplicateMulticastNoLoss(t *testing.T) {
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:    "rep-mc",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true},
	}
	const n = 3000
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != n {
			t.Fatalf("target %d got %d tuples, want %d", ti, len(ord), n)
		}
		for i, k := range ord {
			if k != int64(i) {
				t.Fatalf("target %d out of order at %d: got %d", ti, i, k)
			}
		}
	}
}

func TestReplicateMulticastWithLossRecovers(t *testing.T) {
	// 2% injected multicast loss: NACK-based retransmission must still
	// deliver every segment to every target, in per-source order.
	e := newEnv(t, 3, func(c *fabric.Config) { c.MulticastLoss = 0.02 })
	spec := FlowSpec{
		Name:    "rep-lossy",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, SegmentSize: 64, GapTimeout: 10 * time.Microsecond},
	}
	const n = 2000
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != n {
			t.Fatalf("target %d got %d tuples, want %d", ti, len(ord), n)
		}
		for i, k := range ord {
			if k != int64(i) {
				t.Fatalf("target %d out of order at %d: got %d", ti, i, k)
			}
		}
	}
}

func TestReplicateMulticastMultiSource(t *testing.T) {
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:    "rep-ns",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true},
	}
	const n = 1000
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != 2*n {
			t.Fatalf("target %d got %d tuples, want %d", ti, len(ord), 2*n)
		}
		seen := make(map[int64]bool, len(ord))
		for _, k := range ord {
			if seen[k] {
				t.Fatalf("target %d: duplicate key %d", ti, k)
			}
			seen[k] = true
		}
	}
}

func TestOrderedReplicateGlobalOrderAcrossSources(t *testing.T) {
	// Two sources, ordered multicast: every target must observe the SAME
	// global order (the OUM guarantee, paper §5.4 / Figure 6).
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:    "rep-ord",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, GlobalOrdering: true, SegmentSize: 16},
	}
	const n = 500
	orders := runReplicate(t, e, spec, n)
	if len(orders[0]) != 2*n {
		t.Fatalf("target 0 got %d tuples, want %d", len(orders[0]), 2*n)
	}
	if len(orders[0]) != len(orders[1]) {
		t.Fatalf("targets disagree on count: %d vs %d", len(orders[0]), len(orders[1]))
	}
	for i := range orders[0] {
		if orders[0][i] != orders[1][i] {
			t.Fatalf("global order diverges at %d: %d vs %d", i, orders[0][i], orders[1][i])
		}
	}
}

func TestOrderedReplicateWithLossRecovers(t *testing.T) {
	e := newEnv(t, 3, func(c *fabric.Config) { c.MulticastLoss = 0.03 })
	spec := FlowSpec{
		Name:    "ord-lossy",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, GlobalOrdering: true, SegmentSize: 16, GapTimeout: 10 * time.Microsecond},
	}
	const n = 800
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != n {
			t.Fatalf("target %d got %d, want %d", ti, len(ord), n)
		}
	}
	for i := range orders[0] {
		if orders[0][i] != orders[1][i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
}

func TestReplicateMulticastAggregateBandwidthExceedsSenderLink(t *testing.T) {
	// Figure 8b's headline: with switch multicast, aggregate receiver
	// bandwidth beats the sender's link speed.
	e := newEnv(t, 9)
	targets := make([]Endpoint, 8)
	for i := range targets {
		targets[i] = Endpoint{Node: e.c.Node(i + 1)}
	}
	spec := FlowSpec{
		Name:    "rep-bw",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: targets,
		Schema:  kiloSchema,
		Options: Options{Multicast: true},
	}
	const n = 20000
	var finish sim.Time
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "rep-bw", 0)
		tup := make([]byte, kiloSchema.TupleSize())
		for i := 0; i < n; i++ {
			kiloSchema.PutInt64(tup, 0, int64(i))
			_ = src.Push(p, tup)
		}
		src.Close(p)
	})
	for ti := 0; ti < 8; ti++ {
		ti := ti
		e.k.Spawn("tgt", func(p *sim.Proc) {
			tgt, _ := TargetOpen(p, e.reg, "rep-bw", ti)
			for {
				if _, _, ok := tgt.ConsumeSegment(p); !ok {
					break
				}
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	e.run(t)
	bytes := float64(n * kiloSchema.TupleSize() * 8) // delivered to 8 targets
	agg := bytes / finish.Seconds()
	if agg < 2*e.c.Config().LinkBandwidth {
		t.Fatalf("aggregate receive bandwidth %.3e ≤ 2× link speed %.3e", agg, e.c.Config().LinkBandwidth)
	}
}

func TestCombinerFlowAggregations(t *testing.T) {
	for _, agg := range []AggFunc{AggSum, AggCount, AggMin, AggMax} {
		for _, kind := range ringKinds {
			testCombinerAggregation(t, agg, kind.name, kind.shared)
		}
	}
}

func testCombinerAggregation(t *testing.T, agg AggFunc, kind string, shared bool) {
	t.Run(agg.String()+"/"+kind, func(t *testing.T) {
		e := newEnv(t, 3)
		spec := FlowSpec{
			Name:    "comb-" + agg.String(),
			Type:    CombinerFlow,
			Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
			Targets: []Endpoint{{Node: e.c.Node(2)}},
			Schema:  kvSchema,
			Options: Options{Aggregation: agg, GroupCol: 0, ValueCol: 1, SharedRings: shared},
		}
		const n = 900
		const groups = 10
		var results []AggResult
		e.k.Spawn("init", func(p *sim.Proc) {
			if err := FlowInit(p, e.reg, e.c, spec); err != nil {
				t.Error(err)
			}
		})
		for si := 0; si < 2; si++ {
			si := si
			e.k.Spawn("src", func(p *sim.Proc) {
				src, _ := SourceOpen(p, e.reg, spec.Name, si)
				for i := 0; i < n; i++ {
					key := int64(i % groups)
					val := int64(si*n + i)
					_ = src.Push(p, mkTuple(key, val))
				}
				src.Close(p)
			})
		}
		e.k.Spawn("tgt", func(p *sim.Proc) {
			ct, err := CombinerTargetOpen(p, e.reg, spec.Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			ct.Run(p)
			results = ct.Results()
		})
		e.run(t)
		if len(results) != groups {
			t.Fatalf("%d groups, want %d", len(results), groups)
		}
		// Recompute expectations directly.
		want := make(map[uint64]*aggState)
		for si := 0; si < 2; si++ {
			for i := 0; i < n; i++ {
				key := uint64(i % groups)
				val := int64(si*n + i)
				g := want[key]
				if g == nil {
					g = &aggState{}
					want[key] = g
				}
				g.count++
				switch agg {
				case AggSum, AggCount:
					g.value += val
				case AggMin:
					if !g.init || val < g.value {
						g.value = val
					}
				case AggMax:
					if !g.init || val > g.value {
						g.value = val
					}
				}
				g.init = true
			}
		}
		for _, r := range results {
			w := want[r.Key]
			wantVal := w.value
			if agg == AggCount {
				wantVal = w.count
			}
			if r.Value != wantVal || r.Count != w.count {
				t.Fatalf("group %d: got (%d,%d), want (%d,%d)", r.Key, r.Value, r.Count, wantVal, w.count)
			}
		}
	})
}

func TestCombinerTargetOpenRejectsOtherFlowTypes(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "not-comb",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	e.k.Spawn("p", func(p *sim.Proc) {
		_ = FlowInit(p, e.reg, e.c, spec)
		if _, err := CombinerTargetOpen(p, e.reg, "not-comb", 0); err == nil {
			t.Error("CombinerTargetOpen accepted a shuffle flow")
		}
	})
	// The shuffle targetInfo was never published; no sources wait on it.
	e.run(t)
}

func TestMemoryConsumptionMatchesPaperAccounting(t *testing.T) {
	// Paper §6.1.4: with 4 source and 4 target threads per node on 2 nodes
	// (8 sources, 8 targets total), default rings (32 × 8 KiB, source and
	// target side) consume ≈ 16 MiB per node.
	e := newEnv(t, 2)
	var sources, targets []Endpoint
	for n := 0; n < 2; n++ {
		for th := 0; th < 4; th++ {
			sources = append(sources, Endpoint{Node: e.c.Node(n), Thread: th})
			targets = append(targets, Endpoint{Node: e.c.Node(n), Thread: th})
		}
	}
	spec := FlowSpec{Name: "mem", Sources: sources, Targets: targets, Schema: kvSchema}
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	for ti := range targets {
		ti := ti
		e.k.Spawn("tgt", func(p *sim.Proc) {
			tgt, _ := TargetOpen(p, e.reg, "mem", ti)
			for {
				if _, ok := tgt.Consume(p); !ok {
					return
				}
			}
		})
	}
	var perNode [2]int64
	opened := sim.NewBarrier(e.k, len(sources))
	for si := range sources {
		si := si
		e.k.Spawn("src", func(p *sim.Proc) {
			src, _ := SourceOpen(p, e.reg, "mem", si)
			opened.Await(p) // measure only once every source has allocated
			if si == 0 {
				perNode[0] = e.c.Node(0).RegisteredBytes()
				perNode[1] = e.c.Node(1).RegisteredBytes()
			}
			src.Close(p)
		})
	}
	e.run(t)
	// 8 targets × 8 rings + 8 sources × 8 rings per node side...
	// Accounting: each node hosts 4 targets × 8 source-rings (target side)
	// and 4 sources × 8 target-rings (source side) = 64 rings of
	// ≈ 32 × 8 KiB. Expect ≈ 16 MiB within 10% (headers/footers add a bit).
	want := float64(16 << 20)
	for n := 0; n < 2; n++ {
		got := float64(perNode[n])
		if got < 0.9*want || got > 1.15*want {
			t.Fatalf("node %d registered %0.1f MiB, want ≈ 16 MiB", n, got/(1<<20))
		}
	}
}

func TestOrderedReplicateMultiSourceWithLoss(t *testing.T) {
	// Regression: when one source's segments are exhausted while another
	// source still has undelivered (or lost) segments, global progress
	// must not jump ahead and silently drop them.
	e := newEnv(t, 4, func(c *fabric.Config) { c.MulticastLoss = 0.04 })
	spec := FlowSpec{
		Name:    "ord-multi-loss",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, GlobalOrdering: true, SegmentSize: 16, GapTimeout: 10 * time.Microsecond},
	}
	const n = 400
	orders := runReplicate(t, e, spec, n)
	for ti, ord := range orders {
		if len(ord) != 2*n {
			t.Fatalf("target %d got %d tuples, want %d (lost segments dropped?)", ti, len(ord), 2*n)
		}
	}
	for i := range orders[0] {
		if orders[0][i] != orders[1][i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
}
