package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// Chaos suite: every flow type must deliver its full, correct tuple stream
// under injected WRITE loss and jittered delay (recovering by
// retransmission), and must terminate with explicit errors — never hang or
// panic — when a node crashes mid-flow.

// chaosPlan is the acceptance fault mix: ≥1% WRITE loss plus jittered
// delivery delay (which also reorders unordered lanes).
func chaosPlan() *fabric.FaultPlan {
	return &fabric.FaultPlan{
		DropWrite:   0.02,
		Delay:       time.Microsecond,
		DelayJitter: 3 * time.Microsecond,
	}
}

// withFaults installs a fault plan into the cluster config under test.
func withFaults(fp *fabric.FaultPlan) func(*fabric.Config) {
	return func(cfg *fabric.Config) { cfg.Faults = fp }
}

func TestChaosShuffleBandwidthWriteLoss(t *testing.T) {
	// The recorder proves faults actually fired (a chaos test that saw no
	// faults proves nothing).
	rec := transport.NewRecorder(0)
	e := newEnv(t, 4, withFaults(chaosPlan()))
	e.c.SetTracer(rec)
	spec := FlowSpec{
		Name:    "chaos-shuffle",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       512,
			SegmentsPerRing:   8,
			RetransmitTimeout: 50 * time.Microsecond,
		},
	}
	const n = 2000
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, 2*n)
	if rec.Dropped() == 0 {
		t.Fatal("no operations were dropped; the chaos plan did not engage")
	}
}

func TestChaosShuffleLatencyWriteLoss(t *testing.T) {
	// Latency mode loses both data WRITEs and credit READs; recovery rides
	// on the credit-stall detection plus the delivery certificate at Close.
	e := newEnv(t, 3, withFaults(&fabric.FaultPlan{
		DropWrite:   0.02,
		DropRead:    0.02,
		Delay:       time.Microsecond,
		DelayJitter: 2 * time.Microsecond,
	}))
	spec := FlowSpec{
		Name:    "chaos-lat",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{
			Optimization:      OptimizeLatency,
			SegmentsPerRing:   8,
			RetransmitTimeout: 50 * time.Microsecond,
		},
	}
	const n = 500
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, n)
}

func TestChaosReplicateRingWriteLoss(t *testing.T) {
	// Naive (ring-transport) replicate: every target must still receive the
	// full stream in push order despite lost segment WRITEs.
	e := newEnv(t, 4, withFaults(chaosPlan()))
	spec := FlowSpec{
		Name:    "chaos-rep",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       512,
			SegmentsPerRing:   8,
			RetransmitTimeout: 50 * time.Microsecond,
		},
	}
	const n = 1500
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

func TestChaosMulticastReplicateSendLoss(t *testing.T) {
	// Multicast replicate: UD multicast deliveries drop per member; NACK
	// retransmission over the reliable QPs recovers them.
	e := newEnv(t, 4, withFaults(&fabric.FaultPlan{
		DropSend:    0.05,
		Delay:       time.Microsecond,
		DelayJitter: 2 * time.Microsecond,
	}))
	spec := FlowSpec{
		Name:    "chaos-mc",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, SegmentSize: 512},
	}
	const n = 1500
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

func TestChaosOrderedMulticastSendLoss(t *testing.T) {
	// Globally ordered multicast under loss and jitter: all targets must
	// agree on one complete global sequence.
	e := newEnv(t, 5, withFaults(&fabric.FaultPlan{
		DropSend:    0.03,
		Delay:       time.Microsecond,
		DelayJitter: 2 * time.Microsecond,
	}))
	spec := FlowSpec{
		Name:    "chaos-omc",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, GlobalOrdering: true, SegmentSize: 512},
	}
	const n = 800
	orders, stats := runReplicateStats(t, e, spec, n)
	skipped := make([]uint64, len(stats))
	for ti, ord := range orders {
		if len(ord) != 2*n {
			t.Fatalf("target %d got %d tuples, want %d", ti, len(ord), 2*n)
		}
		skipped[ti] = stats[ti].McGapsSkipped
	}
	survivorsAgree(t, orders, skipped, []int{0, 1, 2})
}

func TestChaosCombinerWriteLoss(t *testing.T) {
	// Combiner flow under WRITE loss: exact aggregates, no double counting
	// (a retransmitted segment applied twice would corrupt the sums).
	e := newEnv(t, 3, withFaults(chaosPlan()))
	spec := FlowSpec{
		Name:    "chaos-comb",
		Type:    CombinerFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{
			Aggregation:       AggSum,
			GroupCol:          0,
			ValueCol:          1,
			SegmentSize:       512,
			SegmentsPerRing:   8,
			RetransmitTimeout: 50 * time.Microsecond,
		},
	}
	const n = 1200
	const groups = 8
	var results []AggResult
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
				if err := src.Push(p, mkTuple(int64(i%groups), int64(si*n+i))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
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
	want := make(map[uint64]int64)
	for si := 0; si < 2; si++ {
		for i := 0; i < n; i++ {
			want[uint64(i%groups)] += int64(si*n + i)
		}
	}
	if len(results) != groups {
		t.Fatalf("%d groups, want %d", len(results), groups)
	}
	for _, r := range results {
		if r.Value != want[r.Key] {
			t.Fatalf("group %d: sum %d, want %d", r.Key, r.Value, want[r.Key])
		}
	}
}

func TestChaosShuffleSourceNodeCrash(t *testing.T) {
	// Whole-node crash of one source, injected at the fabric level. The
	// crashed source's own Push/Close surfaces ErrFlowBroken (its verbs go
	// silent); its lease lapses, the registry evicts it, and the target
	// closes the dead ring, reports the slot, and finishes with the
	// surviving source's full stream.
	plan := (&fabric.FaultPlan{}).CrashNode(1, 400*time.Microsecond)
	e := newEnv(t, 3, withFaults(plan))
	spec := FlowSpec{
		Name:    "crash-src",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			LeaseTTL:          100 * time.Microsecond,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	const perSource = 2000
	got := make(map[int64]int64)
	var failed []int
	var crashedErr error
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
			for i := 0; i < perSource; i++ {
				key := int64(si*perSource + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					if si != 1 {
						t.Errorf("healthy source %d push failed: %v", si, err)
					}
					crashedErr = err
					return
				}
				p.Sleep(time.Microsecond)
			}
			if err := src.Close(p); err != nil {
				if si != 1 {
					t.Errorf("healthy source %d close failed: %v", si, err)
				}
				crashedErr = err
			}
		})
	}
	e.k.Spawn("tgt", func(p *sim.Proc) {
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
			got[kvSchema.Int64(tup, 0)] = kvSchema.Int64(tup, 1)
		}
		failed = tgt.FailedSources()
	})
	e.run(t)
	if crashedErr == nil {
		t.Fatal("crashed source reported no error")
	}
	if !errors.Is(crashedErr, ErrFlowBroken) {
		t.Fatalf("crashed source error %v, want ErrFlowBroken", crashedErr)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed sources %v, want [1]", failed)
	}
	for i := 0; i < perSource; i++ {
		if v, ok := got[int64(i)]; !ok || v != int64(2*i) {
			t.Fatalf("healthy source tuple %d missing or corrupt", i)
		}
	}
	for k, v := range got {
		if v != 2*k {
			t.Fatalf("corrupt tuple delivered: key %d value %d", k, v)
		}
	}
}

func TestChaosShuffleTargetNodeCrash(t *testing.T) {
	// Whole-node crash of one target on a lease-less flow: the source's
	// writer to it must fail with ErrFlowBroken instead of hanging (its
	// retransmission budget runs out); the crashed target's consumer stops
	// on its own node's crash; the healthy target still terminates. (With
	// a lease the source re-routes around the evicted target instead — see
	// TestLifecycleShuffleTargetEviction.)
	plan := (&fabric.FaultPlan{}).CrashNode(2, 300*time.Microsecond)
	e := newEnv(t, 3, withFaults(plan))
	spec := FlowSpec{
		Name:    "crash-tgt",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	const n = 3000
	var srcErr error
	healthyDone := false
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
			key := int64(i)
			if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
				srcErr = err
				break
			}
			p.Sleep(500 * time.Nanosecond)
		}
		// Close still delivers end-of-flow to the surviving target and
		// re-reports the broken one.
		if err := src.Close(p); err != nil && srcErr == nil {
			srcErr = err
		}
	})
	for ti := 0; ti < 2; ti++ {
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
			if ti == 0 {
				healthyDone = true
			}
		})
	}
	e.run(t)
	if srcErr == nil {
		t.Fatal("source reported no error despite crashed target")
	}
	if !errors.Is(srcErr, ErrFlowBroken) {
		t.Fatalf("source error %v, want ErrFlowBroken", srcErr)
	}
	if !healthyDone {
		t.Fatal("healthy target did not reach flow end")
	}
}

// TestChaosOrderedSequencerNodeCrash crashes the node that hosts an
// ordered replicate flow's sequencer and its first target (dfiflow -type
// replicate -ordered -mb 1 -faults crash=2@100us -retransmit 40us, with
// a third target). Both sources lose the sequencer and break; they still
// end their streams at the surviving targets, which agree on what they
// delivered, and the target on the crashed node stops, so the run ends —
// within four times the events of the same run without the crash —
// instead of polling until MaxEvents.
func TestChaosOrderedSequencerNodeCrash(t *testing.T) {
	const perSource = 1 << 16 // 1 MiB of 16-byte tuples
	run := func(plan *fabric.FaultPlan, maxEvents uint64) (*env, [2]error, [][]int64, []uint64, error) {
		e := newEnv(t, 5, withFaults(plan))
		if maxEvents > 0 {
			e.k.MaxEvents = maxEvents
		}
		spec := FlowSpec{
			Name:    "seq-crash",
			Type:    ReplicateFlow,
			Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
			Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}},
			Schema:  kvSchema,
			Options: Options{
				Multicast:         true,
				GlobalOrdering:    true,
				RetransmitTimeout: 40 * time.Microsecond,
			},
		}
		var errs [2]error
		orders := make([][]int64, len(spec.Targets))
		skipped := make([]uint64, len(spec.Targets))
		e.k.Spawn("init", func(p *sim.Proc) {
			if err := FlowInit(p, e.reg, e.c, spec); err != nil {
				t.Error(err)
			}
		})
		for si := range spec.Sources {
			e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
				src, err := SourceOpen(p, e.reg, spec.Name, si)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < perSource && errs[si] == nil; i++ {
					key := int64(si*perSource + i)
					errs[si] = src.Push(p, mkTuple(key, 2*key))
				}
				if err := src.Close(p); errs[si] == nil {
					errs[si] = err
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
				skipped[ti] = tgt.Stats().McGapsSkipped
			})
		}
		return e, errs, orders, skipped, e.k.Run()
	}
	clean, errs, orders, _, err := run(nil, 0)
	if err != nil || errs != [2]error{} || len(orders[1]) != 2*perSource {
		t.Fatalf("clean run: %v, sources %v, survivor consumed %d", err, errs, len(orders[1]))
	}
	budget := 4 * clean.k.Events()
	_, errs, orders, skipped, err := run((&fabric.FaultPlan{}).CrashNode(2, 100*time.Microsecond), budget)
	if err != nil {
		t.Fatalf("crash run did not end within %d events: %v", budget, err)
	}
	for si, err := range errs {
		if !errors.Is(err, ErrFlowBroken) {
			t.Errorf("source %d: %v, want ErrFlowBroken", si, err)
		}
	}
	// The survivors delivered what was sequenced, each source's tuples in
	// push order, and the same sequence.
	if len(orders[1]) == 0 {
		t.Fatal("surviving target consumed nothing")
	}
	last := [2]int64{-1, perSource - 1}
	for _, k := range orders[1] {
		si := k / perSource
		if k <= last[si] {
			t.Fatalf("surviving target: source %d out of order (%d after %d)", si, k, last[si])
		}
		last[si] = k
	}
	survivorsAgree(t, orders, skipped, []int{1, 2})
}

func TestChaosWriterAckNeverPassesConsumption(t *testing.T) {
	// Regression for the footer-probe/sequence race: under delay, jitter,
	// reordering, duplication, and loss, the writer's acked watermark must
	// never overtake what the target actually released — otherwise the
	// writer would overwrite an unconsumed slot.
	e := newEnv(t, 2, withFaults(&fabric.FaultPlan{
		DropWrite:   0.06,
		Delay:       time.Microsecond,
		DelayJitter: 4 * time.Microsecond,
		Reorder:     0.3,
		Duplicate:   0.1,
	}))
	spec := FlowSpec{
		Name:    "ack-race",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   4,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	const n = 1500
	var w *ringWriter
	var rd *ringReader
	done := false
	got := make(map[int64]int64)
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
		w = src.legs[0].tx.(*ringWriter)
		for i := 0; i < n; i++ {
			key := int64(i)
			if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
				t.Error(err)
				break
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		done = true
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		rd = tgt.readers[0]
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				return
			}
			got[kvSchema.Int64(tup, 0)] = kvSchema.Int64(tup, 1)
		}
	})
	e.k.Spawn("monitor", func(p *sim.Proc) {
		for !done {
			if w != nil && rd != nil && w.acked > rd.consumed.Load() {
				t.Fatalf("acked %d passed target consumption %d at %v", w.acked, rd.consumed.Load(), p.Now())
			}
			p.Sleep(500 * time.Nanosecond)
		}
	})
	e.run(t)
	if len(got) != n {
		t.Fatalf("delivered %d tuples, want %d", len(got), n)
	}
	for k, v := range got {
		if v != 2*k {
			t.Fatalf("key %d corrupt value %d", k, v)
		}
	}
	if w.Retransmits.Load() == 0 {
		t.Error("no retransmissions occurred; loss recovery was not exercised")
	}
}

func TestChaosElasticAttachUnderFaults(t *testing.T) {
	// Sources attach to a *running* elastic flow while WRITE loss and
	// jitter are active: retransmission must recover the late joiners'
	// streams exactly like the initial source's, and the sealed flow ends
	// with every tuple delivered exactly once.
	rec := transport.NewRecorder(0)
	e := newEnv(t, 4, withFaults(&fabric.FaultPlan{
		DropWrite:   0.05,
		Delay:       time.Microsecond,
		DelayJitter: 3 * time.Microsecond,
	}))
	e.c.SetTracer(rec)
	spec := FlowSpec{
		Name:    "chaos-elastic",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			MaxSources:        3,
			SegmentSize:       512,
			SegmentsPerRing:   8,
			RetransmitTimeout: 50 * time.Microsecond,
		},
	}
	const perSource = 1500
	got := make(map[int64]bool)
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	push := func(p *sim.Proc, src *Source, base int64) {
		for i := int64(0); i < perSource; i++ {
			if err := src.Push(p, mkTuple(base+i, 0)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	e.k.Spawn("initial-src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		push(p, src, 0)
	})
	for j := 1; j <= 2; j++ {
		j := j
		e.k.Spawn(fmt.Sprintf("late-src%d", j), func(p *sim.Proc) {
			p.Sleep(time.Duration(j) * 40 * time.Microsecond)
			src, err := AttachSource(p, e.reg, spec.Name, Endpoint{Node: e.c.Node(j)})
			if err != nil {
				t.Error(err)
				return
			}
			push(p, src, int64(j)*perSource)
		})
	}
	e.k.Spawn("sealer", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond)
		if err := Seal(p, e.reg, spec.Name); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				return
			}
			k := kvSchema.Int64(tup, 0)
			if got[k] {
				t.Errorf("duplicate tuple %d", k)
			}
			got[k] = true
		}
	})
	e.run(t)
	if len(got) != 3*perSource {
		t.Fatalf("delivered %d unique tuples, want %d", len(got), 3*perSource)
	}
	if rec.Dropped() == 0 {
		t.Fatal("no operations were dropped; the chaos plan did not engage")
	}
}

func TestChaosElasticSealRacesSourceCrash(t *testing.T) {
	// A late-attached source's node crashes right around the Seal. The
	// sealed flow must not hang waiting on the corpse: its lease lapses,
	// the eviction closes its ring, the slot is reported failed, and the
	// initial source's complete stream still arrives exactly once.
	plan := (&fabric.FaultPlan{}).CrashNode(1, 250*time.Microsecond)
	e := newEnv(t, 3, withFaults(plan))
	spec := FlowSpec{
		Name:    "elastic-seal-crash",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{
			MaxSources:        2,
			SegmentSize:       256,
			SegmentsPerRing:   8,
			LeaseTTL:          100 * time.Microsecond,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	const perSource = 1500
	got := make(map[int64]bool)
	var failed []int
	var crashedErr error
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("initial-src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < perSource; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("healthy source push: %v", err)
				return
			}
			p.Sleep(200 * time.Nanosecond)
		}
		if err := src.Close(p); err != nil {
			t.Errorf("healthy source close: %v", err)
		}
	})
	e.k.Spawn("doomed-src", func(p *sim.Proc) {
		p.Sleep(40 * time.Microsecond)
		src, err := AttachSource(p, e.reg, spec.Name, Endpoint{Node: e.c.Node(1)})
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < perSource; i++ {
			if err := src.Push(p, mkTuple(perSource+i, 0)); err != nil {
				crashedErr = err // node crash: verbs go silent
				return
			}
			p.Sleep(200 * time.Nanosecond)
		}
	})
	e.k.Spawn("sealer", func(p *sim.Proc) {
		p.Sleep(250 * time.Microsecond) // the same instant the node dies
		if err := Seal(p, e.reg, spec.Name); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
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
			k := kvSchema.Int64(tup, 0)
			if got[k] {
				t.Errorf("duplicate tuple %d", k)
			}
			got[k] = true
		}
		failed = tgt.FailedSources()
	})
	e.run(t)
	if crashedErr == nil {
		t.Fatal("crashed source reported no error")
	}
	if !errors.Is(crashedErr, ErrFlowBroken) {
		t.Fatalf("crashed source error %v, want ErrFlowBroken", crashedErr)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed sources %v, want [1]", failed)
	}
	for i := int64(0); i < perSource; i++ {
		if !got[i] {
			t.Fatalf("healthy source tuple %d missing", i)
		}
	}
}

func TestPushWithoutRoutingReturnsError(t *testing.T) {
	// A flow declared with ShuffleKey -1 and no RoutingFunc is PushTo-only;
	// Push must return a descriptive error, not panic in routeIndex.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:       "pushto-only",
		Sources:    []Endpoint{{Node: e.c.Node(0)}},
		Targets:    []Endpoint{{Node: e.c.Node(1)}},
		Schema:     kvSchema,
		ShuffleKey: -1,
	}
	var count int
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
		if err := src.Push(p, mkTuple(1, 2)); err == nil {
			t.Error("Push on a PushTo-only flow did not return an error")
		}
		if err := src.PushTo(p, mkTuple(1, 2), 0); err != nil {
			t.Errorf("PushTo: %v", err)
		}
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
			count++
		}
	})
	e.run(t)
	if count != 1 {
		t.Fatalf("delivered %d tuples, want 1", count)
	}
}
