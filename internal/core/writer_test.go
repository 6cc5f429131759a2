package core

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/schema"
	"dfi/internal/sim"
)

// TestDeepBacklogExactDelivery is the regression test for the stale
// footer-probe bug: with many sources fanning into few consumption-bound
// targets, the source NICs accumulate deep write backlogs, and a footer
// probe on the fast control lane can overtake the very write it probes.
// Without the footer sequence check the probe then reads the previous
// lap's cleared footer, falsely reclaims unconsumed slots, and segments
// get overwritten (lost tuples) — or the ring state desynchronizes into a
// livelock. Short rings and slow consumers make every source stall on
// full rings and miss probes; the test asserts that it did.
func TestDeepBacklogExactDelivery(t *testing.T) {
	e := newEnv(t, 5)
	spec := FlowSpec{
		Name:    "backlog",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Targets: []Endpoint{{Node: e.c.Node(4), Thread: 0}, {Node: e.c.Node(4), Thread: 1}},
		Schema:  kvSchema,
		Options: Options{SegmentsPerRing: 4},
	}
	// Consumption costs tupleCost in total per tuple, the flow's own
	// consumeCost included, so the targets fall behind.
	const perSource, tupleCost = 30_000, 120 * time.Nanosecond
	got := make(map[int64]bool)
	dups := 0
	stats := make([]SourceStats, 4)
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
			stats[si] = src.Stats()
		})
	}
	ts := kvSchema.TupleSize()
	for ti := 0; ti < 2; ti++ {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, "backlog", ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				data, n, ok := tgt.ConsumeSegment(p)
				if !ok {
					return
				}
				e.c.Node(4).Compute(p, time.Duration(n)*(tupleCost-consumeCost))
				for i := 0; i < n; i++ {
					k := kvSchema.Int64(data[i*ts:(i+1)*ts], 0)
					if got[k] {
						dups++
					}
					got[k] = true
				}
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
	for si, st := range stats {
		if st.StallRemote == 0 || st.ProbeMisses == 0 {
			t.Errorf("source %d never reached the backlog: StallRemote=%v ProbeMisses=%d", si, st.StallRemote, st.ProbeMisses)
		}
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
		probes = src.Stats().FooterProbes
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

// TestLatencyModeCreditBound verifies that latency-optimized writers
// stay under the ring budget: written minus the target's consumed counter
// never exceeds the ring size, and the writer's own window (written −
// acked, the one flow-control count of both modes) never does either.
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
	var tgt *Target
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "credit", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
			for _, l := range src.legs {
				w := l.tx.(*ringWriter)
				if out := w.written - w.acked; out > 8 {
					t.Errorf("window %d exceeds the 8-segment ring", out)
				}
				if tgt != nil && w.written-tgt.readers[0].consumed.Load() > 8 {
					t.Errorf("written %d, consumed %d: a slot was overwritten before it was consumed",
						w.written, tgt.readers[0].consumed.Load())
				}
			}
		}
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ = TargetOpen(p, e.reg, "credit", 0)
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

// TestLatencyCloseConfirmsWithoutWaitingOutTimeout pins what a latency
// flow with RetransmitTimeout pays for a certified Close on a healthy
// fabric: round trips on the ring header's consumed counter, not a
// timeout. The confirm wait used to post a probe in bandwidth mode only,
// so a latency flow — every leased one, LeaseTTL defaults the timeout to
// TTL/2 — slept out one full RetransmitTimeout in every Close before
// recovery's resync read the counter for it.
func TestLatencyCloseConfirmsWithoutWaitingOutTimeout(t *testing.T) {
	run := func(timeout time.Duration) (end time.Duration, retransmits int) {
		e := newEnv(t, 4)
		spec := FlowSpec{
			Name:    "confirm",
			Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
			Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
			Schema:  kvSchema,
			Options: Options{Optimization: OptimizeLatency, RetransmitTimeout: timeout},
		}
		const perSource = 500
		consumed := 0
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
					if err := src.Push(p, mkTuple(int64(si*perSource+i), 0)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := src.Close(p); err != nil {
					t.Error(err)
				}
				end = max(end, p.Now())
				retransmits += src.Stats().Retransmits
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
					if _, ok := tgt.Consume(p); !ok {
						return
					}
					consumed++
				}
			})
		}
		e.run(t)
		if consumed != 2*perSource {
			t.Fatalf("timeout %v: consumed %d of %d", timeout, consumed, 2*perSource)
		}
		return end, retransmits
	}
	plain, _ := run(0)
	confirmed, retransmits := run(time.Millisecond)
	if retransmits != 0 {
		t.Errorf("%d segments retransmitted on a fault-free fabric", retransmits)
	}
	if extra := confirmed - plain; extra < 0 || extra > 10*time.Microsecond {
		t.Errorf("Close with RetransmitTimeout 1ms ended at %v, without at %v: confirming delivery cost %v, want under 10µs",
			confirmed, plain, extra)
	}
}

// TestRefillWaitsForInFlightWrite is the regression test for a writer
// that filled a local segment while the WRITE that last read it was still
// in flight: with one 16 KiB tuple per 16 KiB segment, an 8:8 shuffle
// reuses source slots at wire rate, and the in-flight WRITE delivered the
// refilled bytes — one key twice and one never (19 199 of 19 200 distinct
// keys). The writer now fills a spare segment until the slot's WRITE has
// completed; every key must arrive exactly once.
func TestRefillWaitsForInFlightWrite(t *testing.T) {
	const (
		nodes     = 8
		size      = 16 << 10
		perSource = 2400
	)
	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(size - 8)},
	)
	e := newEnv(t, nodes)
	spec := FlowSpec{Name: "refill", Schema: sch, Options: Options{SegmentSize: size}}
	for i := 0; i < nodes; i++ {
		spec.Sources = append(spec.Sources, Endpoint{Node: e.c.Node(i)})
		spec.Targets = append(spec.Targets, Endpoint{Node: e.c.Node(i)})
	}
	got := make(map[int64]int)
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < nodes; si++ {
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			tup := sch.NewTuple()
			for i := 0; i < perSource; i++ {
				sch.PutInt64(tup, 0, int64(si*perSource+i))
				if err := src.Push(p, tup); err != nil {
					t.Error(err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Error(err)
			}
		})
	}
	for ti := 0; ti < nodes; ti++ {
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				got[sch.Int64(tup, 0)]++
			}
		})
	}
	e.run(t)
	dups := 0
	for _, n := range got {
		dups += n - 1
	}
	if len(got) != nodes*perSource || dups != 0 {
		t.Fatalf("delivered %d distinct keys of %d, %d duplicates", len(got), nodes*perSource, dups)
	}
}
