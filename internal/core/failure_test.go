package core

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
)

func TestSourceFailureDetection(t *testing.T) {
	// One of three sources' node crashes a quarter of the way in, without
	// Close. Its lease lapses, the registry evicts it, and the target
	// reports the slot and still terminates with the healthy sources'
	// data intact.
	plan := &fabric.FaultPlan{}
	e := newEnv(t, 4, withFaults(plan))
	spec := FlowSpec{
		Name:    "failing",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Targets: []Endpoint{{Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{LeaseTTL: 100 * time.Microsecond},
	}
	const perSource = 2000
	got := make(map[int64]bool)
	var failed []int
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 3; si++ {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, "failing", si)
			if err != nil {
				t.Error(err)
				return
			}
			n := perSource
			if si == 1 {
				n = perSource / 4 // crashes a quarter of the way in
			}
			for i := 0; i < n; i++ {
				if err := src.Push(p, mkTuple(int64(si*perSource+i), 0)); err != nil {
					t.Error(err)
					return
				}
			}
			if si == 1 {
				src.Flush(p)
				// Crash once the flushed segments have landed: no Close,
				// no end marker, no more lease renewals.
				plan.CrashNode(1, p.Now()+20*time.Microsecond)
				return
			}
			src.Close(p)
		})
	}
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, "failing", 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				failed = tgt.FailedSources()
				return
			}
			got[kvSchema.Int64(tup, 0)] = true
		}
	})
	e.run(t)
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed sources = %v, want [1]", failed)
	}
	// Healthy sources delivered fully; the crashed one delivered the
	// flushed prefix.
	want := 2*perSource + perSource/4
	if len(got) != want {
		t.Fatalf("delivered %d tuples, want %d", len(got), want)
	}
}

func TestNoFalseFailuresWithSlowButLiveSources(t *testing.T) {
	// A source that pushes slowly — silent for twice its lease TTL
	// between segments — is not declared failed: its lease is renewed
	// whatever its pace, and only a lapsed lease removes it.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "slow-live",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{LeaseTTL: 100 * time.Microsecond},
	}
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "slow-live", 0)
		for i := 0; i < 10; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
			src.Flush(p)
			p.Sleep(200 * time.Microsecond) // slow, but alive
		}
		src.Close(p)
	})
	var failed []int
	count := 0
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "slow-live", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				failed = tgt.FailedSources()
				return
			}
			count++
		}
	})
	e.run(t)
	if len(failed) != 0 {
		t.Fatalf("live source declared failed: %v", failed)
	}
	if count != 10 {
		t.Fatalf("delivered %d of 10", count)
	}
}
