package core

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/sim"
)

func TestElasticFlowAttachAndSeal(t *testing.T) {
	// A flow starts with one source; two more attach while it runs; after
	// sealing and all closes, the target ends with every tuple delivered.
	e := newEnv(t, 5)
	spec := FlowSpec{
		Name:    "elastic",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(4)}},
		Schema:  kvSchema,
		Options: Options{MaxSources: 4},
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
		src.Close(p)
	}
	e.k.Spawn("initial-src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, "elastic", 0)
		if err != nil {
			t.Error(err)
			return
		}
		push(p, src, 0)
	})
	for j := 1; j <= 2; j++ {
		j := j
		e.k.Spawn(fmt.Sprintf("late-src%d", j), func(p *sim.Proc) {
			p.Sleep(time.Duration(j) * 50 * time.Microsecond) // join mid-flow
			src, err := AttachSource(p, e.reg, "elastic", Endpoint{Node: e.c.Node(j)})
			if err != nil {
				t.Error(err)
				return
			}
			push(p, src, int64(j)*perSource)
		})
	}
	e.k.Spawn("sealer", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond) // after both attaches
		if n, err := Attached(p, e.reg, "elastic"); err != nil || n != 3 {
			t.Errorf("attached = %d, %v", n, err)
		}
		if err := Seal(p, e.reg, "elastic"); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, "elastic", 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				return
			}
			got[kvSchema.Int64(tup, 0)] = true
		}
	})
	e.run(t)
	if len(got) != 3*perSource {
		t.Fatalf("delivered %d unique tuples, want %d", len(got), 3*perSource)
	}
}

func TestElasticFlowValidation(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Spawn("p", func(p *sim.Proc) {
		// Multicast + elastic is rejected.
		bad := FlowSpec{
			Name: "bad", Type: ReplicateFlow,
			Sources: []Endpoint{{Node: e.c.Node(0)}},
			Targets: []Endpoint{{Node: e.c.Node(1)}},
			Schema:  kvSchema,
			Options: Options{MaxSources: 2, Multicast: true},
		}
		if err := FlowInit(p, e.reg, e.c, bad); err == nil {
			t.Error("elastic multicast accepted")
		}
		// MaxSources below initial count is rejected.
		bad2 := FlowSpec{
			Name:    "bad2",
			Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(0), Thread: 1}},
			Targets: []Endpoint{{Node: e.c.Node(1)}},
			Schema:  kvSchema,
			Options: Options{MaxSources: 1},
		}
		if err := FlowInit(p, e.reg, e.c, bad2); err == nil {
			t.Error("MaxSources < initial sources accepted")
		}
		// Zero initial sources is allowed for elastic flows.
		ok := FlowSpec{
			Name:    "zero-src",
			Targets: []Endpoint{{Node: e.c.Node(1)}},
			Schema:  kvSchema,
			Options: Options{MaxSources: 2},
		}
		if err := FlowInit(p, e.reg, e.c, ok); err != nil {
			t.Errorf("zero-source elastic flow rejected: %v", err)
		}
		// Attaching to a non-elastic flow fails.
		plain := FlowSpec{
			Name:    "plain",
			Sources: []Endpoint{{Node: e.c.Node(0)}},
			Targets: []Endpoint{{Node: e.c.Node(1)}},
			Schema:  kvSchema,
		}
		if err := FlowInit(p, e.reg, e.c, plain); err != nil {
			t.Error(err)
		}
		if _, err := AttachSource(p, e.reg, "plain", Endpoint{Node: e.c.Node(0)}); err == nil {
			t.Error("AttachSource on non-elastic flow accepted")
		}
	})
	// The zero-src and plain flows never run; drop their unmatched target
	// opens by not spawning targets (registry entries are inert).
	e.run(t)
}

func TestElasticAttachLimits(t *testing.T) {
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:    "limits",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{MaxSources: 2},
	}
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "limits", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
		}
	})
	e.k.Spawn("driver", func(p *sim.Proc) {
		s0, err := SourceOpen(p, e.reg, "limits", 0)
		if err != nil {
			t.Error(err)
			return
		}
		s1, err := AttachSource(p, e.reg, "limits", Endpoint{Node: e.c.Node(1)})
		if err != nil {
			t.Errorf("second attach failed: %v", err)
			return
		}
		if _, err := AttachSource(p, e.reg, "limits", Endpoint{Node: e.c.Node(1)}); err == nil {
			t.Error("attach beyond MaxSources accepted")
		}
		_ = s0.Push(p, mkTuple(1, 1))
		_ = s1.Push(p, mkTuple(2, 2))
		s0.Close(p)
		s1.Close(p)
		if err := Seal(p, e.reg, "limits"); err != nil {
			t.Error(err)
		}
		if _, err := AttachSource(p, e.reg, "limits", Endpoint{Node: e.c.Node(1)}); err == nil {
			t.Error("attach after seal accepted")
		}
	})
	e.run(t)
}

func TestElasticFlowZeroSourcesEndsAfterSeal(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "empty-elastic",
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{MaxSources: 2},
	}
	var consumed uint64
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, "empty-elastic", 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, ok := tgt.Consume(p); !ok {
				consumed = tgt.Consumed()
				return
			}
		}
	})
	e.k.Spawn("sealer", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		_ = Seal(p, e.reg, "empty-elastic")
	})
	e.run(t)
	if consumed != 0 {
		t.Fatalf("consumed %d from an empty flow", consumed)
	}
}
