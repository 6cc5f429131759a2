package core

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
)

// TestLeasedPrivateFleetSlowIsNotFailed is the leased private-ring fleet
// of benchmark/README.md's former "Known limitation": 256 flows, each
// with its own ring pair, under a 30µs lease. A lease defaults the
// recovery timeout to TTL/2 = 15µs, and in a fleet this dense a segment
// waits far longer than MaxRetransmits × 15µs to be consumed — while
// every target stays healthy, heartbeating and draining its ring in
// turn. A healthy-but-slow target is not a failed one: every tuple
// arrives and every Close returns nil. (Before the fix every tuple still
// arrived, and Close failed on dozens of sources with "1 segments
// unconfirmed after 8 recovery rounds".)
func TestLeasedPrivateFleetSlowIsNotFailed(t *testing.T) {
	const flows, perFlow, initers = 256, 1000, 16
	k := sim.New(testSeed())
	k.Deadline = time.Minute
	c := fabric.NewCluster(k, 4, fabric.DefaultConfig())
	reg := registry.NewSharded(k, 4)

	specs := make([]FlowSpec, flows)
	for f := range specs {
		specs[f] = FlowSpec{
			Name:    fmt.Sprintf("fleet-f%d", f),
			Schema:  kvSchema,
			Sources: []Endpoint{{Node: c.Node(f % 2)}},
			Targets: []Endpoint{{Node: c.Node(2 + f%2)}},
			Options: Options{SegmentSize: 256, LeaseTTL: 30 * time.Microsecond},
		}
	}
	for w := 0; w < initers; w++ {
		w := w
		k.Spawn(fmt.Sprintf("init%d", w), func(p *sim.Proc) {
			for f := w; f < flows; f += initers {
				if err := FlowInit(p, reg, c, specs[f]); err != nil {
					t.Errorf("init flow %d: %v", f, err)
				}
			}
		})
	}
	// Every endpoint opens before any source pushes, as a fleet started
	// together would: the whole fleet then contends for the four nodes.
	gate := sim.NewBarrier(k, 2*flows)
	consumed := make([]int, flows)
	for f := 0; f < flows; f++ {
		f := f
		k.Spawn(fmt.Sprintf("src%d", f), func(p *sim.Proc) {
			src, err := SourceOpen(p, reg, specs[f].Name, 0)
			if err != nil {
				t.Errorf("flow %d source open: %v", f, err)
				return
			}
			gate.Await(p)
			for i := 0; i < perFlow; i++ {
				if err := src.Push(p, mkTuple(int64(i), int64(f))); err != nil {
					t.Errorf("flow %d push %d: %v", f, i, err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Errorf("flow %d close: %v", f, err)
			}
		})
		k.Spawn(fmt.Sprintf("tgt%d", f), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, reg, specs[f].Name, 0)
			if err != nil {
				t.Errorf("flow %d target open: %v", f, err)
				return
			}
			gate.Await(p)
			for {
				if _, ok := tgt.Consume(p); !ok {
					break
				}
				consumed[f]++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for f, n := range consumed {
		if n != perFlow {
			t.Errorf("flow %d delivered %d tuples, want %d", f, n, perFlow)
		}
	}
}
