package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
)

// TestPropertyShuffleExactDelivery is the central protocol invariant:
// for arbitrary ring geometries, tuple counts, consumer pacing and
// topology, a shuffle flow delivers every pushed tuple exactly once with
// intact contents, and FLOW_END is observed by every target.
func TestPropertyShuffleExactDelivery(t *testing.T) {
	type params struct {
		Sources     uint8
		Targets     uint8
		SegsPerRing uint8
		SegTuples   uint8
		PerSource   uint16
		ConsumerLag uint8 // microseconds of sleep every 16 tuples
		LatencyMode bool
	}
	prop := func(ps params) bool {
		nSrc := int(ps.Sources%3) + 1
		nTgt := int(ps.Targets%3) + 1
		segs := int(ps.SegsPerRing%15) + 2
		segSize := (int(ps.SegTuples%8) + 1) * kvSchema.TupleSize()
		perSource := int(ps.PerSource%700) + 1
		lag := time.Duration(ps.ConsumerLag%5) * time.Microsecond

		k := sim.New(99)
		k.Deadline = 30 * time.Second
		k.MaxEvents = 20_000_000
		c := fabric.NewCluster(k, nSrc+nTgt, fabric.DefaultConfig())
		reg := newTestRegistry(k)

		spec := FlowSpec{
			Name:   "prop",
			Schema: kvSchema,
			Options: Options{
				SegmentsPerRing: segs,
				SegmentSize:     segSize,
			},
		}
		if ps.LatencyMode {
			spec.Options.Optimization = OptimizeLatency
			spec.Options.SegmentSize = 0 // default to tuple size
		}
		for i := 0; i < nSrc; i++ {
			spec.Sources = append(spec.Sources, Endpoint{Node: c.Node(i)})
		}
		for i := 0; i < nTgt; i++ {
			spec.Targets = append(spec.Targets, Endpoint{Node: c.Node(nSrc + i)})
		}

		got := make(map[int64]int64)
		dup := false
		k.Spawn("init", func(p *sim.Proc) {
			if err := FlowInit(p, reg, c, spec); err != nil {
				panic(err)
			}
		})
		for si := 0; si < nSrc; si++ {
			si := si
			k.Spawn(fmt.Sprintf("s%d", si), func(p *sim.Proc) {
				src, err := SourceOpen(p, reg, "prop", si)
				if err != nil {
					panic(err)
				}
				for i := 0; i < perSource; i++ {
					key := int64(si*perSource + i)
					if err := src.Push(p, mkTuple(key, key*3+1)); err != nil {
						panic(err)
					}
				}
				src.Close(p)
			})
		}
		for ti := 0; ti < nTgt; ti++ {
			ti := ti
			k.Spawn(fmt.Sprintf("t%d", ti), func(p *sim.Proc) {
				tgt, err := TargetOpen(p, reg, "prop", ti)
				if err != nil {
					panic(err)
				}
				n := 0
				for {
					tup, ok := tgt.Consume(p)
					if !ok {
						return
					}
					key := kvSchema.Int64(tup, 0)
					if _, seen := got[key]; seen {
						dup = true
					}
					got[key] = kvSchema.Int64(tup, 1)
					n++
					if lag > 0 && n%16 == 0 {
						p.Sleep(lag)
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Logf("params %+v: %v", ps, err)
			return false
		}
		if dup || len(got) != nSrc*perSource {
			t.Logf("params %+v: got %d unique of %d, dup=%v", ps, len(got), nSrc*perSource, dup)
			return false
		}
		for key, v := range got {
			if v != key*3+1 {
				t.Logf("params %+v: key %d corrupted: %d", ps, key, v)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOrderedReplicateAgreement: for arbitrary loss rates, source
// counts and segment sizes, every target of a globally ordered replicate
// flow consumes the identical complete sequence.
func TestPropertyOrderedReplicateAgreement(t *testing.T) {
	type params struct {
		Sources   uint8
		Targets   uint8
		PerSource uint16
		LossPct   uint8
		SegTuples uint8
	}
	prop := func(ps params) bool {
		nSrc := int(ps.Sources%2) + 1
		nTgt := int(ps.Targets%3) + 1
		perSource := int(ps.PerSource%300) + 1
		loss := float64(ps.LossPct%6) / 100
		segSize := (int(ps.SegTuples%4) + 1) * kvSchema.TupleSize()

		k := sim.New(7)
		k.Deadline = 30 * time.Second
		k.MaxEvents = 20_000_000
		fcfg := fabric.DefaultConfig()
		fcfg.MulticastLoss = loss
		c := fabric.NewCluster(k, nSrc+nTgt, fcfg)
		reg := newTestRegistry(k)

		spec := FlowSpec{
			Name:   "prop-ord",
			Type:   ReplicateFlow,
			Schema: kvSchema,
			Options: Options{
				Multicast:      true,
				GlobalOrdering: true,
				SegmentSize:    segSize,
				GapTimeout:     10 * time.Microsecond,
			},
		}
		for i := 0; i < nSrc; i++ {
			spec.Sources = append(spec.Sources, Endpoint{Node: c.Node(i)})
		}
		for i := 0; i < nTgt; i++ {
			spec.Targets = append(spec.Targets, Endpoint{Node: c.Node(nSrc + i)})
		}

		orders := make([][]int64, nTgt)
		k.Spawn("init", func(p *sim.Proc) {
			if err := FlowInit(p, reg, c, spec); err != nil {
				panic(err)
			}
		})
		for si := 0; si < nSrc; si++ {
			si := si
			k.Spawn(fmt.Sprintf("s%d", si), func(p *sim.Proc) {
				src, err := SourceOpen(p, reg, "prop-ord", si)
				if err != nil {
					panic(err)
				}
				for i := 0; i < perSource; i++ {
					if err := src.Push(p, mkTuple(int64(si*perSource+i), 0)); err != nil {
						panic(err)
					}
				}
				src.Close(p)
			})
		}
		for ti := 0; ti < nTgt; ti++ {
			ti := ti
			k.Spawn(fmt.Sprintf("t%d", ti), func(p *sim.Proc) {
				tgt, err := TargetOpen(p, reg, "prop-ord", ti)
				if err != nil {
					panic(err)
				}
				for {
					tup, ok := tgt.Consume(p)
					if !ok {
						return
					}
					orders[ti] = append(orders[ti], kvSchema.Int64(tup, 0))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Logf("params %+v: %v", ps, err)
			return false
		}
		for ti := 0; ti < nTgt; ti++ {
			if len(orders[ti]) != nSrc*perSource {
				t.Logf("params %+v: target %d got %d of %d", ps, ti, len(orders[ti]), nSrc*perSource)
				return false
			}
			for i := range orders[0] {
				if orders[ti][i] != orders[0][i] {
					t.Logf("params %+v: order diverges", ps)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
