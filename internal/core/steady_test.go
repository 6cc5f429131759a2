package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// wideSchema is a 64-byte tuple: the key Push routes by, a per-run tuple
// id, and padding.
var wideSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "id", Type: schema.Int64},
	schema.Column{Name: "pad", Type: schema.Char(48)},
)

// steadyRun is what one run of the seeded 2-source → 4-target flow leaves
// behind: every target's consumed bytes in consumption order, the
// sources' counters, and where the kernel ended up.
type steadyRun struct {
	streams [][]byte
	src     []SourceStats
	general []uint64
	events  uint64
	end     time.Duration
}

// runSteady pushes perSource seeded 64 B tuples from each of two sources
// to four targets with Push and drains them with Consume. general forces
// Push's general path by declaring the route as a RoutingFunc — the same
// table's Home of the same key, so every tuple goes where the key-routed
// run sends it. With evictAt > 0, source 0 evicts target 1 after that
// many pushes (the flow then runs under leases, so writers keep the
// window a harvest re-pushes).
func runSteady(t *testing.T, general bool, perSource, evictAt int) steadyRun {
	t.Helper()
	const nSrc, nTgt, victim = 2, 4, 1
	k := sim.New(testSeed())
	k.Deadline = 30 * time.Second
	c := fabric.NewCluster(k, nSrc+nTgt, fabric.DefaultConfig())
	reg := registry.New(k)
	spec := FlowSpec{Name: "steady", Schema: wideSchema}
	if evictAt > 0 {
		spec.Options.LeaseTTL = 100 * time.Microsecond
	}
	for i := 0; i < nSrc; i++ {
		spec.Sources = append(spec.Sources, Endpoint{Node: c.Node(i)})
	}
	for i := 0; i < nTgt; i++ {
		spec.Targets = append(spec.Targets, Endpoint{Node: c.Node(nSrc + i)})
	}
	if general {
		tbl := spec.table()
		spec.Routing = func(tup schema.Tuple) int { return tbl.Home(wideSchema.KeyUint64(tup, 0)) }
	}
	run := steadyRun{
		streams: make([][]byte, nTgt),
		src:     make([]SourceStats, nSrc),
		general: make([]uint64, nSrc),
	}
	k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < nSrc; si++ {
		si := si
		k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(testSeed() + int64(si)*7919))
			tup := wideSchema.NewTuple()
			for i := 0; i < perSource && err == nil; i++ {
				if si == 0 && i == evictAt && evictAt > 0 {
					err = reg.Evict(p, spec.Name, registry.RoleTarget, victim)
				}
				wideSchema.PutInt64(tup, 0, rng.Int63())
				wideSchema.PutInt64(tup, 1, int64(si*perSource+i))
				if err == nil {
					err = src.Push(p, tup)
				}
			}
			if err == nil {
				err = src.Close(p)
			}
			if err != nil {
				t.Errorf("source %d: %v", si, err)
			}
			run.src[si], run.general[si] = src.Stats(), src.general
		})
	}
	for ti := 0; ti < nTgt; ti++ {
		ti := ti
		k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				run.streams[ti] = append(run.streams[ti], tup...)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	run.events, run.end = k.Events(), k.Now()
	return run
}

// TestPushSteadyMatchesGeneral is the differential check of Push's
// per-tuple path against the general path it stands in for: the same
// workload, run once each way, must leave the same bytes at every
// target, ship the same segments with the same footer probes, and cost
// the kernel the same events up to the same final instant. With a target
// evicted while its segment is half filled the two runs re-route the
// harvest differently (by key here, by folding the declared slot
// there), so they must agree on what was delivered, not on where.
func TestPushSteadyMatchesGeneral(t *testing.T) {
	const perSource = 20_000
	steady, general := runSteady(t, false, perSource, 0), runSteady(t, true, perSource, 0)
	if t.Failed() {
		t.FailNow()
	}
	delivered := 0
	for ti := range steady.streams {
		if !bytes.Equal(steady.streams[ti], general.streams[ti]) {
			t.Errorf("target %d: consumed byte streams differ (%d B steady, %d B general)",
				ti, len(steady.streams[ti]), len(general.streams[ti]))
		}
		delivered += len(steady.streams[ti]) / wideSchema.TupleSize()
	}
	if delivered != 2*perSource {
		t.Errorf("delivered %d tuples, want %d", delivered, 2*perSource)
	}
	for si := range steady.src {
		s, g := steady.src[si], general.src[si]
		if s.TuplesPushed != perSource || s != g {
			t.Errorf("source %d stats differ:\n steady  %v\n general %v", si, s, g)
		}
		if general.general[si] != perSource {
			t.Errorf("source %d: the RoutingFunc run took the general path %d times of %d", si, general.general[si], perSource)
		}
		if steady.general[si] >= perSource/10 {
			t.Errorf("source %d: the key-routed run took the general path %d times of %d", si, steady.general[si], perSource)
		}
	}
	if steady.events != general.events || steady.end != general.end {
		t.Errorf("kernel diverged: steady %d events to %v, general %d events to %v",
			steady.events, steady.end, general.events, general.end)
	}

	// Mid-segment eviction: 1000 pushes leave every leg of source 0 with
	// a partly filled segment.
	steady, general = runSteady(t, false, perSource, 1000), runSteady(t, true, perSource, 1000)
	if t.Failed() {
		t.FailNow()
	}
	ids := func(r steadyRun) []int64 {
		var out []int64
		for _, s := range r.streams {
			for off := 0; off < len(s); off += wideSchema.TupleSize() {
				out = append(out, wideSchema.Int64(schema.Tuple(s[off:]), 1))
			}
		}
		slices.Sort(out)
		return out
	}
	si, gi := ids(steady), ids(general)
	if len(si) < 2*perSource {
		t.Errorf("eviction leg delivered %d tuples, want at least %d", len(si), 2*perSource)
	}
	if !slices.Equal(si, gi) {
		t.Errorf("eviction leg: delivered multisets differ (%d tuples on the steady path, %d on the general path)", len(si), len(gi))
	}
	for s := range steady.src {
		if steady.src[s].Rerouted != general.src[s].Rerouted {
			t.Errorf("source %d re-pushed %d harvested tuples on the steady path, %d on the general path",
				s, steady.src[s].Rerouted, general.src[s].Rerouted)
		}
	}
}

// TestSteadyPushShape is the deterministic gate on the per-tuple path
// being the one that runs: on a fault-free flow Push may enter its
// general path only to ship a segment, to charge a batch of tuple costs,
// or to fold an epoch change in. A later edit that silently disables the
// steady path fails this count rather than a timing.
func TestSteadyPushShape(t *testing.T) {
	const perSource = 500_000 // two sources: 1 M tuples
	run := runSteady(t, false, perSource, 0)
	for si, st := range run.src {
		bound := st.SegmentsWritten + perSource/chargeBatch // no epoch changes: the flow holds no leases
		t.Logf("source %d: %d general-path entries for %d tuples (%d segments + %d charge batches)",
			si, run.general[si], st.TuplesPushed, st.SegmentsWritten, perSource/chargeBatch)
		if run.general[si] > bound {
			t.Errorf("source %d: %d general-path entries exceed %d segments + %d charge batches",
				si, run.general[si], st.SegmentsWritten, perSource/chargeBatch)
		}
	}
}
