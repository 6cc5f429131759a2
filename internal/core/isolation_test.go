package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
)

// ringRun is what one ring flow leaves behind. Every field is a pure
// function of the flow's own virtual timeline.
type ringRun struct {
	Consumed         int
	KeySum           int64
	SrcDone, TgtDone sim.Time
	Segments         uint64
	Payload          uint64
}

// spawnRing builds a two-node cluster and its own registry on k and spawns
// one source→target flow of `tuples` tuples over it, on shared rings when
// shared is set. The flow's results land in out when k runs.
func spawnRing(t *testing.T, k *sim.Kernel, name string, shared bool, tuples int, out *ringRun) {
	c := fabric.NewCluster(k, 2, fabric.DefaultConfig())
	reg := registry.New(k)
	spec := FlowSpec{
		Name:    name,
		Sources: []Endpoint{{Node: c.Node(0)}},
		Targets: []Endpoint{{Node: c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{SharedRings: shared},
	}
	k.Spawn(name+"-init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			t.Errorf("%s: init: %v", name, err)
		}
	})
	k.Spawn(name+"-src", func(p *sim.Proc) {
		src, err := SourceOpen(p, reg, name, 0)
		if err != nil {
			t.Errorf("%s: source open: %v", name, err)
			return
		}
		for i := 0; i < tuples; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
		}
		src.Close(p)
		out.SrcDone = p.Now()
		st := src.Stats()
		out.Segments, out.Payload = st.SegmentsWritten, st.PayloadBytes
	})
	k.Spawn(name+"-tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, reg, name, 0)
		if err != nil {
			t.Errorf("%s: target open: %v", name, err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			out.Consumed++
			out.KeySum += kvSchema.Int64(tup, 0)
		}
		out.TgtDone = p.Now()
	})
}

// TestIndependentClustersStayIndependent runs six one-flow two-node
// clusters, alternately on private and on shared rings, twice: all on one
// kernel, then each on its own kernel, the six kernels on six goroutines
// at once. Clusters that share no node share no virtual time, so every
// flow's results must come out identical. Under -race the second half also
// checks that kernels share no package-level state: the shared-ring pool
// of each cluster, the fabric's freelists, the registries.
func TestIndependentClustersStayIndependent(t *testing.T) {
	const rings, tuples = 6, 3000
	newKernel := func() *sim.Kernel {
		k := sim.New(12345)
		k.Deadline = 30 * time.Second
		k.MaxEvents = 50_000_000
		return k
	}
	name := func(r int) string { return fmt.Sprintf("ring%d", r) }

	together := make([]ringRun, rings)
	k := newKernel()
	for r := range together {
		spawnRing(t, k, name(r), r%2 == 1, tuples, &together[r])
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := int64(tuples) * int64(tuples-1) / 2
	for r, got := range together {
		if got.Consumed != tuples || got.KeySum != want {
			t.Fatalf("%s consumed %d tuples with key sum %d, want %d and %d", name(r), got.Consumed, got.KeySum, tuples, want)
		}
	}

	apart := make([]ringRun, rings)
	errs := make([]error, rings)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range apart {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			k := newKernel()
			spawnRing(t, k, name(r), r%2 == 1, tuples, &apart[r])
			errs[r] = k.Run()
		}()
	}
	close(start)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s on its own kernel: %v", name(r), err)
		}
	}
	if !reflect.DeepEqual(together, apart) {
		t.Fatalf("flows diverge between one kernel and one kernel each:\n together: %+v\n apart:    %+v", together, apart)
	}
}
