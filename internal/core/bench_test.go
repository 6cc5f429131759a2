package core

import (
	"runtime"
	"testing"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport/sharedring"
)

// BenchmarkCoreDataPath is the core layer of the performance ledger: host
// nanoseconds and allocations per tuple for every push API against every
// consume API, on both ring kinds. One 1:1 bandwidth-optimized flow moves
// b.N 16-byte tuples on the DES fabric, payload bytes and all (every
// WRITE stages, commits body then footer), so what is timed is the
// endpoint engine, one 8 KiB segment copy per 512 tuples and the kernel
// events that segment costs. The Push rows run Push's per-tuple path
// (one target, so Home is a mask), the Consume rows Consume's. One loop
// body serves both kinds because one API surface does.
//
//	go test -run '^$' -bench CoreDataPath -benchtime 2000000x ./internal/core/
func BenchmarkCoreDataPath(b *testing.B) {
	for _, kind := range ringKinds {
		for _, push := range []string{"Push", "PushBatch"} {
			for _, consume := range []string{"Consume", "ConsumeBatch", "ConsumeSegment"} {
				kind, push, consume := kind, push, consume
				b.Run(kind.name+"/"+push+"/"+consume, func(b *testing.B) {
					benchDataPath(b, kind.shared, push, consume)
				})
			}
		}
	}
}

func benchDataPath(b *testing.B, shared bool, push, consume string) {
	const batch = 64
	k := sim.New(1)
	c := fabric.NewCluster(k, 2, fabric.DefaultConfig())
	defer sharedring.DropPool(c)
	reg := registry.New(k)
	spec := FlowSpec{
		Name:    "bench",
		Sources: []Endpoint{{Node: c.Node(0)}},
		Targets: []Endpoint{{Node: c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{SharedRings: shared},
	}
	n := b.N
	k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			b.Error(err)
		}
	})
	k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, reg, spec.Name, 0)
		ts := kvSchema.TupleSize()
		buf := make([]byte, batch*ts)
		tuples := make([]schema.Tuple, batch)
		for i := range tuples {
			tuples[i] = buf[i*ts : (i+1)*ts]
		}
		for left := n; left > 0 && err == nil; {
			switch push {
			case "Push":
				err = src.Push(p, tuples[0])
				left--
			case "PushBatch":
				m := min(batch, left)
				err = src.PushBatch(p, tuples[:m])
				left -= m
			}
		}
		if err == nil {
			err = src.Close(p)
		}
		if err != nil {
			b.Error(err)
		}
	})
	k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, reg, spec.Name, 0)
		if err != nil {
			b.Error(err)
			return
		}
		views := make([]schema.Tuple, batch)
		for ok := true; ok; {
			switch consume {
			case "Consume":
				_, ok = tgt.Consume(p)
			case "ConsumeBatch":
				_, ok = tgt.ConsumeBatch(p, views)
			case "ConsumeSegment":
				_, _, ok = tgt.ConsumeSegment(p)
			}
		}
		if got := tgt.Consumed(); got != uint64(n) {
			b.Errorf("consumed %d of %d tuples", got, n)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n), "allocs/tuple")
}
