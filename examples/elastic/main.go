// Elastic flow example: the paper's future-work item "elasticity of
// flows to add/remove nodes at runtime" (§7), implemented as an
// extension. A shuffle flow starts with one producer; two more join
// mid-flight, one leaves, and one's node crashes: its lease lapses, and
// the flow membership evicts it.
//
//	go run ./examples/elastic
package main

import (
	"fmt"
	"log"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

func main() {
	k := sim.New(3)
	cfg := fabric.DefaultConfig()
	cfg.Faults = &fabric.FaultPlan{} // producer 2 schedules its node's crash here
	cluster := fabric.NewCluster(k, 5, cfg)
	reg := registry.New(k)

	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "producer", Type: schema.Int64},
	)
	spec := core.FlowSpec{
		Name:    "elastic-demo",
		Sources: []core.Endpoint{{Node: cluster.Node(0)}},
		Targets: []core.Endpoint{{Node: cluster.Node(4)}},
		Schema:  sch,
		Options: core.Options{
			MaxSources: 4, // elastic: up to four sources over the flow's life
			LeaseTTL:   100 * time.Microsecond,
		},
	}
	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, cluster, spec); err != nil {
			log.Fatal(err)
		}
	})

	produce := func(p *sim.Proc, src *core.Source, id int64, n int, crash bool) {
		tup := sch.NewTuple()
		for i := 0; i < n; i++ {
			sch.PutInt64(tup, 0, int64(i))
			sch.PutInt64(tup, 1, id)
			if err := src.Push(p, tup); err != nil {
				log.Fatal(err)
			}
		}
		if crash {
			src.Flush(p)
			cfg.Faults.CrashNode(int(id), p.Now()) // producer id runs on node id
			fmt.Printf("t=%v  producer %d's node CRASHES before it closes\n", p.Now(), id)
			return
		}
		src.Close(p)
		fmt.Printf("t=%v  producer %d closed\n", p.Now(), id)
	}

	k.Spawn("producer-0", func(p *sim.Proc) {
		src, err := core.SourceOpen(p, reg, "elastic-demo", 0)
		if err != nil {
			log.Fatal(err)
		}
		produce(p, src, 0, 800, false)
	})
	k.Spawn("producer-1", func(p *sim.Proc) {
		p.Sleep(20 * time.Microsecond)
		src, err := core.AttachSource(p, reg, "elastic-demo", core.Endpoint{Node: cluster.Node(1)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%v  producer 1 attached at runtime\n", p.Now())
		produce(p, src, 1, 800, false)
	})
	k.Spawn("producer-2", func(p *sim.Proc) {
		p.Sleep(40 * time.Microsecond)
		src, err := core.AttachSource(p, reg, "elastic-demo", core.Endpoint{Node: cluster.Node(2)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%v  producer 2 attached at runtime (will crash)\n", p.Now())
		produce(p, src, 2, 200, true)
	})
	k.Spawn("sealer", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond)
		if err := core.Seal(p, reg, "elastic-demo"); err != nil {
			log.Fatal(err)
		}
		n, _ := core.Attached(p, reg, "elastic-demo")
		fmt.Printf("t=%v  flow sealed with %d attached producers\n", p.Now(), n)
	})

	k.Spawn("consumer", func(p *sim.Proc) {
		tgt, err := core.TargetOpen(p, reg, "elastic-demo", 0)
		if err != nil {
			log.Fatal(err)
		}
		perProducer := map[int64]int{}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			perProducer[sch.Int64(tup, 1)]++
		}
		fmt.Printf("t=%v  flow ended; tuples per producer: %v\n", p.Now(), perProducer)
		fmt.Printf("        producers evicted: %v\n", tgt.FailedSources())
	})

	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
}
