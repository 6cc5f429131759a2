// Replication example: a globally ordered multicast replicate flow with
// injected packet loss. Two source threads replicate a stream to three
// targets; DFI's tuple sequencer plus target-side reordering (paper §5.4,
// Figure 6) guarantee every target consumes the SAME global order even
// though the transport drops packets. The example checks that every
// replica holds the same order of all the pushed operations and exits 1
// when one does not.
//
//	go run ./examples/replication
package main

import (
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

func main() {
	k := sim.New(42)
	cfg := fabric.DefaultConfig()
	cfg.MulticastLoss = 0.05 // 5% of multicast deliveries dropped
	cluster := fabric.NewCluster(k, 5, cfg)
	reg := registry.New(k)

	sch := schema.MustNew(
		schema.Column{Name: "op", Type: schema.Int64},
		schema.Column{Name: "origin", Type: schema.Int64},
	)
	const perSource = 50

	spec := core.FlowSpec{
		Name: "replicated-log",
		Type: core.ReplicateFlow,
		Sources: []core.Endpoint{
			{Node: cluster.Node(0)}, {Node: cluster.Node(1)},
		},
		Targets: []core.Endpoint{
			{Node: cluster.Node(2)}, {Node: cluster.Node(3)}, {Node: cluster.Node(4)},
		},
		Schema: sch,
		Options: core.Options{
			Optimization:   core.OptimizeLatency,
			Multicast:      true,
			GlobalOrdering: true,
			GapTimeout:     10 * time.Microsecond,
		},
	}
	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, cluster, spec); err != nil {
			log.Fatal(err)
		}
	})

	for si := 0; si < 2; si++ {
		si := si
		k.Spawn(fmt.Sprintf("source%d", si), func(p *sim.Proc) {
			src, err := core.SourceOpen(p, reg, "replicated-log", si)
			if err != nil {
				log.Fatal(err)
			}
			tup := sch.NewTuple()
			for i := int64(0); i < perSource; i++ {
				sch.PutInt64(tup, 0, int64(si)*perSource+i)
				sch.PutInt64(tup, 1, int64(si))
				if err := src.Push(p, tup); err != nil {
					log.Fatal(err)
				}
			}
			src.Close(p)
		})
	}

	orders := make([][]int64, 3)
	for ti := 0; ti < 3; ti++ {
		ti := ti
		k.Spawn(fmt.Sprintf("replica%d", ti), func(p *sim.Proc) {
			tgt, err := core.TargetOpen(p, reg, "replicated-log", ti)
			if err != nil {
				log.Fatal(err)
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				orders[ti] = append(orders[ti], sch.Int64(tup, 0))
			}
		})
	}

	if err := k.Run(); err != nil {
		log.Fatal(err)
	}

	// No source fails, so loss is recovered, never skipped: every replica
	// must hold all the pushed operations, in one order.
	counts := make([]int, len(orders))
	ok := true
	for ti, order := range orders {
		counts[ti] = len(order)
		ok = ok && len(order) == 2*perSource && slices.Equal(order, orders[0])
	}
	fmt.Printf("replicas consumed %v operations despite 5%% multicast loss (pushed %d)\n", counts, 2*perSource)
	fmt.Printf("identical global order on all replicas: %v\n", ok)
	if !ok {
		os.Exit(1)
	}
	fmt.Printf("first ten operations on every replica: %v\n", orders[0][:10])
}
