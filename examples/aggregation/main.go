// Aggregation example: a distributed SQL-style GROUP BY executed with a
// combiner flow (aggregation at the target node, paper §4.2.3). The
// example checks the target's per-region sums against what the senders
// pushed and exits 1 on a mismatch.
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"
	"os"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// salesSchema: GROUP BY region, SUM(amount).
var salesSchema = schema.MustNew(
	schema.Column{Name: "region", Type: schema.Int64},
	schema.Column{Name: "amount", Type: schema.Int64},
)

const (
	senders   = 8
	perSender = 60_000
	regions   = 12
)

// pushed is the oracle: per region, the SUM and COUNT of what the
// senders pushed. The senders run as processes of one simulation kernel,
// one at a time, so they share it without a lock.
var pushed [regions]core.AggResult

func pushSales(p *sim.Proc, src *core.Source, seed int64) {
	tup := salesSchema.NewTuple()
	for i := 0; i < perSender; i++ {
		region := (seed + int64(i)) % regions
		amount := int64(i % 97)
		salesSchema.PutInt64(tup, 0, region)
		salesSchema.PutInt64(tup, 1, amount)
		pushed[region].Value += amount
		pushed[region].Count++
		if err := src.Push(p, tup); err != nil {
			log.Fatal(err)
		}
	}
	src.Close(p)
}

func runCombiner() ([]core.AggResult, sim.Time) {
	k := sim.New(1)
	cluster := fabric.NewCluster(k, senders+1, fabric.DefaultConfig())
	reg := registry.New(k)
	var sources []core.Endpoint
	for i := 0; i < senders; i++ {
		sources = append(sources, core.Endpoint{Node: cluster.Node(i)})
	}
	spec := core.FlowSpec{
		Name: "groupby", Type: core.CombinerFlow,
		Sources: sources,
		Targets: []core.Endpoint{{Node: cluster.Node(senders)}},
		Schema:  salesSchema,
		Options: core.Options{Aggregation: core.AggSum, GroupCol: 0, ValueCol: 1},
	}
	var results []core.AggResult
	var end sim.Time
	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, cluster, spec); err != nil {
			log.Fatal(err)
		}
	})
	for i := 0; i < senders; i++ {
		i := i
		k.Spawn(fmt.Sprintf("scan%d", i), func(p *sim.Proc) {
			src, err := core.SourceOpen(p, reg, "groupby", i)
			if err != nil {
				log.Fatal(err)
			}
			pushSales(p, src, int64(i))
		})
	}
	k.Spawn("agg", func(p *sim.Proc) {
		ct, err := core.CombinerTargetOpen(p, reg, "groupby", 0)
		if err != nil {
			log.Fatal(err)
		}
		ct.Run(p)
		results = ct.Results()
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	return results, end
}

func main() {
	results, end := runCombiner()

	fmt.Printf("GROUP BY region, SUM(amount): %d senders × %d tuples, %d regions\n\n", senders, perSender, regions)
	fmt.Printf("%-8s %-14s %-14s\n", "region", "SUM", "expected")
	ok := len(results) == regions
	for i := range pushed {
		pushed[i].Key = uint64(i)
		var got core.AggResult
		if i < len(results) {
			got = results[i]
		}
		fmt.Printf("%-8d %-14d %-14d\n", i, got.Value, pushed[i].Value)
		if got != pushed[i] {
			ok = false
		}
	}
	bytes := float64(senders * perSender * salesSchema.TupleSize())
	fmt.Printf("\ncombiner: %v  (%.1f GiB/s aggregated)\n", end, bytes/end.Seconds()/(1<<30))
	if !ok {
		fmt.Println("results differ from the pushed tuples")
		os.Exit(1)
	}
}
