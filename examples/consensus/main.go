// Consensus example: the paper's state machine replication use case
// (§4.3.2, §6.3.2) — a replicated key-value store under YCSB's
// read-dominated workload, served by Multi-Paxos and NOPaxos built from
// DFI flows, compared against the DARE baseline.
//
//	go run ./examples/consensus
package main

import (
	"fmt"
	"log"
	"os"

	"dfi/internal/consensus"
	"dfi/internal/metrics"
)

func main() {
	cfg := consensus.DefaultConfig()
	cfg.Requests = 6000
	cfg.Rate = 600_000

	fmt.Printf("replicated KV store: %d replicas, %d clients, YCSB %.0f/%.0f\n\n",
		cfg.Replicas, cfg.Clients, cfg.ReadFraction*100, (1-cfg.ReadFraction)*100)

	paxos, err := consensus.RunMultiPaxos(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DFI Multi-Paxos (4 flows, Figure 3):  %v\n", paxos)

	nopaxos, err := consensus.RunNOPaxos(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DFI NOPaxos (ordered multicast OUM):  %v\n", nopaxos)

	dare, err := consensus.RunDARE(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DARE (hand-crafted RDMA, closed loop): %v\n", dare)

	fmt.Println("\nNOPaxos latency quantiles:")
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		fmt.Printf("  p%-3.0f %v\n", q*100, nopaxos.Quantile(q))
	}

	// The same results in Prometheus text exposition — what a scraper
	// would ingest from a metrics endpoint.
	reg := metrics.NewRegistry()
	paxos.PublishMetrics(reg, "multipaxos")
	nopaxos.PublishMetrics(reg, "nopaxos")
	dare.PublishMetrics(reg, "dare")
	fmt.Println("\nPrometheus exposition:")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
