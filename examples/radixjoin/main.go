// Radix join example: runs the paper's OLAP use case (§4.3.1) at laptop
// scale — the distributed radix hash join over two DFI shuffle flows,
// compared against the MPI baseline and the fragment-and-replicate
// variant. Every S tuple matches exactly one R tuple, so each variant
// must report |S| matches; the example exits 1 when one does not.
//
//	go run ./examples/radixjoin
package main

import (
	"fmt"
	"log"
	"os"

	"dfi/internal/join"
)

func main() {
	cfg := join.DefaultConfig()
	cfg.Nodes = 4
	cfg.WorkersPerNode = 4
	cfg.InnerTuples = 400_000
	cfg.OuterTuples = 400_000

	fmt.Printf("distributed join: %d nodes × %d workers, %d ⨝ %d tuples\n\n",
		cfg.Nodes, cfg.WorkersPerNode, cfg.InnerTuples, cfg.OuterTuples)

	mpiPT, err := join.RunMPIRadix(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPI radix join:      %v\n", mpiPT)
	ok := checkMatches("MPI radix join", mpiPT, cfg)

	dfiPT, err := join.RunDFIRadix(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DFI radix join:      %v\n", dfiPT)
	ok = checkMatches("DFI radix join", dfiPT, cfg) && ok

	// Figure 14's adaptability story: shrink the inner table 1000× and
	// swap the inner shuffle flow for a replicate flow.
	cfg.InnerTuples = cfg.OuterTuples / 1000
	repPT, err := join.RunDFIReplicateJoin(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DFI replicate join (small inner): %v\n", repPT)
	ok = checkMatches("DFI replicate join", repPT, cfg) && ok

	fmt.Printf("\nDFI vs MPI speedup: %.2fx\n", float64(mpiPT.Total)/float64(dfiPT.Total))
	if !ok {
		os.Exit(1)
	}
}

// checkMatches reports whether a join found one match per outer tuple, and
// prints the mismatch when it did not.
func checkMatches(name string, pt join.PhaseTimes, cfg join.Config) bool {
	if pt.Matches == uint64(cfg.OuterTuples) {
		return true
	}
	fmt.Printf("%s: %d matches, want %d (one per S tuple)\n", name, pt.Matches, cfg.OuterTuples)
	return false
}
