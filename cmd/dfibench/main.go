// Command dfibench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated RDMA fabric.
//
// Usage:
//
//	dfibench list                 # show available experiment IDs
//	dfibench fig7a [fig13 ...]    # run selected experiments
//	dfibench all                  # run the full suite
//
// Flags:
//
//	-quick           run at reduced scale (seconds instead of minutes)
//	-seed N          deterministic seed (default 1)
//	-cpuprofile F    write a pprof CPU profile of the experiment run to F
//	-memprofile F    write a pprof heap profile (after the run) to F
//
// Profiles are flushed even when an experiment fails — the failing runs
// are the ones worth profiling.
//
// All results are virtual-time measurements; see EXPERIMENTS.md for the
// paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dfi/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Int64("seed", 1, "deterministic seed")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write heap profile to `file`")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, e := range experiments.All {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if args[0] == "all" {
		selected = experiments.All
	} else {
		for _, id := range args {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "dfibench: unknown experiment %q (try 'dfibench list')\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	// run is a separate function so its deferred profile writers execute
	// before the process exits (os.Exit skips defers).
	os.Exit(run(selected, opt, *cpuprofile, *memprofile))
}

func run(selected []experiments.Experiment, opt experiments.Options, cpuprofile, memprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfibench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dfibench: -cpuprofile: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dfibench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dfibench: -memprofile: %v\n", err)
			}
		}()
	}

	failed := false
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfibench: %s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `dfibench — regenerate the DFI paper's evaluation (SIGMOD 2021)

usage: dfibench [-quick] [-seed N] [-cpuprofile F] [-memprofile F] <experiment-id>... | all | list
`)
	flag.PrintDefaults()
}
