package experiments

import (
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/join"
	"dfi/internal/scenario"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they isolate the contribution of
// individual mechanisms in the flow implementation.

func init() {
	All = append(All,
		Experiment{"abl-ordering", "Ablation: ordering-guarantee overhead of replicate flows", RunAblationOrdering},
		Experiment{"abl-credit", "Ablation: latency-flow credit threshold", RunAblationCredit},
		Experiment{"abl-multicast", "Ablation: multicast vs naive replication latency by fan-out", RunAblationMulticast},
		Experiment{"abl-skew", "Ablation: key skew sensitivity of the distributed joins", RunAblationSkew},
	)
}

// RunAblationOrdering measures what the global-ordering guarantee costs a
// replicate flow: the tuple sequencer adds a fetch-and-add round trip per
// segment and targets must reorder (paper §5.4).
func RunAblationOrdering(opt Options) ([]Table, error) {
	t := Table{
		ID:      "abl-ordering",
		Title:   "Replicate flow (2 sources → 3 targets): unordered vs globally ordered",
		Columns: []string{"variant", "runtime", "per-tuple overhead"},
		Notes:   []string{"the sequencer costs one fetch-and-add round trip per segment (paper §5.4)"},
	}
	n := 4000
	if opt.Quick {
		n = 800
	}
	var base time.Duration
	for _, ordered := range []bool{false, true} {
		b := scenario.Fabric(5, opt.Seed, fabric.DefaultConfig())
		res := scenario.Run(b, scenario.Scenario{
			Spec: core.FlowSpec{
				Name: "abl-ord", Type: core.ReplicateFlow,
				Sources: onNodes(b, 0, 2, 1), Targets: onNodes(b, 2, 3, 1), Schema: padSchema(64),
				Options: core.Options{Optimization: core.OptimizeLatency, Multicast: true, GlobalOrdering: ordered},
			},
			Tuples: n,
		})
		if err := res.Err(); err != nil {
			return nil, err
		}
		d := res.End
		label := "unordered"
		overhead := "-"
		if ordered {
			label = "globally ordered"
			overhead = fmtDur(time.Duration(int64(d-base) / int64(2*n)))
		} else {
			base = d
		}
		t.AddRow(label, fmtDur(d), overhead)
	}
	return []Table{t}, nil
}

// RunAblationCredit sweeps the latency-flow credit-refresh threshold: too
// low and the source stalls waiting for credit; too high and it wastes
// refresh reads.
func RunAblationCredit(opt Options) ([]Table, error) {
	t := Table{
		ID:      "abl-credit",
		Title:   "Latency-optimized 1:1 flow: credit threshold vs streaming runtime (ring = 32)",
		Columns: []string{"threshold", "runtime", "relative"},
	}
	n := 20000
	if opt.Quick {
		n = 4000
	}
	var base time.Duration
	for _, thr := range []int{1, 4, 8, 16, 24} {
		b := scenario.Fabric(2, opt.Seed, fabric.DefaultConfig())
		res := scenario.Run(b, scenario.Scenario{
			Spec: core.FlowSpec{
				Name: "abl-credit", Sources: onNodes(b, 0, 1, 1), Targets: onNodes(b, 1, 1, 1), Schema: padSchema(64),
				Options: core.Options{Optimization: core.OptimizeLatency, CreditThreshold: thr},
			},
			Tuples: n,
		})
		if err := res.Err(); err != nil {
			return nil, err
		}
		d := res.End
		if base == 0 {
			base = d
		}
		t.AddRow(fmt.Sprintf("%d", thr), fmtDur(d), fmt.Sprintf("%+.1f%%", (float64(d)/float64(base)-1)*100))
	}
	return []Table{t}, nil
}

// RunAblationMulticast contrasts naive one-sided replication with switch
// multicast across fan-outs: the naive variant's reply time grows with
// the fan-out; multicast stays flat.
func RunAblationMulticast(opt Options) ([]Table, error) {
	t := Table{
		ID:      "abl-multicast",
		Title:   "Replicated 64 B request, median time until all targets replied",
		Columns: []string{"fan-out", "naive", "multicast", "multicast advantage"},
	}
	iters := 150
	if opt.Quick {
		iters = 40
	}
	for _, n := range []int{1, 2, 4, 8, 12} {
		naive, err := roundTrip(opt.Seed, 64, n, iters, core.ReplicateFlow, false)
		if err != nil {
			return nil, err
		}
		mc, err := roundTrip(opt.Seed, 64, n, iters, core.ReplicateFlow, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("1:%d", n), fmtDur(naive), fmtDur(mc),
			fmt.Sprintf("%.2fx", float64(naive)/float64(mc)))
	}
	return []Table{t}, nil
}

// RunAblationSkew measures how zipfian foreign-key skew (a hot partition)
// degrades the DFI and MPI radix joins — the skew sensitivity the paper's
// §2.3 attributes to bulk-synchronous shuffles. DFI's streaming shuffle
// degrades too (the hot worker still bottlenecks) but keeps its edge.
func RunAblationSkew(opt Options) ([]Table, error) {
	t := Table{
		ID:      "abl-skew",
		Title:   "Radix join under zipfian key skew (4 nodes × 2 workers)",
		Columns: []string{"skew (zipf s)", "DFI total", "MPI total", "MPI/DFI"},
	}
	cfg := join.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.Nodes, cfg.WorkersPerNode = 4, 2
	cfg.InnerTuples, cfg.OuterTuples = 160_000, 320_000
	if opt.Quick {
		cfg.InnerTuples, cfg.OuterTuples = 40_000, 80_000
	}
	for _, skew := range []float64{0, 1.2, 1.5, 2.0} {
		c := cfg
		c.ZipfSkew = skew
		dfi, err := join.RunDFIRadix(c)
		if err != nil {
			return nil, err
		}
		mpiPT, err := join.RunMPIRadix(c)
		if err != nil {
			return nil, err
		}
		label := "uniform"
		if skew > 0 {
			label = fmt.Sprintf("%.1f", skew)
		}
		t.AddRow(label, fmtDur(dfi.Total), fmtDur(mpiPT.Total),
			fmt.Sprintf("%.2fx", float64(mpiPT.Total)/float64(dfi.Total)))
	}
	return []Table{t}, nil
}
