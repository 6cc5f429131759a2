package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/scenario"
)

// replicateReceiverBW measures the aggregated receiver bandwidth of a
// 1:targetsN replicate flow (naive one-sided or multicast) with the given
// number of source threads: every byte delivered to every target over
// the instant the last target drained.
func replicateReceiverBW(seed int64, threads, targetsN, tupleSize int, volumePerThread int64, multicast bool) (float64, error) {
	b := scenario.Fabric(targetsN+1, seed, fabric.DefaultConfig())
	sch := padSchema(tupleSize)
	n := int(volumePerThread) / sch.TupleSize()
	res := scenario.Run(b, scenario.Scenario{
		Spec: core.FlowSpec{
			Name: "rep-bw", Type: core.ReplicateFlow,
			Sources: onNodes(b, 0, 1, threads), Targets: onNodes(b, 1, targetsN, 1), Schema: sch,
			Options: core.Options{Multicast: multicast},
		},
		Tuples: n,
	})
	return bw(int64(threads*n*sch.TupleSize()*targetsN), res.End), res.Err()
}

// RunFig8a reproduces Figure 8a: naive one-sided replication (1:8) is
// capped by the sender's outgoing link.
func RunFig8a(opt Options) ([]Table, error) {
	return replicateBWTable("fig8a",
		"Replicate flow aggregated receiver bandwidth, naive one-sided (1:8)",
		[]string{"paper: limited by the sender's 11.64 GiB/s link"},
		false, opt)
}

// RunFig8b reproduces Figure 8b: with switch multicast the aggregate
// receiver bandwidth exceeds the sender link several times over, and
// extra source threads do not help.
func RunFig8b(opt Options) ([]Table, error) {
	return replicateBWTable("fig8b",
		"Replicate flow aggregated receiver bandwidth, multicast (1:8)",
		[]string{"paper: up to 64 GiB/s — far beyond the 11.64 GiB/s sender link; more threads do not help"},
		true, opt)
}

func replicateBWTable(id, title string, notes []string, multicast bool, opt Options) ([]Table, error) {
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"tuple size", "1 thread", "2 threads", "4 threads"},
		Notes:   notes,
	}
	volume := int64(16 << 20)
	if opt.Quick {
		volume = 2 << 20
	}
	for _, size := range []int{64, 256, 1024} {
		row := []string{sizeLabel(size)}
		for _, threads := range []int{1, 2, 4} {
			v, err := replicateReceiverBW(opt.Seed, threads, 8, size, volume/int64(threads), multicast)
			if err != nil {
				return nil, fmt.Errorf("%s size=%d threads=%d: %w", id, size, threads, err)
			}
			row = append(row, gibps(v))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// RunFig8c reproduces Figure 8c: the time for one request replicated to N
// targets to be acknowledged by all of them, naive vs multicast.
func RunFig8c(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig8c",
		Title:   "Replicate flow median latency until all targets replied (1:N)",
		Columns: []string{"tuple size", "naive N=1", "naive N=8", "multicast N=1", "multicast N=8"},
		Notes:   []string{"paper: naive wins at N=1 but degrades with N; multicast stays nearly flat"},
	}
	iters := 150
	if opt.Quick {
		iters = 30
	}
	for _, size := range []int{16, 64, 256, 1024, 4096} {
		row := []string{sizeLabel(size)}
		for _, mc := range []bool{false, true} {
			for _, n := range []int{1, 8} {
				m, err := roundTrip(opt.Seed, size, n, iters, core.ReplicateFlow, mc)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtDur(m))
			}
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// RunFig9 reproduces Figure 9: a combiner flow (8 sender nodes into one
// target node) with SUM aggregation. With one target thread the
// aggregation CPU limits throughput; with 2–4 threads the target's
// in-going link becomes the cap.
func RunFig9(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig9",
		Title:   "Combiner flow (8:1) with SUM aggregation: aggregated sender bandwidth",
		Columns: []string{"tuple size", "1 target thread", "2 target threads", "4 target threads"},
		Notes:   []string{"paper: 2 and 4 threads are limited by the target's in-going link"},
	}
	volume := int64(8 << 20)
	if opt.Quick {
		volume = 1 << 20
	}
	for _, size := range []int{64, 256, 1024} {
		row := []string{sizeLabel(size)}
		for _, threads := range []int{1, 2, 4} {
			v, err := combinerSenderBW(opt.Seed, size, threads, volume)
			if err != nil {
				return nil, fmt.Errorf("fig9 size=%d threads=%d: %w", size, threads, err)
			}
			row = append(row, gibps(v))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// aggOracle is the answer an aggregation experiment must arrive at,
// computed directly from what its sources push (the value column is the
// key column): a per-key SUM and the tuple count.
type aggOracle struct {
	sum map[uint64]int64
	n   int64
}

func (o *aggOracle) pushed(key int64) {
	if o.sum == nil {
		o.sum = make(map[uint64]int64)
	}
	o.sum[uint64(key)] += key
	o.n++
}

// check compares the targets' merged groups with the oracle: every pushed
// tuple counted exactly once, every key's SUM exact.
func (o *aggOracle) check(name string, results ...[]core.AggResult) error {
	var n int64
	groups := 0
	for _, rs := range results {
		for _, r := range rs {
			n += r.Count
			groups++
			if want, ok := o.sum[r.Key]; !ok || r.Value != want {
				return fmt.Errorf("%s: key %d sums to %d, want %d", name, r.Key, r.Value, want)
			}
		}
	}
	if n != o.n || groups != len(o.sum) {
		return fmt.Errorf("%s: targets hold %d tuples in %d groups, sources pushed %d in %d", name, n, groups, o.n, len(o.sum))
	}
	return nil
}

// combinerSenderBW drives 8 sender nodes into a combiner flow with the
// given number of target threads and returns aggregated sender bandwidth.
// Keys come from 4096 groups, and the targets' SUMs must match the oracle.
func combinerSenderBW(seed int64, tupleSize, targetThreads int, volumePerSource int64) (float64, error) {
	b := scenario.Fabric(9, seed, fabric.DefaultConfig())
	sch := padSchema(tupleSize)
	var oracle aggOracle
	sc := scenario.Scenario{
		Spec: core.FlowSpec{
			Name: "comb-bw", Type: core.CombinerFlow,
			Sources: onNodes(b, 0, 8, 1), Targets: onNodes(b, 8, 1, targetThreads), Schema: sch,
			Options: core.Options{Aggregation: core.AggSum, GroupCol: 0, ValueCol: 0},
		},
		Tuples: int(volumePerSource) / sch.TupleSize(),
		Key: func(rng *rand.Rand) int64 {
			key := rng.Int63n(4096)
			oracle.pushed(key)
			return key
		},
	}
	res := scenario.Run(b, sc)
	if err := errors.Join(res.Err(), oracle.check("comb-bw", res.Aggregates...)); err != nil {
		return 0, err
	}
	return bw(int64(len(sc.Spec.Sources)*sc.Tuples*sch.TupleSize()), res.End), nil
}
