package experiments

import (
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/mpi"
	"dfi/internal/scenario"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// fig11PaperVolume is the per-node table volume Figure 11's runtimes are
// extrapolated to.
const fig11PaperVolume = 2 << 30

// RunFig11 reproduces Figure 11: an 8:8 shuffle executed in a streaming
// manner — DFI pushes tuples continuously, MPI calls Alltoall on
// mini-batches of 8 tuples (one per target on average). MPI's runtime is
// dominated by collective overhead at small tuple sizes and approaches
// DFI as tuples grow.
func RunFig11(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig11",
		Title:   "Pipelined collective shuffle (8:8), 1 thread/node, 2 GiB/node (extrapolated)",
		Columns: []string{"tuple size", "DFI runtime", "DFI bandwidth", "MPI runtime", "MPI bandwidth"},
		Notes:   []string{"paper: MPI_Alltoall on 8-tuple mini-batches is orders of magnitude slower for small tuples"},
	}
	const nodes = 8
	for _, size := range []int{16, 64, 256, 1024, 4096, 16384} {
		// Sample volume: enough mini-batches to reach steady state.
		batches := 1500
		if opt.Quick {
			batches = 300
		}
		volume := int64(size * 8 * batches) // per node
		dfiRT, err := dfiStreamShuffle(opt.Seed, nodes, size, volume, 1)
		if err != nil {
			return nil, err
		}
		mpiRT, err := mpiMiniBatchShuffle(opt.Seed, nodes, size, volume)
		if err != nil {
			return nil, err
		}
		scale := float64(fig11PaperVolume) / float64(volume)
		dfiFull := time.Duration(float64(dfiRT) * scale)
		mpiFull := time.Duration(float64(mpiRT) * scale)
		total := int64(nodes) * fig11PaperVolume
		t.AddRow(sizeLabel(size),
			fmtDur(dfiFull), gibps(bw(total, dfiFull)),
			fmtDur(mpiFull), gibps(bw(total, mpiFull)))
	}
	return []Table{t}, nil
}

// dfiStreamShuffle runs an N:N bandwidth-optimized shuffle where every
// node scans volume bytes (4 ns per tuple) and pushes tuples keyed
// randomly; it returns the runtime until the last node finished
// consuming. stragglerScale < 1 slows node 0's CPU (Figure 12).
func dfiStreamShuffle(seed int64, nodes, size int, volume int64, stragglerScale float64) (time.Duration, error) {
	b := scenario.Fabric(nodes, seed, fabric.DefaultConfig())
	if stragglerScale < 1 {
		b.Node(0).(*fabric.Node).CPUScale = stragglerScale
	}
	sch := padSchema(size)
	eps := onNodes(b, 0, nodes, 1)
	res := scenario.Run(b, scenario.Scenario{
		Spec: core.FlowSpec{
			Name: "stream", Sources: eps, Targets: eps, Schema: sch,
			Options: core.Options{SegmentSize: segFor(size)},
		},
		Tuples:   int(volume) / sch.TupleSize(),
		ScanCost: 4 * time.Nanosecond,
	})
	return res.End, res.Err()
}

// mpiMiniBatchShuffle shuffles volume bytes per node through MPI_Alltoall
// on 8-tuple mini-batches (the paper's streaming-style usage of a
// bulk-synchronous collective).
func mpiMiniBatchShuffle(seed int64, nodes, size int, volume int64) (time.Duration, error) {
	k := sim.New(seed)
	k.Deadline = 30 * time.Minute
	c := fabric.NewCluster(k, nodes, fabric.DefaultConfig())
	ns := make([]transport.Endpoint, nodes)
	for i := range ns {
		ns[i] = c.Node(i)
	}
	w := mpi.NewWorld(c, ns, mpi.DefaultConfig())

	perNode := int(volume) / size
	batches := perNode / 8
	var end sim.Time
	for r := 0; r < nodes; r++ {
		r := r
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			rng := p.Rand()
			const scanCost = 4 * time.Nanosecond
			for b := 0; b < batches; b++ {
				// Distribute 8 tuples over the ranks by key.
				parts := make([][]byte, nodes)
				for i := range parts {
					parts[i] = []byte{}
				}
				for i := 0; i < 8; i++ {
					d := int(rng.Int63()) % nodes
					parts[d] = append(parts[d], make([]byte, size)...)
				}
				w.Rank(r).Node().Compute(p, 8*scanCost)
				w.Rank(r).Alltoall(p, uint64(b), parts)
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return end, nil
}
