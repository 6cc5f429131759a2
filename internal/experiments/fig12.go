package experiments

import (
	"fmt"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/mpi"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// RunFig12 reproduces Figure 12: an 8:8 collective shuffle of a table of
// T bytes with one straggling node (CPU frequency scaled by s). MPI
// pre-shuffles the whole batch locally, then calls one blocking
// MPI_Alltoall — so everybody waits for the straggler's scan before any
// byte moves. DFI pushes tuples as the scan produces them, overlapping
// the slow scan with the transfer of the fast nodes.
func RunFig12(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig12",
		Title:   "Collective shuffle with a straggler (8:8), 256 B tuples (extrapolated)",
		Columns: []string{"s (CPU scale)", "table size", "MPI batched", "DFI streaming", "MPI/DFI"},
		Notes: []string{
			"paper: s=1 T=2GiB MPI 1.19s vs DFI 0.71s; s=0.5 T=2GiB 3.36s vs 1.89s;",
			"       s=1 T=8GiB 4.65s vs 3.17s; s=0.5 T=8GiB 12.53s vs 7.57s",
		},
	}
	const size = 256
	const nodes = 8
	sampleScale := 32 // simulate T/32, extrapolate back
	if opt.Quick {
		sampleScale = 128
	}
	for _, tcase := range []struct {
		s float64
		T int64
	}{
		{1.0, 2 << 30}, {0.5, 2 << 30},
		{1.0, 8 << 30}, {0.5, 8 << 30},
	} {
		sample := tcase.T / int64(sampleScale)
		perNode := sample / nodes
		mpiRT, err := mpiBatchedShuffle(opt.Seed, nodes, size, perNode, tcase.s)
		if err != nil {
			return nil, err
		}
		dfiRT, err := dfiStreamShuffle(opt.Seed, nodes, size, perNode, tcase.s)
		if err != nil {
			return nil, err
		}
		mpiFull := time.Duration(float64(mpiRT) * float64(sampleScale))
		dfiFull := time.Duration(float64(dfiRT) * float64(sampleScale))
		t.AddRow(
			fmt.Sprintf("%.1f", tcase.s),
			fmt.Sprintf("%d GiB", tcase.T>>30),
			fmtDur(mpiFull), fmtDur(dfiFull),
			fmt.Sprintf("%.2fx", float64(mpiFull)/float64(dfiFull)),
		)
	}
	return []Table{t}, nil
}

// mpiBatchedShuffle: every node scans and locally pre-shuffles its chunk
// (per-tuple scan+copy cost), then the nodes execute one bulk
// MPI_Alltoall over the complete batch. Node 0 runs at CPU scale s.
func mpiBatchedShuffle(seed int64, nodes, size int, perNode int64, s float64) (time.Duration, error) {
	k := sim.New(seed)
	k.Deadline = 30 * time.Minute
	c := fabric.NewCluster(k, nodes, fabric.DefaultConfig())
	if s < 1 {
		c.Node(0).CPUScale = s
	}
	ns := make([]transport.Endpoint, nodes)
	for i := range ns {
		ns[i] = c.Node(i)
	}
	mcfg := mpi.DefaultConfig()
	// Receive buffers are sized to MaxMessage; bound it by the actual
	// alltoall part size.
	mcfg.MaxMessage = int(perNode)/nodes + 64
	w := mpi.NewWorld(c, ns, mcfg)

	tuples := int(perNode) / size
	var end sim.Time
	for r := 0; r < nodes; r++ {
		r := r
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			node := w.Rank(r).Node()
			// Local pre-shuffle: scan + copy every tuple into per-target
			// buffers (14 ns/tuple, matching the join cost model).
			const preShuffleCost = 14 * time.Nanosecond
			node.Compute(p, time.Duration(tuples)*preShuffleCost)
			parts := make([][]byte, nodes)
			share := int(perNode) / nodes
			for i := range parts {
				parts[i] = make([]byte, share)
			}
			w.Rank(r).Alltoall(p, 1, parts)
			// Receive-side materialization of the shuffled batch.
			const postCost = 4 * time.Nanosecond
			node.Compute(p, time.Duration(tuples)*postCost)
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
