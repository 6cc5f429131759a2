package experiments

import (
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/mpi"
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
// node scans volume bytes and pushes tuples keyed randomly; it returns the
// runtime until the last node finished consuming. stragglerScale < 1
// slows node 0's CPU (Figure 12).
func dfiStreamShuffle(seed int64, nodes, size int, volume int64, stragglerScale float64) (time.Duration, error) {
	k, c, reg := newBWEnv(seed, nodes)
	if stragglerScale < 1 {
		c.Node(0).CPUScale = stragglerScale
	}
	sch := padSchema(size)
	var sources, targets []core.Endpoint
	for n := 0; n < nodes; n++ {
		sources = append(sources, core.Endpoint{Node: c.Node(n)})
		targets = append(targets, core.Endpoint{Node: c.Node(n)})
	}
	spec := core.FlowSpec{
		Name: "stream", Sources: sources, Targets: targets, Schema: sch,
		Options: core.Options{SegmentSize: segFor(size)},
	}
	perNode := int(volume) / sch.TupleSize()
	var end sim.Time
	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, c, spec); err != nil {
			panic(err)
		}
	})
	for si := range sources {
		si := si
		node := sources[si].Node
		k.Spawn(fmt.Sprintf("scan%d", si), func(p *sim.Proc) {
			src, err := core.SourceOpen(p, reg, "stream", si)
			if err != nil {
				panic(err)
			}
			tup := sch.NewTuple()
			rng := p.Rand()
			const scanCost = 4 * time.Nanosecond
			for i := 0; i < perNode; i++ {
				sch.PutInt64(tup, 0, rng.Int63())
				if err := src.Push(p, tup); err != nil {
					panic(err)
				}
				if i%1024 == 1023 {
					node.Compute(p, 1024*scanCost)
				}
			}
			src.Close(p)
		})
	}
	for ti := range targets {
		ti := ti
		k.Spawn(fmt.Sprintf("sink%d", ti), func(p *sim.Proc) {
			tgt, err := core.TargetOpen(p, reg, "stream", ti)
			if err != nil {
				panic(err)
			}
			for {
				if _, _, ok := tgt.ConsumeSegment(p); !ok {
					break
				}
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
