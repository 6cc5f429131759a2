package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/mpi"
	"dfi/internal/scenario"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// paperTableBytes is the fixed transfer the paper's Figure 10 reports:
// a 16 GiB table. Runs measure a smaller sample and extrapolate linearly
// (per-byte cost is constant per tuple size).
const paperTableBytes = 16 << 30

// RunFig10a reproduces Figure 10a: runtime for transferring a 16 GiB
// table between two nodes, single-threaded, per tuple size — MPI
// Send/Recv against DFI's bandwidth- and latency-optimized flows.
func RunFig10a(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig10a",
		Title:   "Point-to-point runtime, single-threaded, 16 GiB table (extrapolated)",
		Columns: []string{"tuple size", "DFI bandwidth-opt", "DFI latency-opt", "MPI Send/Recv"},
		Notes: []string{
			"paper: MPI needs ~300s at 16 B (no batching); DFI bandwidth-opt stays near wire speed",
		},
	}
	msgs := 60_000
	bwVolume := int64(64 << 20)
	if opt.Quick {
		msgs = 8_000
		bwVolume = 8 << 20
	}
	for _, size := range []int{16, 64, 256, 1024, 4096, 16384} {
		dfiBW, err := dfiP2PRuntime(opt.Seed, size, 1, bwVolume, core.OptimizeBandwidth)
		if err != nil {
			return nil, err
		}
		latVol := int64(size * msgs)
		dfiLat, err := dfiP2PRuntime(opt.Seed, size, 1, latVol, core.OptimizeLatency)
		if err != nil {
			return nil, err
		}
		mpiRT, err := mpiP2PRuntime(opt.Seed, size, 1, int64(size*msgs), false)
		if err != nil {
			return nil, err
		}
		scaleBW := float64(paperTableBytes) / float64(bwVolume)
		scaleLat := float64(paperTableBytes) / float64(latVol)
		t.AddRow(sizeLabel(size),
			fmtDur(time.Duration(float64(dfiBW)*scaleBW)),
			fmtDur(time.Duration(float64(dfiLat)*scaleLat)),
			fmtDur(time.Duration(float64(mpiRT)*scaleLat)),
		)
	}
	return []Table{t}, nil
}

// RunFig10b reproduces Figure 10b: the same transfer with 64 B tuples and
// 1–8 sender threads. Multi-threaded MPI collapses on its central latch;
// multi-process MPI scales but below DFI.
func RunFig10b(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig10b",
		Title:   "Point-to-point runtime, multi-threaded, 64 B tuples, 16 GiB table (extrapolated)",
		Columns: []string{"threads", "DFI bandwidth-opt", "DFI latency-opt", "MPI multi-threaded", "MPI multi-process"},
		Notes: []string{
			"paper: MPI THREAD_MULTIPLE gets slower with more threads; multi-process scales but trails DFI",
		},
	}
	const size = 64
	msgs := 48_000
	bwVolume := int64(24 << 20)
	if opt.Quick {
		msgs = 8_000
		bwVolume = 4 << 20
	}
	for _, threads := range []int{1, 2, 4, 8} {
		dfiBW, err := dfiP2PRuntime(opt.Seed, size, threads, bwVolume, core.OptimizeBandwidth)
		if err != nil {
			return nil, err
		}
		latVol := int64(size * msgs)
		dfiLat, err := dfiP2PRuntime(opt.Seed, size, threads, latVol, core.OptimizeLatency)
		if err != nil {
			return nil, err
		}
		mpiMT, err := mpiP2PRuntime(opt.Seed, size, threads, latVol, false)
		if err != nil {
			return nil, err
		}
		mpiMP, err := mpiP2PRuntime(opt.Seed, size, threads, latVol, true)
		if err != nil {
			return nil, err
		}
		scaleBW := float64(paperTableBytes) / float64(bwVolume)
		scaleLat := float64(paperTableBytes) / float64(latVol)
		t.AddRow(fmt.Sprintf("%d", threads),
			fmtDur(time.Duration(float64(dfiBW)*scaleBW)),
			fmtDur(time.Duration(float64(dfiLat)*scaleLat)),
			fmtDur(time.Duration(float64(mpiMT)*scaleLat)),
			fmtDur(time.Duration(float64(mpiMP)*scaleLat)),
		)
	}
	return []Table{t}, nil
}

// dfiP2PRuntime transfers volume bytes of size-byte tuples from node 0 to
// node 1 over a shuffle flow with the given thread count, source thread i
// pushing to target thread i, returning the virtual runtime until the
// last tuple was consumed.
func dfiP2PRuntime(seed int64, size, threads int, volume int64, mode core.Optimization) (time.Duration, error) {
	b := scenario.Fabric(2, seed, fabric.DefaultConfig())
	sch := padSchema(size)
	spec := core.FlowSpec{
		Name: "p2p", Sources: onNodes(b, 0, 1, threads), Targets: onNodes(b, 1, 1, threads), Schema: sch,
		Options: core.Options{Optimization: mode},
	}
	if mode == core.OptimizeBandwidth {
		spec.Options.SegmentSize = segFor(size)
	}
	// The tuples carry no key: a key drawn per tuple would shift the
	// kernel's random stream, which the sources' backoff draws from.
	res := scenario.Run(b, scenario.Scenario{
		Spec:       spec,
		Tuples:     int(volume) / sch.TupleSize() / threads,
		Key:        func(*rand.Rand) int64 { return 0 },
		PushToSelf: true,
	})
	return res.End, res.Err()
}

// mpiP2PRuntime transfers volume bytes of size-byte messages from node 0
// to node 1 with MPI Send/Recv. multiProcess=false uses one
// THREAD_MULTIPLE rank per node with `threads` calling threads;
// multiProcess=true uses `threads` single-threaded ranks per node.
func mpiP2PRuntime(seed int64, size, threads int, volume int64, multiProcess bool) (time.Duration, error) {
	k := sim.New(seed)
	k.Deadline = 10 * time.Minute
	c := fabric.NewCluster(k, 2, fabric.DefaultConfig())

	perThread := int(volume) / size / threads
	var end sim.Time
	buf := make([]byte, size)

	if multiProcess {
		// `threads` ranks on each node, paired sender→receiver.
		nodes := make([]transport.Endpoint, 0, 2*threads)
		for i := 0; i < threads; i++ {
			nodes = append(nodes, c.Node(0))
		}
		for i := 0; i < threads; i++ {
			nodes = append(nodes, c.Node(1))
		}
		w := mpi.NewWorld(c, nodes, mpi.DefaultConfig())
		for i := 0; i < threads; i++ {
			i := i
			k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
				for m := 0; m < perThread; m++ {
					w.Rank(i).Send(p, threads+i, uint64(i), buf)
				}
			})
			k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
				for m := 0; m < perThread; m++ {
					w.Rank(threads+i).Recv(p, i, uint64(i))
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
	} else {
		w := mpi.NewWorld(c, []transport.Endpoint{c.Node(0), c.Node(1)}, mpi.DefaultConfig())
		w.Rank(0).SetThreads(threads)
		w.Rank(1).SetThreads(threads)
		for i := 0; i < threads; i++ {
			i := i
			k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
				for m := 0; m < perThread; m++ {
					w.Rank(0).Send(p, 1, uint64(i), buf)
				}
			})
			k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
				for m := 0; m < perThread; m++ {
					w.Rank(1).Recv(p, 0, uint64(i))
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return end, nil
}
