// Top-level benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation (§6). Each runs the figure's headline
// measurement at a representative parameter point and reports the key
// metric via b.ReportMetric — virtual-time bandwidth in GiB/s, latency in
// µs, runtimes in virtual milliseconds, and request throughput in kreq/s.
//
//	go test -bench=. -benchmem .
//
// The full parameter sweeps (every series of every figure) are produced
// by cmd/dfibench; these benchmarks track the same code paths in a form
// the Go tooling can compare across revisions.
package dfi

import (
	"sync"
	"sync/atomic"
	"testing"

	"dfi/internal/consensus"
	"dfi/internal/core"
	"dfi/internal/experiments"
	"dfi/internal/join"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport/chanloop"
)

const benchSeed = 1

// BenchmarkFig7aShuffleBandwidth: 1:8 bandwidth-optimized shuffle, two
// source threads, 1 KiB tuples (a link-saturating point of Figure 7a).
func BenchmarkFig7aShuffleBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureShuffleBandwidth(benchSeed, 2, 1024, 8<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkFig7aShuffleBandwidthBatched: the same measurement with the
// senders pushing through PushBatch in 64-tuple chunks. The virtual
// GiB/s must match BenchmarkFig7aShuffleBandwidth; the ns/op delta is
// the host-side saving of the batched API.
func BenchmarkFig7aShuffleBandwidthBatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureShuffleBandwidthBatched(benchSeed, 2, 1024, 8<<20, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkFig7bShuffleLatency: median RTT of a 16-byte request/response
// over latency-optimized shuffle flows to 8 servers, plus the raw-verb
// overhead delta (Figure 7b).
func BenchmarkFig7bShuffleLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dfi, raw, err := experiments.MeasureShuffleRTT(benchSeed, 16, 8, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(dfi.Nanoseconds())/1e3, "rtt-µs")
		b.ReportMetric(float64((dfi - raw).Nanoseconds()), "overhead-ns")
	}
}

// BenchmarkFig7cScaleOut: aggregated N:N bandwidth on 4 servers × 4
// threads (Figure 7c).
func BenchmarkFig7cScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureScaleOut(benchSeed, 4, 4, 4<<20, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkMemoryConsumption: per-node registered ring memory of the 2
// servers × 4 threads configuration (§6.1.4; paper: 16 MiB).
func BenchmarkMemoryConsumption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bytes, err := experiments.MeasureFlowMemory(benchSeed, 2, 4, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(bytes)/(1<<20), "MiB/node")
	}
}

// BenchmarkFig8aReplicateNaive: 1:8 replicate flow, naive one-sided
// replication, 1 KiB tuples (Figure 8a; capped by the sender link).
func BenchmarkFig8aReplicateNaive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureReplicateBandwidth(benchSeed, 1, 1024, 8<<20, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkFig8bReplicateMulticast: the same with switch multicast
// (Figure 8b; aggregate far beyond the sender link).
func BenchmarkFig8bReplicateMulticast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureReplicateBandwidth(benchSeed, 1, 1024, 8<<20, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkFig8cReplicateLatency: time until all 8 targets acknowledged
// one replicated 64-byte request, multicast path (Figure 8c).
func BenchmarkFig8cReplicateLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.MeasureReplicateRTT(benchSeed, 64, 8, 100, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Nanoseconds())/1e3, "rtt-µs")
	}
}

// BenchmarkFig9Combiner: 8:1 combiner flow with SUM aggregation, 4 target
// threads, 256 B tuples (Figure 9; in-going link cap).
func BenchmarkFig9Combiner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureCombinerBandwidth(benchSeed, 256, 4, 2<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkFig10aPointToPointST: single-threaded point-to-point transfer
// of 64 B tuples — DFI bandwidth-optimized vs the MPI baseline
// (Figure 10a; the metric is the MPI/DFI runtime ratio).
func BenchmarkFig10aPointToPointST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dfi, err := experiments.MeasureDFIPointToPoint(benchSeed, 64, 1, 4<<20, false)
		if err != nil {
			b.Fatal(err)
		}
		mpi, err := experiments.MeasureMPIPointToPoint(benchSeed, 64, 1, 1<<20, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dfi.Seconds()*1e3, "dfi-ms")
		b.ReportMetric((mpi.Seconds()*4)/dfi.Seconds(), "mpi-over-dfi")
	}
}

// BenchmarkFig10bPointToPointMT: 4-thread transfer — THREAD_MULTIPLE MPI
// collapses while DFI scales (Figure 10b; metric is the ratio of MPI-MT
// to DFI latency-optimized runtime at equal volume).
func BenchmarkFig10bPointToPointMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dfi, err := experiments.MeasureDFIPointToPoint(benchSeed, 64, 4, 1<<20, true)
		if err != nil {
			b.Fatal(err)
		}
		mpiMT, err := experiments.MeasureMPIPointToPoint(benchSeed, 64, 4, 1<<20, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mpiMT)/float64(dfi), "mpiMT-over-dfi")
	}
}

// BenchmarkFig11CollectiveShuffle: 8:8 streaming shuffle of 64 B tuples,
// DFI push-per-tuple vs MPI_Alltoall on 8-tuple mini-batches (Figure 11).
func BenchmarkFig11CollectiveShuffle(b *testing.B) {
	const volume = 64 * 8 * 400
	for i := 0; i < b.N; i++ {
		dfi, err := experiments.MeasureStreamShuffle(benchSeed, 64, volume, 1)
		if err != nil {
			b.Fatal(err)
		}
		mpi, err := experiments.MeasureMiniBatchAlltoall(benchSeed, 64, volume)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mpi)/float64(dfi), "mpi-over-dfi")
	}
}

// BenchmarkFig12Straggler: 8:8 batched MPI shuffle vs streaming DFI
// shuffle with one node at half CPU speed (Figure 12).
func BenchmarkFig12Straggler(b *testing.B) {
	const volume = 4 << 20
	for i := 0; i < b.N; i++ {
		mpi, err := experiments.MeasureBatchedAlltoall(benchSeed, 256, volume, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		dfi, err := experiments.MeasureStreamShuffle(benchSeed, 256, volume, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mpi)/float64(dfi), "mpi-over-dfi")
	}
}

// BenchmarkFig13RadixJoin: distributed radix join, DFI vs MPI
// (Figure 13; metrics are DFI total runtime and the speedup).
func BenchmarkFig13RadixJoin(b *testing.B) {
	cfg := join.DefaultConfig()
	cfg.Nodes, cfg.WorkersPerNode = 4, 2
	cfg.InnerTuples, cfg.OuterTuples = 100_000, 100_000
	for i := 0; i < b.N; i++ {
		dfi, err := join.RunDFIRadix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mpi, err := join.RunMPIRadix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dfi.Total.Seconds()*1e3, "dfi-ms")
		b.ReportMetric(float64(mpi.Total)/float64(dfi.Total), "speedup")
	}
}

// BenchmarkFig14JoinAdaptability: radix vs fragment-and-replicate join
// with a small inner relation (Figure 14; metric is the replicate join's
// runtime saving).
func BenchmarkFig14JoinAdaptability(b *testing.B) {
	cfg := join.DefaultConfig()
	cfg.Nodes, cfg.WorkersPerNode = 4, 2
	cfg.InnerTuples, cfg.OuterTuples = 200, 200_000
	for i := 0; i < b.N; i++ {
		radix, err := join.RunDFIRadix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := join.RunDFIReplicateJoin(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-float64(rep.Total)/float64(radix.Total))*100, "saving-%")
	}
}

// BenchmarkFig15Consensus: the replicated KV store at 600k offered
// req/s — NOPaxos throughput and median latency (Figure 15).
func BenchmarkFig15Consensus(b *testing.B) {
	cfg := consensus.DefaultConfig()
	cfg.Requests = 2400
	cfg.Rate = 600_000
	for i := 0; i < b.N; i++ {
		res, err := consensus.RunNOPaxos(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput/1e3, "kreq/s")
		b.ReportMetric(float64(res.Median.Nanoseconds())/1e3, "median-µs")
	}
}

// BenchmarkSharpCombiner: the in-network aggregation extension (paper
// §4.2.3 future work): aggregated sender bandwidth of the switch-resident
// reduction vs the 11.64 GiB/s in-going link that caps Figure 9.
func BenchmarkSharpCombiner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureSharpCombiner(benchSeed, 64, 2<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/(1<<30), "GiB/s")
	}
}

// BenchmarkChanloopShuffle: the same shuffle data path (rings, footers,
// credits) on the chanloop backend — real goroutines moving real bytes
// under wall-clock time, no sim kernel. It reports no custom metrics on
// purpose: chanloop has no virtual time. Its allocs/op include building
// the transport, registry and flow inside the loop, so it is a number to
// read, not a gate: the wall-clock backend's regression gate is the
// ledger's chan_batch_64 workload (benchmark/).
func BenchmarkChanloopShuffle(b *testing.B) {
	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "value", Type: schema.Int64},
	)
	const tuples = 5000
	for i := 0; i < b.N; i++ {
		net := chanloop.New()
		eps := []*chanloop.Endpoint{net.NewEndpoint(), net.NewEndpoint(), net.NewEndpoint()}
		reg := registry.NewLocal()
		spec := core.FlowSpec{
			Name:       "bench",
			Sources:    []core.Endpoint{{Node: eps[0]}},
			Targets:    []core.Endpoint{{Node: eps[1]}, {Node: eps[2]}},
			Schema:     sch,
			ShuffleKey: 0,
		}
		if err := core.FlowInit(net.NewCtx(), reg, net, spec); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := net.NewCtx()
			src, err := core.SourceOpen(p, reg, "bench", 0)
			if err != nil {
				b.Error(err)
				return
			}
			tup := sch.NewTuple()
			for j := int64(0); j < tuples; j++ {
				sch.PutInt64(tup, 0, j)
				sch.PutInt64(tup, 1, 10*j)
				if err := src.Push(p, tup); err != nil {
					b.Error(err)
					return
				}
			}
			src.Close(p)
		}()
		var consumed int64
		for ti := 0; ti < 2; ti++ {
			ti := ti
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := net.NewCtx()
				tgt, err := core.TargetOpen(p, reg, "bench", ti)
				if err != nil {
					b.Error(err)
					return
				}
				n := int64(0)
				for {
					if _, ok := tgt.Consume(p); !ok {
						break
					}
					n++
				}
				atomic.AddInt64(&consumed, n)
			}()
		}
		wg.Wait()
		if consumed != tuples {
			b.Fatalf("consumed %d of %d tuples", consumed, tuples)
		}
	}
}
