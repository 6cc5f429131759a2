package join

import (
	"encoding/binary"
	"fmt"
	"time"

	"dfi/internal/mpi"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// RunMPIRadix executes the MPI-based distributed radix hash join the
// paper compares against (§6.3.1): the state-of-the-art design of
// Barthels et al. using one-sided MPI_Put. To write coordination-free, it
// must first compute global histograms of both relations (an extra pass
// over all data plus two all-to-all exchanges) to derive exclusive write
// offsets, and it needs a synchronization barrier after the network
// partition phase before local processing may start — the two costs DFI's
// encapsulated buffer management eliminates.
func RunMPIRadix(cfg Config) (PhaseTimes, error) {
	k, c, _ := buildEnv(cfg)
	w := generate(cfg, 1)
	parts := cfg.partitions()

	nodes := make([]transport.Endpoint, parts)
	for r := 0; r < parts; r++ {
		nodes[r] = c.Node(r / cfg.WorkersPerNode)
	}
	world := mpi.NewWorld(c, nodes, mpi.DefaultConfig())

	histT := make([]time.Duration, parts)
	netT := make([]time.Duration, parts)
	barT := make([]time.Duration, parts)
	localT := make([]time.Duration, parts)
	joinT := make([]time.Duration, parts)
	totals := make([]time.Duration, parts)
	matches := make([]uint64, parts)

	const (
		tagHist    = 100
		tagOffsets = 101
	)
	ts := TupleSchema.TupleSize()

	for r := 0; r < parts; r++ {
		r := r
		rank := world.Rank(r)
		node := rank.Node()
		nodeIdx := node.ID()
		wk := r % cfg.WorkersPerNode
		inner := slice(w.innerChunk[nodeIdx], wk, cfg.WorkersPerNode)
		outer := slice(w.outerChunk[nodeIdx], wk, cfg.WorkersPerNode)

		k.Spawn(fmt.Sprintf("mpirank-%d", r), func(p *sim.Proc) {
			start := p.Now()

			// ---- Phase 1: histogram pass + exchanges ----
			histR := make([]uint64, parts)
			histS := make([]uint64, parts)
			for _, key := range inner {
				histR[partitionOf(key, parts)]++
			}
			for _, key := range outer {
				histS[partitionOf(key, parts)]++
			}
			node.Compute(p, time.Duration(len(inner)+len(outer))*cfg.HistogramCost)

			sendParts := make([][]byte, parts)
			for d := 0; d < parts; d++ {
				b := make([]byte, 16)
				binary.LittleEndian.PutUint64(b[0:8], histR[d])
				binary.LittleEndian.PutUint64(b[8:16], histS[d])
				sendParts[d] = b
			}
			counts := rank.Alltoall(p, tagHist, sendParts)

			// Exclusive prefix offsets per source into my window, and the
			// incoming totals sizing it.
			var totalR, totalS uint64
			offR := make([]uint64, parts)
			offS := make([]uint64, parts)
			for s := 0; s < parts; s++ {
				offR[s] = totalR
				offS[s] = totalS
				totalR += binary.LittleEndian.Uint64(counts[s][0:8])
				totalS += binary.LittleEndian.Uint64(counts[s][8:16])
			}
			rank.ExposeWindow(int(totalR+totalS)*ts + 64)

			// Tell every source its absolute byte offsets in my window.
			offParts := make([][]byte, parts)
			for s := 0; s < parts; s++ {
				b := make([]byte, 16)
				binary.LittleEndian.PutUint64(b[0:8], offR[s]*uint64(ts))
				binary.LittleEndian.PutUint64(b[8:16], (totalR+offS[s])*uint64(ts))
				offParts[s] = b
			}
			myOffs := rank.Alltoall(p, tagOffsets, offParts)
			writeR := make([]int, parts)
			writeS := make([]int, parts)
			for d := 0; d < parts; d++ {
				writeR[d] = int(binary.LittleEndian.Uint64(myOffs[d][0:8]))
				writeS[d] = int(binary.LittleEndian.Uint64(myOffs[d][8:16]))
			}
			histT[r] = p.Now() - start

			// ---- Phase 2: network partition with write-combine buffers ----
			t2 := p.Now()
			writeRelation := func(keys []int64, writeOff []int) {
				const combine = 8 << 10 // same batch size as DFI segments
				bufs := make([][]byte, parts)
				flush := func(d int) {
					if len(bufs[d]) == 0 {
						return
					}
					if d == r {
						// Local partition target: plain memcpy, no network.
						copy(rank.Window().Bytes()[writeOff[d]:], bufs[d])
					} else {
						rank.PutAsync(p, d, writeOff[d], bufs[d])
					}
					writeOff[d] += len(bufs[d])
					bufs[d] = nil
				}
				pending := 0
				for _, key := range keys {
					d := partitionOf(key, parts)
					if bufs[d] == nil {
						bufs[d] = make([]byte, 0, combine)
					}
					var tup [16]byte
					binary.LittleEndian.PutUint64(tup[0:8], uint64(key))
					binary.LittleEndian.PutUint64(tup[8:16], uint64(key)^0x5bd1e995)
					bufs[d] = append(bufs[d], tup[:]...)
					if len(bufs[d]) >= combine {
						flush(d)
					}
					pending++
					if pending == 1024 {
						node.Compute(p, 1024*(cfg.ScanCost+cfg.TupleCopyCost))
						pending = 0
					}
				}
				node.Compute(p, time.Duration(pending)*(cfg.ScanCost+cfg.TupleCopyCost))
				for d := 0; d < parts; d++ {
					flush(d)
				}
			}
			writeRelation(inner, writeR)
			writeRelation(outer, writeS)
			for d := 0; d < parts; d++ {
				if d != r {
					rank.Fence(p, d)
				}
			}
			netT[r] = p.Now() - t2

			// ---- Phase 3: synchronization barrier ----
			t3 := p.Now()
			rank.Barrier(p)
			barT[r] = p.Now() - t3

			// ---- Phase 4: local partition pass ----
			t4 := p.Now()
			node.Compute(p, time.Duration(totalR+totalS)*cfg.PartitionCost)
			localT[r] = p.Now() - t4

			// ---- Phase 5: build and probe ----
			t5 := p.Now()
			win := rank.Window().Bytes()
			ht := make(map[int64]int64, totalR)
			for i := uint64(0); i < totalR; i++ {
				tup := win[i*uint64(ts) : (i+1)*uint64(ts)]
				ht[int64(binary.LittleEndian.Uint64(tup[0:8]))] = int64(binary.LittleEndian.Uint64(tup[8:16]))
			}
			node.Compute(p, time.Duration(totalR)*(cfg.BuildCost+cfg.WindowReadCost))
			base := totalR * uint64(ts)
			for i := uint64(0); i < totalS; i++ {
				tup := win[base+i*uint64(ts) : base+(i+1)*uint64(ts)]
				if _, ok := ht[int64(binary.LittleEndian.Uint64(tup[0:8]))]; ok {
					matches[r]++
				}
			}
			node.Compute(p, time.Duration(totalS)*(cfg.ProbeCost+cfg.WindowReadCost))
			joinT[r] = p.Now() - t5
			totals[r] = p.Now()
		})
	}

	if err := k.Run(); err != nil {
		return PhaseTimes{}, err
	}
	pt := PhaseTimes{
		Histogram:        maxDur(histT),
		NetworkPartition: maxDur(netT),
		SyncBarrier:      maxDur(barT),
		LocalPartition:   maxDur(localT),
		BuildProbe:       maxDur(joinT),
		Total:            maxDur(totals),
	}
	for _, m := range matches {
		pt.Matches += m
	}
	return pt, nil
}
