// Package join implements the paper's OLAP use case (§4.3.1, §6.3.1):
// distributed radix hash joins over DFI shuffle flows, the MPI-based
// state-of-the-art baseline they are compared against (Barthels et al.,
// as cited by the paper), and the fragment-and-replicate variant obtained
// by swapping a shuffle flow for a replicate flow (Figure 14).
//
// All three implementations join an inner relation R (unique keys) with
// an outer relation S (foreign keys into R), both range-partitioned
// across the cluster's nodes, and report a per-phase time breakdown
// matching the stacked bars of Figures 13 and 14.
package join

import (
	"fmt"
	"math/rand"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// TupleSchema is the 16-byte join tuple: 8-byte key, 8-byte payload (the
// paper's joins use compressed 8-byte tuples; the factor cancels out of
// all comparisons).
var TupleSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "payload", Type: schema.Int64},
)

// Config parameterizes a join run.
type Config struct {
	Nodes          int
	WorkersPerNode int // sender/receiver thread pairs per node

	InnerTuples int // |R|, split evenly across nodes
	OuterTuples int // |S|, split evenly across nodes

	// Per-tuple CPU costs (DESIGN.md §6). The same costs apply to the DFI
	// and MPI variants — only the communication layer differs.
	ScanCost      time.Duration // read + partition-function evaluation
	HistogramCost time.Duration // histogram pass (MPI join only)
	PartitionCost time.Duration // local partition pass
	BuildCost     time.Duration // hash-table insert
	ProbeCost     time.Duration // hash-table probe

	// TupleCopyCost and WindowReadCost are the MPI join's analogs of
	// DFI's per-tuple push and consume costs: copying a tuple into a
	// write-combine buffer, and reading a tuple out of the one-sided
	// window. Keeping them equal to DFI's costs (12ns/10ns) makes the
	// comparison isolate the structural differences (histogram pass,
	// barrier, overlap).
	TupleCopyCost  time.Duration
	WindowReadCost time.Duration

	// SegmentsPerRing sizes DFI rings (smaller than the paper's 32 keeps
	// host memory in check at full fan-out; §6.1.4 shows 8 segments cost
	// only ~8% bandwidth).
	SegmentsPerRing int

	// StragglerNode (if >= 0) runs that node's CPU at StragglerScale.
	StragglerNode  int
	StragglerScale float64

	// ZipfSkew, when > 0, draws the outer relation's foreign keys from a
	// zipfian distribution with this s parameter (must be > 1) instead of
	// uniformly — the skewed workloads §2.3 says bulk-synchronous
	// shuffles handle poorly.
	ZipfSkew float64

	Seed int64
}

// DefaultConfig returns a laptop-scale version of the paper's Figure 13
// setup (8 nodes × 8 workers, relations scaled 1000×).
func DefaultConfig() Config {
	return Config{
		Nodes:           8,
		WorkersPerNode:  8,
		InnerTuples:     2_560_000,
		OuterTuples:     2_560_000,
		ScanCost:        2 * time.Nanosecond,
		HistogramCost:   3 * time.Nanosecond,
		TupleCopyCost:   12 * time.Nanosecond,
		WindowReadCost:  10 * time.Nanosecond,
		PartitionCost:   8 * time.Nanosecond,
		BuildCost:       25 * time.Nanosecond,
		ProbeCost:       25 * time.Nanosecond,
		SegmentsPerRing: 8,
		StragglerNode:   -1,
		StragglerScale:  1,
		Seed:            42,
	}
}

// PhaseTimes is the per-phase breakdown reported by each join variant
// (maxima across workers, as the paper's stacked bars report the critical
// path). Zero phases do not apply to the variant.
type PhaseTimes struct {
	Histogram        time.Duration // MPI only: histogram pass + exchange
	NetworkPartition time.Duration // network shuffle & partition
	SyncBarrier      time.Duration // MPI only: barrier after partitioning
	NetworkReplicate time.Duration // replicate join only
	LocalPartition   time.Duration
	BuildProbe       time.Duration
	Total            time.Duration
	Matches          uint64
}

// String renders every phase time and the match count on one line. A
// pure function of the value: safe from any goroutine.
func (pt PhaseTimes) String() string {
	return fmt.Sprintf("hist=%v netpart=%v barrier=%v replicate=%v localpart=%v join=%v total=%v matches=%d",
		pt.Histogram, pt.NetworkPartition, pt.SyncBarrier, pt.NetworkReplicate,
		pt.LocalPartition, pt.BuildProbe, pt.Total, pt.Matches)
}

// relationChunk generates node-local chunks of R and S deterministically:
// R holds each key in [0, inner) exactly once (round-robin across nodes);
// S holds uniform-random foreign keys, so every S tuple matches exactly
// one R tuple and total matches = |S|.
type workload struct {
	cfg        Config
	innerChunk [][]int64 // per node: keys
	outerChunk [][]int64
}

func generate(cfg Config, seedMix int64) *workload {
	w := &workload{cfg: cfg}
	w.innerChunk = make([][]int64, cfg.Nodes)
	w.outerChunk = make([][]int64, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		for i := n; i < cfg.InnerTuples; i += cfg.Nodes {
			w.innerChunk[n] = append(w.innerChunk[n], int64(i))
		}
	}
	// xorshift for speed and determinism.
	state := uint64(cfg.Seed+seedMix) + 0x9E3779B97F4A7C15
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	per := cfg.OuterTuples / cfg.Nodes
	var zipf *rand.Zipf
	if cfg.ZipfSkew > 1 {
		zipf = rand.NewZipf(rand.New(rand.NewSource(cfg.Seed+seedMix)), cfg.ZipfSkew, 1,
			uint64(cfg.InnerTuples-1))
	}
	for n := 0; n < cfg.Nodes; n++ {
		cnt := per
		if n == cfg.Nodes-1 {
			cnt = cfg.OuterTuples - per*(cfg.Nodes-1)
		}
		chunk := make([]int64, cnt)
		for i := range chunk {
			if zipf != nil {
				chunk[i] = int64(zipf.Uint64())
			} else {
				chunk[i] = int64(next() % uint64(cfg.InnerTuples))
			}
		}
		w.outerChunk[n] = chunk
	}
	return w
}

// partitions returns the radix fan-out: one partition per worker.
func (cfg *Config) partitions() int { return cfg.Nodes * cfg.WorkersPerNode }

// partitionOf routes a key to its radix partition. Both join variants and
// both relations must agree on it.
func partitionOf(key int64, parts int) int {
	return int(schema.Hash(uint64(key)) % uint64(parts))
}

// buildEnv creates the kernel/cluster pair for one join run.
func buildEnv(cfg Config) (*sim.Kernel, *fabric.Cluster, *registry.Registry) {
	k := sim.New(cfg.Seed)
	k.Deadline = 10 * time.Minute
	fcfg := fabric.DefaultConfig()
	c := fabric.NewCluster(k, cfg.Nodes, fcfg)
	if cfg.StragglerNode >= 0 && cfg.StragglerNode < cfg.Nodes {
		c.Node(cfg.StragglerNode).CPUScale = cfg.StragglerScale
	}
	return k, c, registry.New(k)
}

// maxDur folds per-worker phase durations into the critical path.
func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
