// Package consensus implements the paper's state machine replication use
// case (§4.3.2, §6.3.2): a replicated key-value store driven by
//
//   - Multi-Paxos composed from four DFI flows exactly as in Figure 3
//     (clients → leader shuffle, leader → followers replicate, followers →
//     leader vote shuffle, leader → clients response shuffle);
//   - NOPaxos over DFI's globally-ordered multicast replicate flow (the
//     OUM primitive of Li et al.), where clients themselves collect
//     replica responses; and
//   - DARE (Poke & Hoefler), the hand-crafted RDMA consensus baseline,
//     with its two documented limitations: clients are closed-loop (one
//     outstanding request each) and the leader's write protocol serializes
//     request batches, with mixed read/write streams interrupting batches.
//
// All three expose the same Run entry point returning throughput and
// latency percentiles for one load point; the Figure 15 sweep lives in
// dfi/internal/experiments.
package consensus

import (
	"fmt"
	"sort"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/ycsb"
)

// Config describes one load point of the consensus experiment.
type Config struct {
	Replicas int // leader + followers (paper: 5)
	Clients  int // paper: 6, spread over clientNodes nodes

	// Rate is the aggregate offered load in requests/second for the
	// open-loop DFI systems (ignored by closed-loop DARE).
	Rate float64

	// Requests is the total number of requests to issue across clients,
	// ReadFraction of them YCSB reads.
	Requests     int
	ReadFraction float64

	// MulticastLoss injects loss into the OUM flow (NOPaxos gap handling).
	MulticastLoss float64

	// CrashFollower / CrashAfterProposals crash a follower replica's node
	// mid-run (Multi-Paxos only): follower CrashFollower's node goes down
	// — no more votes, no more consumption, no more lease renewals —
	// after it handled CrashAfterProposals proposals. Zero
	// CrashAfterProposals disables the crash. Commits proceed on the
	// surviving majority.
	CrashFollower       int
	CrashAfterProposals int

	// FailureTimeout is the lease TTL of the flows a crashed follower
	// stalls (Options.LeaseTTL): a replica whose lease goes unrenewed is
	// evicted within about twice that. Required when a crash is
	// configured; zero runs without leases (failure-free operation).
	FailureTimeout time.Duration

	Seed int64
}

// DefaultConfig mirrors the paper's setup at laptop scale.
func DefaultConfig() Config {
	return Config{
		Replicas:     5,
		Clients:      6,
		Rate:         500_000,
		Requests:     6_000,
		ReadFraction: 0.95,
		Seed:         7,
	}
}

// The parts of the paper's setup no load point varies: the number of
// client nodes (paper: 3), the share of early completions excluded from
// latency stats, the YCSB key space, and the state-machine execution
// cost per operation.
const (
	clientNodes    = 3
	warmupFraction = 0.1
	keySpace       = 100_000
	execCost       = 150 * time.Nanosecond
)

// Result summarizes one load point.
type Result struct {
	Throughput float64 // completed requests per second
	Median     time.Duration
	P95        time.Duration
	Completed  int
	Gaps       int // OUM gap NACKs the replicas sent (NOPaxos)

	// Latencies is every measured latency (warmup excluded), ascending:
	// the distribution behind the two percentiles above.
	Latencies []time.Duration
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the measured latencies,
// zero when nothing was measured.
func (r Result) Quantile(q float64) time.Duration {
	n := len(r.Latencies)
	if n == 0 {
		return 0
	}
	return r.Latencies[min(int(float64(n)*q), n-1)]
}

// String formats the headline metrics one line, as the experiment
// tables print them.
func (r Result) String() string {
	return fmt.Sprintf("tput=%.0f req/s median=%v p95=%v completed=%d", r.Throughput, r.Median, r.P95, r.Completed)
}

// RequestSchema is the 64-byte request tuple of the paper's experiment.
var RequestSchema = schema.MustNew(
	schema.Column{Name: "reqid", Type: schema.Uint64},
	schema.Column{Name: "client", Type: schema.Int64},
	schema.Column{Name: "op", Type: schema.Int64},
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "value", Type: schema.Int64},
	schema.Column{Name: "pad", Type: schema.Char(24)},
)

// VoteSchema carries follower votes back to the leader.
var VoteSchema = schema.MustNew(
	schema.Column{Name: "reqid", Type: schema.Uint64},
	schema.Column{Name: "follower", Type: schema.Int64},
)

// ResponseSchema carries responses to clients; "leader" flags the
// leader's response (NOPaxos quorums must include it).
var ResponseSchema = schema.MustNew(
	schema.Column{Name: "reqid", Type: schema.Uint64},
	schema.Column{Name: "client", Type: schema.Int64},
	schema.Column{Name: "value", Type: schema.Int64},
	schema.Column{Name: "leader", Type: schema.Int64},
)

// KVStore is the replicated state machine: a fixed-cost in-memory
// key-value store.
type KVStore struct {
	m    map[int64]int64
	node transport.Endpoint
	cost time.Duration
}

// NewKVStore builds a store executing on the given node.
func NewKVStore(node transport.Endpoint, cost time.Duration) *KVStore {
	return &KVStore{m: make(map[int64]int64), node: node, cost: cost}
}

// Apply executes one operation, charging the execution cost.
func (kv *KVStore) Apply(p *sim.Proc, op ycsb.Op, key, value int64) int64 {
	kv.node.Compute(p, kv.cost)
	if op == ycsb.OpWrite {
		kv.m[key] = value
		return value
	}
	return kv.m[key]
}

// Len returns the number of stored keys.
func (kv *KVStore) Len() int { return len(kv.m) }

// latencyRecorder accumulates per-request latencies.
type latencyRecorder struct {
	sendAt    map[uint64]sim.Time
	latencies []time.Duration
	first     sim.Time
	last      sim.Time
}

func newRecorder(capacity int) *latencyRecorder {
	return &latencyRecorder{sendAt: make(map[uint64]sim.Time, capacity)}
}

func (lr *latencyRecorder) sent(id uint64, at sim.Time) { lr.sendAt[id] = at }

func (lr *latencyRecorder) completed(id uint64, at sim.Time) {
	start, ok := lr.sendAt[id]
	if !ok {
		return // duplicate completion
	}
	delete(lr.sendAt, id)
	lr.latencies = append(lr.latencies, at-start)
	if lr.first == 0 {
		lr.first = at
	}
	lr.last = at
}

// result reduces recorded latencies to the reported percentiles,
// dropping the warmup prefix.
func (lr *latencyRecorder) result(warmupFraction float64) Result {
	n := len(lr.latencies)
	if n == 0 {
		return Result{}
	}
	skip := int(float64(n) * warmupFraction)
	window := lr.last - lr.first
	meas := append([]time.Duration(nil), lr.latencies[skip:]...)
	sort.Slice(meas, func(i, j int) bool { return meas[i] < meas[j] })
	res := Result{Completed: n, Latencies: meas}
	if window > 0 {
		res.Throughput = float64(n) / window.Seconds()
	}
	res.Median, res.P95 = res.Quantile(0.5), res.Quantile(0.95)
	return res
}

// clientNode maps client i to its node (clients spread over the last
// clientNodes nodes of the cluster).
func clientNode(c *fabric.Cluster, cfg Config, client int) *fabric.Node {
	return c.Node(cfg.Replicas + client%clientNodes)
}

// interArrival returns the per-client gap between request submissions for
// the aggregate offered rate.
func (cfg *Config) interArrival() time.Duration {
	perClient := cfg.Rate / float64(cfg.Clients)
	return time.Duration(float64(time.Second) / perClient)
}

// buildEnv creates the kernel and cluster for a consensus run: replicas
// first, then client nodes. A run with a follower crash gets an empty
// fault plan, which the crashing follower schedules its node's crash in.
func buildEnv(cfg Config) (*sim.Kernel, *fabric.Cluster) {
	k := sim.New(cfg.Seed)
	k.Deadline = 10 * time.Minute
	fcfg := fabric.DefaultConfig()
	fcfg.MulticastLoss = cfg.MulticastLoss
	if cfg.CrashAfterProposals > 0 {
		fcfg.Faults = &fabric.FaultPlan{}
	}
	c := fabric.NewCluster(k, cfg.Replicas+clientNodes, fcfg)
	return k, c
}

// reqKey packs (client, per-client sequence) into a unique request id.
func reqKey(client, seq int) uint64 {
	return uint64(client)<<40 | uint64(seq)
}
