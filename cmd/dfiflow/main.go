// Command dfiflow runs one ad-hoc DFI flow on the simulated fabric and
// prints per-endpoint statistics — a workbench for exploring flow
// configurations without writing a program.
//
// Examples:
//
//	dfiflow -type shuffle -sources 4 -targets 8 -tuple 256 -mb 64
//	dfiflow -type replicate -multicast -targets 8 -tuple 64 -mb 16
//	dfiflow -type replicate -multicast -ordered -loss 0.02 -mb 4
//	dfiflow -type combiner -sources 8 -tuple 64 -mb 32
//	dfiflow -type shuffle -latency -tuple 64 -mb 1
//	dfiflow -faults drop-write=0.01,delay=1us,jitter=3us -retransmit 50us -mb 4
//	dfiflow -faults crash=1@500us -retransmit 40us -srctimeout 300us -mb 1
//	dfiflow -lease 100us -faults crash=5@500us -sources 4 -targets 4 -mb 2
//	dfiflow -lease 100us -evict 1@300us -targets 4 -mb 2
//	dfiflow -partition ring -sources 4 -targets 8 -mb 16
//	dfiflow -partition ring -lease 100us -evict 1@300us -rejoin 1@600us -targets 4 -mb 2
//	dfiflow -replicas 3 -faults reg-crash-master=5us,reg-drop=0.1 -mb 1
//	dfiflow -replicas 3 -lease 100us -snapshot-every 16 -mb 2
//	dfiflow -replicas 5 -lease 50us -unlogged-renew -faults reg-crash-master=300us -mb 1
//	dfiflow -metrics-addr 127.0.0.1:0 -linger 30s -mb 4
//	dfiflow -lease 100us -evict 1@300us -events-out events.jsonl -mb 2
//	dfiflow -shared -sources 2 -targets 4 -tuple 64 -mb 4
//	dfiflow -shared -flows 500 -lease 100us -reg-shards 4 -mb 8
//	dfiflow -shared -tenant batch -tenant-weight 4 -mb 4
//	dfiflow -transport chan -shared -targets 4 -mb 16
//	dfiflow -transport chan -lease 200ms -evict 1@50ms -events-out events.jsonl -mb 64
//	dfiflow -transport chan -type replicate -ordered -sources 2 -targets 4 -mb 4
//
// With -metrics-addr the process serves live introspection over HTTP
// while the flow runs: /metrics (Prometheus text exposition of the
// same counters the final summary prints), /status (JSON cluster
// snapshot: flows, leases, epochs, incarnations, replication), /events
// (JSONL dump of the structured event trace). -linger keeps the
// endpoint up after the run so the final counters can be scraped.
//
// With -shared the flow multiplexes over the transport's shared
// per-node-pair rings (connection scaling: memory and queue pairs per
// node pair, not per flow), and -tenant/-tenant-weight feed the weighted
// credit scheduler that keeps one hot flow from starving its ring
// neighbors. -flows N runs N identical flows concurrently, on shared or
// on private rings. Which flags combine is the library's admission
// (core.FlowInit) to decide; a spec it rejects exits 2 with its message.
//
// The process exits non-zero when any endpoint reports ErrFlowBroken
// (a flow that could not be completed or repaired) or when a scheduled
// -rejoin is rejected, so fault scenarios are scriptable. Flag and
// configuration errors exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dfi/internal/core"
	"dfi/internal/core/partition"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/scenario"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body: flags in, exit code out. Flag errors and a
// spec the library rejects return 2. An endpoint error ends that endpoint,
// not the run: the summary and the event trace still come out — they are
// what explains it — and the exit code is 1 when a flow broke, a rejoin
// was rejected, the simulation could not finish, or an endpoint failed
// although nothing was injected.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfiflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		transportF = fs.String("transport", "fabric", "transport backend: fabric (deterministic simulation) | chan (in-process goroutines, wall clock)")

		flowType  = fs.String("type", "shuffle", "flow type: shuffle | replicate | combiner")
		nSources  = fs.Int("sources", 2, "source threads (one node each)")
		nTargets  = fs.Int("targets", 2, "target threads (one node each; combiner: threads on one node)")
		tupleSize = fs.Int("tuple", 64, "tuple size in bytes (≥16)")
		megabytes = fs.Int("mb", 16, "payload volume per source in MiB")
		latency   = fs.Bool("latency", false, "latency-optimized instead of bandwidth-optimized")
		multicast = fs.Bool("multicast", false, "replicate flow: use switch multicast")
		ordered   = fs.Bool("ordered", false, "replicate flow: global ordering (implies -multicast)")
		loss      = fs.Float64("loss", 0, "multicast loss probability")
		gapNacks  = fs.Int("gap-nacks", 0, "ordered replicate: unanswered NACK rounds before a gap is escalated to gap agreement (0 = default 3)")
		segments  = fs.Int("segments", 32, "segments per ring")
		segSize   = fs.Int("segsize", 0, "segment payload size (0 = default)")
		seed      = fs.Int64("seed", 1, "deterministic seed")
		traceOps  = fs.Int("trace", 0, "record fabric operations; print the first N and a summary")
		faults    = fs.String("faults", "", "fault plan, e.g. drop-write=0.01,delay=1us,jitter=3us,dup=0.05,reorder=0.1,crash=1@500us")
		retrans   = fs.Duration("retransmit", 0, "enable source-side loss recovery with this stall timeout")
		srcTime   = fs.Duration("srctimeout", 0, "target-side failure detection: declare a source failed after this silence")
		lease     = fs.Duration("lease", 0, "lease-based membership: endpoint lease TTL (0 = disabled)")
		partMode  = fs.String("partition", "modulo", "key partitioning scheme: modulo | ring (bounded rebalance on eviction)")
		evictSpec = fs.String("evict", "", "administratively evict targets, e.g. 1@300us,2@400us")
		rejoin    = fs.String("rejoin", "", "re-attach evicted targets, e.g. 1@600us (requires -lease)")
		replicas  = fs.Int("replicas", 0, "replicate the registry over this many consensus replicas (odd, ≥3; 0 = standalone)")
		snapEvery = fs.Int("snapshot-every", 0, "replicated registry: snapshot+compact the log every N committed commands (0 = default cadence, <0 = never)")
		unlogRen  = fs.Bool("unlogged-renew", false, "replicated registry: serve lease renewals without a log round (explicit heartbeat relaxation)")

		shared    = fs.Bool("shared", false, "multiplex the flow over shared per-node-pair rings instead of private per-(source,target) rings (connection scaling; see docs/OPERATIONS.md)")
		nFlows    = fs.Int("flows", 1, "run this many identical concurrent flows (total -mb volume splits across them)")
		tenant    = fs.String("tenant", "", "shared rings: attribute credit usage to this named tenant (default \"default\"; requires -shared)")
		tenWeight = fs.Int("tenant-weight", 0, "shared rings: credit-scheduler weight, slots divide among streams in proportion (default 1; requires -shared)")
		regShards = fs.Int("reg-shards", 0, "shard the registry's flow table over this many independent registries by flow-name hash (0/1 = unsharded)")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /status and /events over HTTP on this address while the flow runs (e.g. 127.0.0.1:0)")
		linger      = fs.Duration("linger", 0, "keep the metrics endpoint up this long after the run (requires -metrics-addr)")
		eventsCap   = fs.Int("events", 0, "per-node event ring capacity for the structured trace (0 = default 1024)")
		eventsOut   = fs.String("events-out", "", "write the structured event trace as JSONL to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dfiflow: "+format+"\n", a...)
		return 2
	}
	switch {
	case *nFlows < 1:
		return usage("-flows %d: want at least 1", *nFlows)
	case *tupleSize < 16:
		return usage("-tuple %d: want at least 16", *tupleSize)
	case *megabytes < 0:
		return usage("-mb %d: want at least 0", *megabytes)
	case *traceOps < 0:
		return usage("-trace %d: want at least 0", *traceOps)
	case *eventsCap < 0:
		return usage("-events %d: want at least 0", *eventsCap)
	case *linger != 0 && *metricsAddr == "":
		return usage("-linger requires -metrics-addr")
	}
	evictions, err := parseEvictions(*evictSpec, *nTargets)
	if err != nil {
		return usage("-evict: %v", err)
	}
	rejoins, err := parseEvictions(*rejoin, *nTargets) // same TARGET@TIME grammar
	if err != nil {
		return usage("-rejoin: %v", err)
	}
	rejoinAt := make(map[int]time.Duration)
	for _, rj := range rejoins {
		rejoinAt[rj.Target] = rj.At
	}
	scheme, err := partition.ParseScheme(*partMode)
	if err != nil {
		return usage("-partition: %v", err)
	}

	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(max(8, *tupleSize-8))},
	)
	spec := core.FlowSpec{Name: "dfiflow", Schema: sch, Options: core.Options{
		SegmentsPerRing:   *segments,
		SegmentSize:       *segSize,
		RetransmitTimeout: *retrans,
		SourceTimeout:     *srcTime,
		LeaseTTL:          *lease,
		Multicast:         *multicast || *ordered,
		GlobalOrdering:    *ordered,
		GapNackLimit:      *gapNacks,
		Partitioning:      scheme,
		SharedRings:       *shared,
		Tenant:            *tenant,
		TenantWeight:      *tenWeight,
	}}
	if *latency {
		spec.Options.Optimization = core.OptimizeLatency
	}
	switch *flowType {
	case "shuffle":
	case "replicate":
		spec.Type = core.ReplicateFlow
	case "combiner":
		spec.Type = core.CombinerFlow
		spec.Options.Aggregation = core.AggSum
	default:
		return usage("unknown flow type %q", *flowType)
	}
	if len(rejoinAt) > 0 && spec.Type == core.CombinerFlow {
		return usage("-rejoin is not supported for combiner flows")
	}

	// The one per-backend step: a cluster and a registry on its clock.
	var b *scenario.Backend
	nodes := *nSources + *nTargets
	rcfg := scenario.RegistryConfig{Shards: *regShards, ReplicaConfig: registry.ReplicaConfig{
		Replicas: *replicas, SnapshotEvery: *snapEvery, UnloggedRenew: *unlogRen}}
	switch *transportF {
	case "fabric":
		if *loss < 0 || *loss > 1 {
			return usage("-loss %v: want a probability in [0, 1]", *loss)
		}
		fcfg := fabric.DefaultConfig()
		fcfg.MulticastLoss = *loss
		if *faults != "" {
			if fcfg.Faults, rcfg.Faults, err = parseFaults(*faults, nodes); err != nil {
				return usage("-faults: %v", err)
			}
		}
		b = scenario.Fabric(nodes, *seed, fcfg)
	case "chan":
		if err := rejected(fs, desOnlyFlags, "-transport=chan does not support -%s: %s (see docs/ARCHITECTURE.md, DES-only knobs)"); err != nil {
			return usage("%v", err)
		}
		b = scenario.Chan(nodes)
	default:
		return usage("unknown transport %q (want fabric or chan)", *transportF)
	}
	if err := b.UseRegistry(rcfg); err != nil {
		return usage("-replicas: %v", err)
	}
	var rec *transport.Recorder
	if *traceOps > 0 {
		rec = transport.AttachRecorder(b.Transport, *traceOps)
		// The per-message framing overhead feeds the recorder's
		// wire-volume estimate (its "wire bytes" line).
		rec.WireOverheadBytes = b.WireOverhead
	}
	var pool *sharedring.Pool
	if *shared {
		pool = sharedring.PoolOf(b.Transport, sharedring.Config{})
	}
	plane, err := startOps(opsFlags{metricsAddr: *metricsAddr, linger: *linger, eventsCap: *eventsCap, eventsOut: *eventsOut},
		b.Registry, rec, pool, stdout)
	if err != nil {
		return usage("-metrics-addr: %v", err)
	}

	for i := 0; i < *nSources; i++ {
		spec.Sources = append(spec.Sources, core.Endpoint{Node: b.Node(i)})
	}
	for i := 0; i < *nTargets; i++ {
		node := b.Node(*nSources + i)
		if spec.Type == core.CombinerFlow {
			node = b.Node(*nSources) // combiner: one target node
		}
		spec.Targets = append(spec.Targets, core.Endpoint{Node: node, Thread: i})
	}

	// With -flows N the same topology runs N times concurrently (the
	// shared rings multiplex all of them over one link per node pair);
	// the -mb volume splits across the fleet so totals stay comparable.
	res := scenario.Run(b, scenario.Scenario{
		Spec:      spec,
		Flows:     *nFlows,
		Tuples:    (*megabytes << 20) / sch.TupleSize() / *nFlows,
		Evictions: evictions,
		Rejoins:   rejoinAt,
		Publish:   plane.publish,
		Log:       stdout,
	})
	if res.Init != nil {
		return usage("%v", res.Init)
	}
	if res.Kernel != nil {
		fmt.Fprintf(stderr, "dfiflow: %v\n", res.Kernel)
	}

	var pushed, consumed, payload uint64
	for _, s := range res.Sources {
		pushed += s.TuplesPushed
		payload += s.PayloadBytes
	}
	for _, s := range res.Targets {
		consumed += s.TuplesConsumed
	}
	mode := ""
	if *shared {
		mode = " over shared rings"
	}
	mode += b.Via
	if *nFlows == 1 {
		fmt.Fprintf(stdout, "flow: %s %s%s, %s partitioning, %d sources → %d targets, %s tuples, %d MiB/source\n",
			*flowType, spec.Options.Optimization, mode, scheme, *nSources, *nTargets, fmtBytes(sch.TupleSize()), *megabytes)
	} else {
		fmt.Fprintf(stdout, "fleet: %d %s flows%s, %d sources → %d targets each, %s tuples, %d MiB total\n",
			*nFlows, *flowType, mode, *nSources, *nTargets, fmtBytes(sch.TupleSize()), *megabytes)
	}
	fmt.Fprintf(stdout, "%s runtime: %v\n", b.Clock, res.End)
	fmt.Fprintf(stdout, "tuples pushed:   %d  (consumed: %d)\n", pushed, consumed)
	fmt.Fprintf(stdout, "aggregate sender bandwidth: %.2f GiB/s (%s)\n",
		float64(payload)/res.End.Seconds()/(1<<30), b.Rate)
	if *nFlows == 1 {
		for si, s := range res.Sources {
			fmt.Fprintf(stdout, "  source %d: %s\n", si, s)
		}
		for ti, s := range res.Targets {
			if spec.Type != core.CombinerFlow {
				fmt.Fprintf(stdout, "  target %d: %s\n", ti, s)
			}
		}
	}
	if *shared {
		// Shared-ring accounting. Residual occupancy after a drain is
		// normal: the sender's release mirror refreshes lazily on Send, so
		// the last consumed slots still count as held; CheckConservation
		// proves every held slot is attributed to a live stream.
		pcfg := pool.Config()
		links := pool.Links()
		fmt.Fprintf(stdout, "shared rings: %d links, %d slots × %s payload each\n",
			len(links), pcfg.Slots, fmtBytes(pcfg.SlotPayload))
		for _, l := range links {
			conserved := "conserved"
			if err := l.CheckConservation(); err != nil {
				conserved = fmt.Sprintf("CONSERVATION VIOLATED: %v", err)
			}
			fmt.Fprintf(stdout, "  ring %d→%d: occupancy=%d released=%d credits %s\n",
				l.Src().ID(), l.Dst().ID(), l.Occupancy(), l.Released(), conserved)
		}
		tname := *tenant
		if tname == "" {
			tname = "default"
		}
		tc := pool.Tenant(tname)
		fmt.Fprintf(stdout, "tenant %q: credits acquired=%d refunded=%d\n",
			tname, tc.Acquired.Load(), tc.Refunded.Load())
	}
	if *lease > 0 {
		fmt.Fprintf(stdout, "lease renewals: %d registry round trips\n", b.Registry.LeaseRenewRPCs())
	}
	if r, ok := b.Registry.(*registry.Registry); ok && r.Replicas() > 0 {
		fmt.Fprintf(stdout, "registry: %d replicas, master=%d ballot=%d elections=%d snapshots=%d snap-index=%d log-len=%d applied=%d\n",
			r.Replicas(), r.Master(), r.Ballot(), r.Elections(),
			r.Snapshots(), r.SnapshotIndex(), r.LogLen(), r.AppliedSize())
	}
	if rec != nil {
		fmt.Fprintln(stdout)
		rec.Log(stdout)
		rec.Summary(stdout, 5)
	}
	if code := plane.finish(stdout, stderr); code != 0 {
		return code
	}
	if res.Kernel != nil || res.Broken != nil {
		return 1
	}
	return 0
}

func fmtBytes(n int) string {
	if n >= 1<<10 {
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}
