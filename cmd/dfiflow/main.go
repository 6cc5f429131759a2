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
// snapshot: flows, leases, epochs, watermarks, replication), /events
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dfi/internal/core"
	"dfi/internal/core/partition"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// rejected cross-checks the flags set on the command line against a
// table of flags the chosen mode cannot honour, before any machinery
// spins up: one line per offender, naming it and the table's reason
// (format takes the two).
func rejected(fs *flag.FlagSet, table map[string]string, format string) error {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if why, ok := table[f.Name]; ok {
			bad = append(bad, fmt.Sprintf(format, f.Name, why))
		}
	})
	if len(bad) == 0 {
		return nil
	}
	return errors.New(strings.Join(bad, "\n\t"))
}

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
		gapNacks  = fs.Int("gap-nacks", 0, "ordered replicate: unanswered NACK rounds before a gap is skipped or escalated (0 = default 3)")
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
		rejoin    = fs.String("rejoin", "", "re-attach evicted targets, e.g. 1@600us (requires -retransmit or -lease)")
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
	// Bodies print while the flow runs, concurrently on the wall clock.
	stdout = &lockedWriter{w: stdout}
	if *nFlows < 1 {
		return usage("-flows %d: want at least 1", *nFlows)
	}
	evictions, err := parseEvictions(*evictSpec)
	if err != nil {
		return usage("-evict: %v", err)
	}
	rejoins, err := parseEvictions(*rejoin) // same TARGET@TIME grammar
	if err != nil {
		return usage("-rejoin: %v", err)
	}
	rejoinAt := make(map[int]time.Duration)
	for _, rj := range rejoins {
		rejoinAt[rj.target] = rj.at
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
	var b *backend
	rcfg := registry.ReplicaConfig{Replicas: *replicas, SnapshotEvery: *snapEvery, UnloggedRenew: *unlogRen}
	switch *transportF {
	case "fabric":
		b, err = newFabricBackend(*nSources+*nTargets, *seed, *loss, *faults, *regShards, rcfg)
	case "chan":
		if err = rejected(fs, desOnlyFlags, "-transport=chan does not support -%s: %s (see docs/ARCHITECTURE.md, DES-only knobs)"); err == nil {
			b, err = newChanBackend(*nSources+*nTargets, *regShards, rcfg)
		}
	default:
		return usage("unknown transport %q (want fabric or chan)", *transportF)
	}
	if err != nil {
		return usage("%v", err)
	}
	var rec *transport.Recorder
	if *traceOps > 0 {
		rec = transport.AttachRecorder(b.tpt, *traceOps)
		// The per-message framing overhead feeds the recorder's
		// wire-volume estimate (its "wire bytes" line).
		rec.WireOverheadBytes = b.wireOverhead
	}
	var pool *sharedring.Pool
	if *shared {
		pool = sharedring.PoolOf(b.tpt, sharedring.Config{})
	}
	plane, err := startOps(opsFlags{metricsAddr: *metricsAddr, linger: *linger, eventsCap: *eventsCap, eventsOut: *eventsOut},
		b.reg, rec, pool, stdout)
	if err != nil {
		return usage("-metrics-addr: %v", err)
	}

	for i := 0; i < *nSources; i++ {
		spec.Sources = append(spec.Sources, core.Endpoint{Node: b.node(i)})
	}
	for i := 0; i < *nTargets; i++ {
		node := b.node(*nSources + i)
		if spec.Type == core.CombinerFlow {
			node = b.node(*nSources) // combiner: one target node
		}
		spec.Targets = append(spec.Targets, core.Endpoint{Node: node, Thread: i})
	}

	// With -flows N the same topology runs N times concurrently (the
	// shared rings multiplex all of them over one link per node pair);
	// the -mb volume splits across the fleet so totals stay comparable.
	flowNames := make([]string, *nFlows)
	for f := range flowNames {
		flowNames[f] = "dfiflow"
		if *nFlows > 1 {
			flowNames[f] = fmt.Sprintf("dfiflow-%d", f)
		}
	}

	perSource := (*megabytes << 20) / sch.TupleSize() / *nFlows
	srcStats := make([]core.SourceStats, *nFlows**nSources)
	tgtStats := make([]core.TargetStats, *nFlows**nTargets)
	// What the bodies report back; mu orders them on the wall clock.
	var (
		mu     sync.Mutex
		end    time.Duration // when the last target finished
		failed bool
	)
	// Endpoint errors are expected when faults or evictions were injected
	// and fail the run only if they broke a flow; otherwise any does.
	injected := *faults != "" || *evictSpec != ""
	fail := func() {
		mu.Lock()
		failed = true
		mu.Unlock()
	}
	epDied := func(kind string, idx int, err error) {
		fmt.Fprintf(stdout, "%s %d: %v\n", kind, idx, err)
		if !injected || errors.Is(err, core.ErrFlowBroken) {
			fail()
		}
	}

	var initErr error // the library rejected the spec: nothing will run
	b.spawn("init", func(p transport.Ctx) {
		for _, name := range flowNames {
			spec := spec
			spec.Name = name
			if initErr = core.FlowInit(p, b.reg, b.tpt, spec); initErr != nil {
				b.abort()
				return
			}
		}
	})
	// With -flows an eviction strikes the slot in every flow.
	for _, ev := range evictions {
		b.spawn(fmt.Sprintf("evict%d", ev.target), func(p transport.Ctx) { strike(p, b.reg, ev, flowNames, stdout) })
	}
	for fi, flow := range flowNames {
		for si := 0; si < *nSources; si++ {
			b.spawn(fmt.Sprintf("src%d.%d", fi, si), func(p transport.Ctx) {
				src, err := core.SourceOpen(p, b.reg, flow, si)
				if err != nil {
					epDied("source", si, fmt.Errorf("open: %w", err))
					return
				}
				plane.publish(src)
				tup := sch.NewTuple()
				rng := p.Rand()
				for i := 0; i < perSource; i++ {
					sch.PutInt64(tup, 0, rng.Int63())
					if err := src.Push(p, tup); err != nil {
						// Expected under an injected crash: report, stop pushing.
						epDied("source", si, fmt.Errorf("push: %w", err))
						break
					}
				}
				if err := src.Close(p); err != nil {
					epDied("source", si, fmt.Errorf("close: %w", err))
				}
				srcStats[fi**nSources+si] = src.Stats()
			})
		}
		for ti := 0; ti < *nTargets; ti++ {
			b.spawn(fmt.Sprintf("tgt%d.%d", fi, ti), func(p transport.Ctx) {
				defer func() {
					mu.Lock()
					end = max(end, p.Now())
					mu.Unlock()
				}()
				if spec.Type == core.CombinerFlow {
					ct, err := core.CombinerTargetOpen(p, b.reg, flow, ti)
					if err != nil {
						epDied("target", ti, fmt.Errorf("open: %w", err))
						return
					}
					ct.Run(p)
					return
				}
				tgt, err := core.TargetOpen(p, b.reg, flow, ti)
				if err != nil {
					epDied("target", ti, fmt.Errorf("open: %w", err))
					return
				}
				plane.publish(tgt)
				consume := func(tgt *core.Target) {
					for {
						if _, _, ok := tgt.ConsumeSegment(p); !ok {
							break
						}
					}
				}
				consume(tgt)
				if tgt.Evicted() {
					if *nFlows == 1 {
						fmt.Fprintf(stdout, "target %d: evicted from the flow membership\n", ti)
					} else {
						fmt.Fprintf(stdout, "target %d (%s): evicted from the flow membership\n", ti, flow)
					}
				}
				if at, ok := rejoinAt[ti]; ok {
					if at > p.Now() {
						p.Sleep(at - p.Now())
					}
					nt, err := tgt.Reattach(p)
					if err != nil {
						fmt.Fprintf(stdout, "target %d: rejoin rejected: %v\n", ti, err)
						fail()
					} else {
						fmt.Fprintf(stdout, "target %d: rejoined at %v, resumed from %d consumed tuples\n", ti, p.Now(), nt.ResumedFrom())
						consume(nt)
						tgt = nt
					}
				}
				if dead := tgt.FailedSources(); len(dead) > 0 {
					fmt.Fprintf(stdout, "target %d: sources declared failed: %v\n", ti, dead)
				}
				tgtStats[fi**nTargets+ti] = tgt.Stats()
			})
		}
	}
	err = b.wait()
	if initErr != nil {
		return usage("%v", initErr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dfiflow: %v\n", err)
		failed = true
	}

	var pushed, consumed, payload uint64
	for _, s := range srcStats {
		pushed += s.TuplesPushed
		payload += s.PayloadBytes
	}
	for _, s := range tgtStats {
		consumed += s.TuplesConsumed
	}
	mode := ""
	if *shared {
		mode = " over shared rings"
	}
	mode += b.via
	if *nFlows == 1 {
		fmt.Fprintf(stdout, "flow: %s %s%s, %s partitioning, %d sources → %d targets, %s tuples, %d MiB/source\n",
			*flowType, spec.Options.Optimization, mode, scheme, *nSources, *nTargets, fmtBytes(sch.TupleSize()), *megabytes)
	} else {
		fmt.Fprintf(stdout, "fleet: %d %s flows%s, %d sources → %d targets each, %s tuples, %d MiB total\n",
			*nFlows, *flowType, mode, *nSources, *nTargets, fmtBytes(sch.TupleSize()), *megabytes)
	}
	fmt.Fprintf(stdout, "%s runtime: %v\n", b.clock, end)
	fmt.Fprintf(stdout, "tuples pushed:   %d  (consumed: %d)\n", pushed, consumed)
	fmt.Fprintf(stdout, "aggregate sender bandwidth: %.2f GiB/s (%s)\n",
		float64(payload)/end.Seconds()/(1<<30), b.rate)
	if *nFlows == 1 {
		for si, s := range srcStats {
			fmt.Fprintf(stdout, "  source %d: %s\n", si, s)
		}
		for ti, s := range tgtStats {
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
		fmt.Fprintf(stdout, "lease renewals: %d registry round trips\n", b.reg.LeaseRenewRPCs())
	}
	if r, ok := b.reg.(*registry.Registry); ok && r.Replicas() > 0 {
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
	if failed {
		return 1
	}
	return 0
}

// eviction is one parsed -evict entry: evict the target slot at the
// virtual time.
type eviction struct {
	target int
	at     time.Duration
}

// parseEvictions parses the -evict flag: comma-separated TARGET@TIME.
func parseEvictions(spec string) ([]eviction, error) {
	if spec == "" {
		return nil, nil
	}
	var out []eviction
	for _, field := range strings.Split(spec, ",") {
		idx, at, ok := strings.Cut(strings.TrimSpace(field), "@")
		if !ok {
			return nil, fmt.Errorf("%q: want TARGET@TIME", field)
		}
		target, err := strconv.Atoi(idx)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", field, err)
		}
		t, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", field, err)
		}
		out = append(out, eviction{target: target, at: t})
	}
	return out, nil
}

func fmtBytes(n int) string {
	if n >= 1<<10 {
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}
