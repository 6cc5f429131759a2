package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
	"dfi/internal/transport/sharedring"
)

// desOnlyFlags maps the dfiflow flags -transport=chan cannot honour to
// the reason: what is being simulated (the seed, the payload-copy
// switch, multicast and its loss model, fault plans against the
// simulated fabric), what this command only wires up on the kernel
// (registry constructors that take one, fleets, rejoin schedules), and
// knobs not yet exposed on the wall clock. Leases, evictions and the
// ops plane are not here: the registry runs on either clock. Each flag
// is rejected by name instead of being silently ignored.
var desOnlyFlags = map[string]string{
	"faults":         "fault injection hooks into the simulated fabric",
	"retransmit":     "a lease sets the recovery timeout (TTL/2); a separate wall-clock knob is not exposed",
	"srctimeout":     "target-side silence detection is not exposed on the wall clock; use -lease",
	"rejoin":         "this command only schedules re-attachment on the simulated kernel",
	"replicas":       "the replicated registry is built on the sim-backed registry constructors",
	"snapshot-every": "log snapshots belong to the replicated registry (sim-backed registry constructors)",
	"unlogged-renew": "heartbeat relaxation belongs to the replicated registry (sim-backed registry constructors)",
	"reg-shards":     "registry shards are built on the sim-backed registry constructors",
	"flows":          "concurrent-fleet orchestration runs on the simulated kernel",
	"loss":           "multicast loss is injected by the simulated switch",
	"multicast":      "switch multicast is a fabric primitive",
	"ordered":        "global ordering rides the simulated multicast group",
	"gap-nacks":      "gap recovery rides the simulated multicast group",
	"seed":           "the chan backend runs on wall clock, not a seeded DES",
	"copy":           "the chan backend always moves real bytes",
	"partition":      "this command only exposes rebalance schemes on the simulated kernel",
}

// lockedWriter serializes writes from concurrent goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// chanConfig is the flag subset -transport=chan supports.
type chanConfig struct {
	flowType     string
	nSources     int
	nTargets     int
	tupleSize    int
	megabytes    int
	latency      bool
	segments     int
	segSize      int
	traceOps     int
	shared       bool
	tenant       string
	tenantWeight int
	lease        time.Duration
	evictSpec    string
	ops          opsFlags
}

// runChan runs the flow over the chanloop backend: real goroutines and
// real bytes under wall-clock time, same core data path, registry and
// ops plane as the DES run. -lease and -evict times are wall-clock.
func runChan(cfg chanConfig, stdout, stderr io.Writer) int {
	net := chanloop.New()
	reg := registry.NewLocal()
	var rec *transport.Recorder
	if cfg.traceOps > 0 {
		rec = transport.AttachRecorder(net, cfg.traceOps)
	}
	evictions, err := parseEvictions(cfg.evictSpec)
	if err != nil {
		fmt.Fprintf(stderr, "dfiflow: -evict: %v\n", err)
		return 2
	}
	var pool *sharedring.Pool
	if cfg.shared {
		pool = sharedring.PoolOf(net, sharedring.Config{})
	}
	plane, err := startOps(cfg.ops, reg, rec, pool, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "dfiflow: -metrics-addr: %v\n", err)
		return 2
	}

	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(max(8, cfg.tupleSize-8))},
	)
	spec := core.FlowSpec{Name: "dfiflow", Schema: sch, Options: core.Options{
		SegmentsPerRing: cfg.segments,
		SegmentSize:     cfg.segSize,
		LeaseTTL:        cfg.lease,
		SharedRings:     cfg.shared,
		Tenant:          cfg.tenant,
		TenantWeight:    cfg.tenantWeight,
	}}
	if cfg.latency {
		spec.Options.Optimization = core.OptimizeLatency
	}
	if cfg.flowType == "replicate" {
		spec.Type = core.ReplicateFlow
	}
	for i := 0; i < cfg.nSources; i++ {
		spec.Sources = append(spec.Sources, core.Endpoint{Node: net.NewEndpoint()})
	}
	for i := 0; i < cfg.nTargets; i++ {
		spec.Targets = append(spec.Targets, core.Endpoint{Node: net.NewEndpoint(), Thread: i})
	}
	if err := core.FlowInit(net.NewCtx(), reg, net, spec); err != nil {
		fmt.Fprintf(stderr, "dfiflow: %v\n", err)
		return 2
	}

	perSource := (cfg.megabytes << 20) / sch.TupleSize()
	srcStats := make([]core.SourceStats, cfg.nSources)
	tgtStats := make([]core.TargetStats, cfg.nTargets)
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	fail := func(err error) {
		emu.Lock()
		errs = append(errs, err)
		emu.Unlock()
	}
	// live is stdout for the lines goroutines print while the flow runs.
	live := &lockedWriter{w: stdout}

	start := time.Now()
	for _, ev := range evictions {
		ev := ev
		wg.Add(1)
		go func() {
			defer wg.Done()
			strike(net.NewCtx(), reg, ev, []string{"dfiflow"}, live)
		}()
	}
	for si := 0; si < cfg.nSources; si++ {
		si := si
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := net.NewCtx()
			src, err := core.SourceOpen(p, reg, "dfiflow", si)
			if err != nil {
				fail(fmt.Errorf("source %d: %w", si, err))
				return
			}
			plane.publish(src)
			tup := sch.NewTuple()
			rng := p.Rand()
			for i := 0; i < perSource; i++ {
				sch.PutInt64(tup, 0, rng.Int63())
				if err := src.Push(p, tup); err != nil {
					fail(fmt.Errorf("source %d: push: %w", si, err))
					return
				}
			}
			if err := src.Close(p); err != nil {
				fail(fmt.Errorf("source %d: close: %w", si, err))
				return
			}
			srcStats[si] = src.Stats()
		}()
	}
	for ti := 0; ti < cfg.nTargets; ti++ {
		ti := ti
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := net.NewCtx()
			tgt, err := core.TargetOpen(p, reg, "dfiflow", ti)
			if err != nil {
				fail(fmt.Errorf("target %d: %w", ti, err))
				return
			}
			plane.publish(tgt)
			for {
				if _, _, ok := tgt.ConsumeSegment(p); !ok {
					break
				}
			}
			if tgt.Evicted() {
				fmt.Fprintf(live, "target %d: evicted from the flow membership\n", ti)
			}
			tgtStats[ti] = tgt.Stats()
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	// An endpoint error ends that endpoint, not the summary: what the
	// others did and the event trace are what explain it. Exit 1.
	for _, err := range errs {
		fmt.Fprintf(stderr, "dfiflow: %v\n", err)
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
	if cfg.shared {
		mode = " over shared rings"
	}
	fmt.Fprintf(stdout, "flow: %s %s%s over chan transport, %d sources → %d targets, %s tuples, %d MiB/source\n",
		cfg.flowType, spec.Options.Optimization, mode, cfg.nSources, cfg.nTargets, fmtBytes(sch.TupleSize()), cfg.megabytes)
	fmt.Fprintf(stdout, "wall runtime: %v\n", wall.Round(time.Microsecond))
	fmt.Fprintf(stdout, "tuples pushed:   %d  (consumed: %d)\n", pushed, consumed)
	fmt.Fprintf(stdout, "aggregate sender bandwidth: %.2f GiB/s (in-process memory copies)\n",
		float64(payload)/wall.Seconds()/(1<<30))
	for si, s := range srcStats {
		fmt.Fprintf(stdout, "  source %d: %s\n", si, s)
	}
	for ti, s := range tgtStats {
		fmt.Fprintf(stdout, "  target %d: %s\n", ti, s)
	}
	if cfg.shared {
		links := pool.Links()
		fmt.Fprintf(stdout, "shared rings: %d links, %d slots × %s payload each\n",
			len(links), pool.Config().Slots, fmtBytes(pool.Config().SlotPayload))
		tname := cfg.tenant
		if tname == "" {
			tname = "default"
		}
		tc := pool.Tenant(tname)
		fmt.Fprintf(stdout, "tenant %q: credits acquired=%d refunded=%d\n",
			tname, tc.Acquired.Load(), tc.Refunded.Load())
	}
	if cfg.lease > 0 {
		fmt.Fprintf(stdout, "lease renewals: %d registry round trips\n", reg.LeaseRenewRPCs())
	}
	if rec != nil {
		fmt.Fprintln(stdout)
		rec.Log(stdout)
		rec.Summary(stdout, 5)
	}
	code := plane.finish(stdout, stderr)
	if len(errs) > 0 {
		code = 1
	}
	return code
}
