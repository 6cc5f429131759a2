package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/core/partition"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport/sharedring"
)

// The five workloads on the simulated fabric. One sim process runs at a
// time, so host time is the simulator's own cost and simulated time is
// what the modelled cluster would take.

// spanBlock is how many tuples one push or consume span covers.
const spanBlock = 4096

// sampleEvery is the stamping stride of the streaming DES workloads.
const sampleEvery = 64

// paddedSchema is the tuple of the sized workloads: key, stamp, padding
// and (from 32 bytes) the guard word.
func paddedSchema(size int) *schema.Schema {
	return schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "stamp", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(size - 24)},
		schema.Column{Name: "guard", Type: schema.Int64},
	)
}

// kvSchema is the fleets' 16-byte tuple; the value carries the stamp.
var kvSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "value", Type: schema.Int64},
)

// stream describes a DES run of one-way flows.
type stream struct {
	nodes     int
	flows     func(c *fabric.Cluster) []core.FlowSpec
	perSource int
	bySegment bool // targets drain with ConsumeSegment, else Consume
	initers   int  // parallel FlowInit processes
	sharded   int  // registry shards, 0 for the plain registry
	// inOrder marks one-source one-target flows whose keys carry the
	// tuple index in their low 32 bits, so each target can check order.
	inOrder bool
}

// desEnv is what every DES round builds first.
type desEnv struct {
	k   *sim.Kernel
	c   *fabric.Cluster
	reg core.Registry
	// renewRPCs reads the registry's lease-renewal round trips.
	renewRPCs func() uint64

	parties int // processes that must be ready before the timed phase
	ready   int
	gate    *sim.Barrier
	waiting int // targets still consuming
}

func newDES(r *round, nodes, shards int) *desEnv {
	e := &desEnv{k: sim.New(r.seed)}
	// A hung flow must end the run, not spin: no round needs a simulated
	// minute.
	e.k.Deadline = time.Minute
	e.c = fabric.NewCluster(e.k, nodes, fabric.DefaultConfig())
	if shards > 0 {
		s := registry.NewSharded(e.k, shards)
		e.reg, e.renewRPCs = s, s.LeaseRenewRPCs
	} else {
		s := registry.New(e.k)
		e.reg, e.renewRPCs = s, s.LeaseRenewRPCs
	}
	e.reg = r.tr.wrapRegistry(e.reg)
	r.tr.attach(e.c, fabric.DefaultConfig().WireOverheadBytes, true)
	return e
}

// expect declares how many processes will call arrive and how many of
// them are targets.
func (e *desEnv) expect(parties, targets int) {
	e.parties, e.waiting = parties, targets
	e.gate = sim.NewBarrier(e.k, parties)
}

// arrive blocks until every party has opened its endpoint; the last one
// opens the timed phase.
func (e *desEnv) arrive(r *round, p *sim.Proc) {
	if e.ready++; e.ready == e.parties {
		r.begin(p.Now(), e.k.Events())
	}
	e.gate.Await(p)
}

// done marks one target finished; the last one closes the timed phase.
func (e *desEnv) done(r *round, p *sim.Proc) {
	if e.waiting--; e.waiting == 0 {
		r.end(p.Now(), e.k.Events())
	}
}

// run drives the kernel to completion, reads the shared-ring pool and
// releases it (the program keeps pools in a process-wide table).
func (e *desEnv) run(r *round, flows []core.FlowSpec) {
	if err := e.k.Run(); err != nil {
		r.problem("kernel: %v", err)
	}
	r.sharedLayer(sharedring.PoolOf(e.c, sharedring.Config{}), flows)
	sharedring.DropPool(e.c)
	if r.t1.IsZero() {
		r.problem("the timed phase never ended")
		r.t0, r.t1 = r.start, time.Now()
	}
}

func runStream(r *round, s stream) {
	e := newDES(r, s.nodes, s.sharded)
	flows := s.flows(e.c)
	tupleSize := flows[0].Schema.TupleSize()
	perSource := r.scaled(s.perSource)

	var gens []*gen
	var sinks []*sink
	var srcStats []core.SourceStats
	var srcBusy time.Duration // sum over sources of timed-phase time until Close returned
	parties, targets := 0, 0
	for _, f := range flows {
		parties += len(f.Sources) + len(f.Targets)
		targets += len(f.Targets)
	}
	e.expect(parties, targets)

	for w := 0; w < s.initers; w++ {
		w := w
		e.k.Spawn(fmt.Sprintf("init%d", w), func(p *sim.Proc) {
			for f := w; f < len(flows); f += s.initers {
				sp := r.tr.span("flow_init", f, p)
				if err := core.FlowInit(p, e.reg, e.c, flows[f]); err != nil {
					r.problem("init %s: %v", flows[f].Name, err)
				}
				sp.end(p)
			}
		})
	}

	for f := range flows {
		f, spec := f, flows[f]
		home, err := partition.NewTable(spec.Options.Partitioning, len(spec.Targets), 0)
		if err != nil {
			r.problem("partition table: %v", err)
			return
		}
		for si := range spec.Sources {
			si := si
			g := newGen(r.seed, len(gens), tupleSize)
			gens = append(gens, g)
			e.k.Spawn(fmt.Sprintf("src%d.%d", f, si), func(p *sim.Proc) {
				sp := r.tr.span("source_open", f, p)
				src, err := core.SourceOpen(p, e.reg, spec.Name, si)
				sp.end(p)
				if err != nil {
					r.problem("open source %d of %s: %v", si, spec.Name, err)
					return
				}
				e.arrive(r, p)
				tup := spec.Schema.NewTuple()
				for i := 0; i < perSource; {
					from, stop := i, min(i+spanBlock, perSource)
					sp := r.tr.span("push", f, p)
					for ; i < stop; i++ {
						key := g.next()
						if s.inOrder {
							key = key<<32 | uint64(i)
						}
						g.fill(tup, key, i%sampleEvery == 0, p.Now())
						if err := src.Push(p, tup); err != nil {
							r.problem("push on %s: %v", spec.Name, err)
							return
						}
					}
					sp.endN(p, i-from)
				}
				sp = r.tr.span("source_close", f, p)
				if err := src.Close(p); err != nil {
					r.problem("close source %d of %s: %v", si, spec.Name, err)
				}
				sp.end(p)
				srcBusy += p.Now() - r.v0
				srcStats = append(srcStats, src.Stats())
			})
		}
		for ti := range spec.Targets {
			ti := ti
			k := &sink{size: tupleSize}
			sinks = append(sinks, k)
			e.k.Spawn(fmt.Sprintf("tgt%d.%d", f, ti), func(p *sim.Proc) {
				sp := r.tr.span("target_open", f, p)
				tgt, err := core.TargetOpen(p, e.reg, spec.Name, ti)
				sp.end(p)
				if err != nil {
					r.problem("open target %d of %s: %v", ti, spec.Name, err)
					return
				}
				e.arrive(r, p)
				// sampled checks what only a sampled tuple pays for: its
				// latency and that it was routed to its key's home.
				sampled := func(tup []byte, pushed time.Duration) {
					k.deliver = append(k.deliver, int64(p.Now()-pushed))
					if at := home.Home(binary.LittleEndian.Uint64(tup[keyOff:])); at != ti {
						k.corrupt++
						r.problem("%s: a key of target %d arrived at target %d", spec.Name, at, ti)
					}
				}
				// pull returns the next tuples: one, or a whole segment.
				pull := func() ([]byte, int, bool) {
					tup, ok := tgt.Consume(p)
					return tup, 1, ok
				}
				if s.bySegment {
					pull = func() ([]byte, int, bool) { return tgt.ConsumeSegment(p) }
				}
				var next uint64 // in-order flows: the index expected next
				misordered := uint64(0)
				for more := true; more; {
					sp := r.tr.span("consume", f, p)
					n := 0
					for n < spanBlock {
						data, count, ok := pull()
						if !ok {
							more = false
							break
						}
						for i := 0; i < count; i++ {
							tup := data[i*tupleSize : (i+1)*tupleSize]
							if yes, pushed := k.take(tup); yes {
								sampled(tup, pushed)
							}
							if s.inOrder {
								if binary.LittleEndian.Uint64(tup[keyOff:])&0xffffffff != next {
									misordered++
								}
								next++
							}
						}
						n += count
					}
					sp.endN(p, n)
				}
				e.done(r, p)
				if misordered > 0 {
					k.corrupt += misordered
					r.problem("%s: %d tuples out of order", spec.Name, misordered)
				}
				if got := tgt.Stats().TuplesConsumed; got != k.count {
					r.problem("%s target %d: Stats counts %d tuples, Consume returned %d", spec.Name, ti, got, k.count)
				}
				if s.inOrder && k.count != uint64(perSource) {
					r.problem("%s: flow delivered %d of %d tuples", spec.Name, k.count, perSource)
				}
			})
		}
	}

	e.run(r, flows)
	r.settle(gens, sinks, tupleSize)
	r.coreLayer(srcStats, srcBusy)
	r.layer["registry.lease_renew_rpcs"] = float64(e.renewRPCs())
	r.flows = float64(len(flows))
}

// coreLayer folds the sources' own counters into the round and applies
// the oracle's rule that a fault-free run retransmits and reroutes
// nothing.
func (r *round) coreLayer(stats []core.SourceStats, srcBusy time.Duration) {
	var t core.SourceStats
	for _, s := range stats {
		t.TuplesPushed += s.TuplesPushed
		t.SegmentsWritten += s.SegmentsWritten
		t.StallRemote += s.StallRemote
		t.StallLocal += s.StallLocal
		t.FooterProbes += s.FooterProbes
		t.ProbeMisses += s.ProbeMisses
		t.Backoff += s.Backoff
		t.Retransmits += s.Retransmits
		t.Rerouted += s.Rerouted
	}
	if t.Retransmits != 0 || t.Rerouted != 0 {
		r.problem("fault-free run retransmitted %d segments and rerouted %d tuples", t.Retransmits, t.Rerouted)
	}
	l := r.layer
	l["core.segments_written"] = float64(t.SegmentsWritten)
	l["core.tuples_per_segment"] = ratio(float64(t.TuplesPushed), float64(t.SegmentsWritten))
	l["core.footer_probes"] = float64(t.FooterProbes)
	l["core.probe_miss_ratio"] = ratio(float64(t.ProbeMisses), float64(t.FooterProbes))
	l["core.virt_stall_remote_share"] = ratio(float64(t.StallRemote), float64(srcBusy))
	l["core.virt_stall_local_share"] = ratio(float64(t.StallLocal), float64(srcBusy))
	l["core.virt_backoff_share"] = ratio(float64(t.Backoff), float64(srcBusy))
	l["core.retransmits"] = float64(t.Retransmits)
	l["core.rerouted"] = float64(t.Rerouted)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runBW1K is Figure 7a's link-saturating point: 2 source threads on node
// 0, 8 targets on nodes 1-8, 1 KiB tuples in 8 KiB x 32 segment rings.
func runBW1K(r *round) {
	sch := paddedSchema(1024)
	runStream(r, stream{
		nodes: 9, perSource: 125_000, bySegment: true, initers: 1,
		flows: func(c *fabric.Cluster) []core.FlowSpec {
			spec := core.FlowSpec{Name: "bw", Schema: sch, Options: core.Options{SegmentSize: 8 << 10, SegmentsPerRing: 32}}
			for th := 0; th < 2; th++ {
				spec.Sources = append(spec.Sources, core.Endpoint{Node: c.Node(0), Thread: th})
			}
			for n := 1; n <= 8; n++ {
				spec.Targets = append(spec.Targets, core.Endpoint{Node: c.Node(n)})
			}
			return []core.FlowSpec{spec}
		},
	})
}

// runSmall64 pushes and consumes 64 B tuples one by one from 2 source
// nodes to 4 target nodes.
func runSmall64(r *round) {
	sch := paddedSchema(64)
	runStream(r, stream{
		nodes: 6, perSource: 1_000_000, initers: 1,
		flows: func(c *fabric.Cluster) []core.FlowSpec {
			spec := core.FlowSpec{Name: "small", Schema: sch}
			for n := 0; n < 2; n++ {
				spec.Sources = append(spec.Sources, core.Endpoint{Node: c.Node(n)})
			}
			for n := 2; n < 6; n++ {
				spec.Targets = append(spec.Targets, core.Endpoint{Node: c.Node(n)})
			}
			return []core.FlowSpec{spec}
		},
	})
}

// fleetFlows builds the 256-flow fleet of ISSUE 10's scale sweep without
// its eviction victims: sources on nodes 0/1, targets on nodes 2/3.
func fleetFlows(shared bool) func(c *fabric.Cluster) []core.FlowSpec {
	return func(c *fabric.Cluster) []core.FlowSpec {
		flows := make([]core.FlowSpec, 256)
		for f := range flows {
			flows[f] = core.FlowSpec{
				Name:    fmt.Sprintf("fleet-f%d", f),
				Schema:  kvSchema,
				Sources: []core.Endpoint{{Node: c.Node(f % 2)}},
				Targets: []core.Endpoint{{Node: c.Node(2 + f%2)}},
				Options: core.Options{SegmentSize: 256},
			}
			if shared {
				o := &flows[f].Options
				o.SharedRings = true
				o.LeaseTTL = 30 * time.Microsecond
				o.Tenant = fmt.Sprintf("tenant%d", f%4)
				o.TenantWeight = 1 + f%3
			}
		}
		return flows
	}
}

func runFleetShared(r *round) {
	runStream(r, stream{nodes: 4, perSource: 125, initers: 16, sharded: 4, inOrder: true, flows: fleetFlows(true)})
}

func runFleetPrivate(r *round) {
	runStream(r, stream{nodes: 4, perSource: 1000, initers: 16, sharded: 4, inOrder: true, flows: fleetFlows(false)})
}
