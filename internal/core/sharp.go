package core

import (
	"fmt"
	"time"

	"dfi/internal/schema"
	"dfi/internal/transport"
)

// This file implements the paper's stated avenue of future work for
// combiner flows (§4.2.3, §5.4): pushing the aggregation *into the
// network* the way InfiniBand's SHARP protocol does, so the reduction no
// longer funnels through the in-going link of the target node.
//
// The in-network combiner is composed from existing DFI machinery:
//
//	sources ──ingest flow──▶ switch reduction engine ──flush flow──▶ target
//
// The reduction engine runs on a switch-resident endpoint
// (transport.Transport.SwitchEndpoint): every sender is limited only by
// its own link, and the engine forwards compact partial aggregates to the
// target whenever its table fills, shrinking the target's ingress
// traffic from O(tuples) to O(groups).
//
// This is an extension beyond the paper's implementation; Table/figure
// reproductions never use it. The abl-sharp ablation experiment
// quantifies its headline effect.

// SharpOptions configures the in-network combiner.
type SharpOptions struct {
	// Aggregation, GroupCol and ValueCol mirror combiner-flow options.
	Aggregation AggFunc
	GroupCol    int
	ValueCol    int
}

// The reduction engine's table bound, reaching which (or flow end) flushes
// the partial aggregates, and its cost per tuple and port (line rate).
const (
	sharpFlushGroups = 4096
	sharpTupleCost   = time.Nanosecond
)

// SharpCombiner is an N:1 aggregation whose reduction happens inside the
// switch. Construct with NewSharpCombiner, attach sources with
// SourceOpen on the ingest flow name (IngestFlow), and read results from
// the target with Results after Run completes.
type SharpCombiner struct {
	name   string
	spec   SharpOptions
	sch    *schema.Schema
	engine transport.Endpoint
}

// aggTupleSchema is the flush-flow schema: group key, value, count.
var aggTupleSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Uint64},
	schema.Column{Name: "value", Type: schema.Int64},
	schema.Column{Name: "count", Type: schema.Int64},
)

// NewSharpCombiner initializes the two underlying flows and spawns the
// switch reduction engine. Sources attach to the ingest flow (name
// returned by IngestFlow) exactly like any combiner flow sources.
func NewSharpCombiner(p transport.Ctx, reg Registry, cluster transport.Transport,
	name string, sources []Endpoint, target Endpoint, sch *schema.Schema, opt SharpOptions) (*SharpCombiner, error) {

	sc := &SharpCombiner{name: name, spec: opt, sch: sch, engine: cluster.SwitchEndpoint()}

	// One reduction engine per ingress port, one port per source: SHARP
	// reduces in parallel at line rate on every port of the switch.
	engineEPs := make([]Endpoint, len(sources))
	for i := range engineEPs {
		engineEPs[i] = Endpoint{Node: sc.engine, Thread: i}
	}
	ingest := FlowSpec{
		Name:    sc.IngestFlow(),
		Sources: sources,
		Targets: engineEPs,
		Schema:  sch,
		Options: Options{consumeCost: sharpTupleCost}, // ASIC-rate ingest
	}
	flush := FlowSpec{
		Name:    sc.flushFlow(),
		Sources: engineEPs,
		Targets: []Endpoint{target},
		Schema:  aggTupleSchema,
	}
	if err := FlowInit(p, reg, cluster, ingest); err != nil {
		return nil, err
	}
	if err := FlowInit(p, reg, cluster, flush); err != nil {
		return nil, err
	}
	for port := range engineEPs {
		cluster.Spawn(p, fmt.Sprintf("sharp-engine-%s-%d", name, port), func(ep transport.Ctx) {
			sc.runEngine(ep, reg, port)
		})
	}
	return sc, nil
}

// IngestFlow returns the flow name sources must SourceOpen.
func (sc *SharpCombiner) IngestFlow() string { return sc.name + "/ingest" }

func (sc *SharpCombiner) flushFlow() string { return sc.name + "/flush" }

// runEngine is one per-port reduction engine: it consumes its share of
// the ingest flow, reduces tuples at the configured line rate, and
// flushes partial aggregates to the target.
func (sc *SharpCombiner) runEngine(p transport.Ctx, reg Registry, port int) {
	in, err := TargetOpen(p, reg, sc.IngestFlow(), port)
	if err != nil {
		panic(err)
	}
	out, err := SourceOpen(p, reg, sc.flushFlow(), port)
	if err != nil {
		panic(err)
	}
	groups := make(aggGroups, sharpFlushGroups)
	ts := sc.sch.TupleSize()

	flushAll := func() {
		tup := aggTupleSchema.NewTuple()
		for key, g := range groups {
			aggTupleSchema.PutUint64(tup, 0, key)
			aggTupleSchema.PutInt64(tup, 1, g.value)
			aggTupleSchema.PutInt64(tup, 2, g.count)
			if err := out.Push(p, tup); err != nil {
				panic(err)
			}
			delete(groups, key)
		}
	}
	for {
		data, count, ok := in.ConsumeSegment(p)
		if !ok {
			break
		}
		sc.engine.Compute(p, time.Duration(count)*sharpTupleCost)
		for i := 0; i < count; i++ {
			tup := schema.Tuple(data[i*ts : (i+1)*ts])
			groups.fold(sc.spec.Aggregation, sc.sch.KeyUint64(tup, sc.spec.GroupCol), sc.sch.Int64(tup, sc.spec.ValueCol), 1)
		}
		if len(groups) >= sharpFlushGroups {
			flushAll()
		}
	}
	flushAll()
	out.Close(p)
}

// TargetOpenSharp attaches the final aggregation target: it merges the
// engine's partial aggregates into exact totals.
func (sc *SharpCombiner) TargetOpenSharp(p transport.Ctx, reg Registry) (*SharpTarget, error) {
	t, err := TargetOpen(p, reg, sc.flushFlow(), 0)
	if err != nil {
		return nil, err
	}
	return &SharpTarget{t: t, agg: sc.spec.Aggregation}, nil
}

// SharpTarget merges partial aggregates flushed by the reduction engine.
type SharpTarget struct {
	t      *Target
	agg    AggFunc
	groups aggGroups
}

// Run drains the flush flow, merging partials until flow end.
func (st *SharpTarget) Run(p transport.Ctx) {
	st.groups = make(aggGroups)
	for {
		tup, ok := st.t.Consume(p)
		if !ok {
			return
		}
		st.groups.fold(st.agg, aggTupleSchema.Uint64(tup, 0), aggTupleSchema.Int64(tup, 1), aggTupleSchema.Int64(tup, 2))
	}
}

// Results returns the merged aggregates (see CombinerTarget.Results).
func (st *SharpTarget) Results() []AggResult { return st.groups.results(st.agg) }

// Consumed reports the number of partial-aggregate tuples received — the
// target-ingress traffic the in-network reduction saved is the difference
// to the raw tuple count.
func (st *SharpTarget) Consumed() uint64 { return st.t.Consumed() }
