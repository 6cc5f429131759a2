package core

import (
	"fmt"
	"sort"
	"time"

	"dfi/internal/schema"
	"dfi/internal/transport"
)

// CombinerTarget is the exit point of a combiner flow (paper §4.2.3): an
// N:1 shuffle whose target aggregates tuples into groups as they arrive,
// instead of handing each tuple to the application. The reduction executes
// on the target thread, whose in-going link therefore caps the flow
// (Figure 9); the paper leaves moving it into the switch to future work.
type CombinerTarget struct {
	t    *Target
	agg  AggFunc
	gcol int
	vcol int

	groups aggGroups
	node   computeNode
}

type computeNode interface {
	Compute(p transport.Ctx, d time.Duration)
}

type aggState struct {
	key   uint64
	value int64
	count int64
	init  bool
}

// aggGroups is a combiner target's aggregation state, one entry per group.
type aggGroups map[uint64]*aggState

// fold aggregates one tuple's val into key's group.
func (gs aggGroups) fold(agg AggFunc, key uint64, val int64) {
	g := gs[key]
	if g == nil {
		g = &aggState{key: key}
		gs[key] = g
	}
	g.count++
	switch agg {
	case AggSum, AggCount:
		g.value += val
	case AggMin:
		if !g.init || val < g.value {
			g.value = val
		}
	case AggMax:
		if !g.init || val > g.value {
			g.value = val
		}
	}
	g.init = true
}

// results returns the groups in ascending key order. For AggCount the
// Value field carries the group cardinality.
func (gs aggGroups) results(agg AggFunc) []AggResult {
	out := make([]AggResult, 0, len(gs))
	for _, g := range gs {
		v := g.value
		if agg == AggCount {
			v = g.count
		}
		out = append(out, AggResult{Key: g.key, Value: v, Count: g.count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// AggResult is one aggregated group.
type AggResult struct {
	Key   uint64
	Value int64
	Count int64
}

// CombinerTargetOpen attaches to target thread idx of a combiner flow.
func CombinerTargetOpen(p transport.Ctx, reg Registry, name string, idx int) (*CombinerTarget, error) {
	meta := lookupFlow(p, reg, name)
	if meta.spec.Type != CombinerFlow {
		return nil, fmt.Errorf("dfi: flow %q is a %s flow, not a combiner flow", name, meta.spec.Type)
	}
	t, err := TargetOpen(p, reg, name, idx)
	if err != nil {
		return nil, err
	}
	o := &meta.spec.Options
	return &CombinerTarget{
		t:      t,
		agg:    o.Aggregation,
		gcol:   o.GroupCol,
		vcol:   o.ValueCol,
		groups: make(aggGroups),
		node:   meta.spec.Targets[idx].Node,
	}, nil
}

// Run ingests the whole flow, aggregating every tuple into its group, and
// returns once all sources have closed. The per-tuple aggregation cost is
// charged to the target thread.
func (c *CombinerTarget) Run(p transport.Ctx) {
	sch := c.t.Schema()
	ts := sch.TupleSize()
	for {
		data, count, ok := c.t.ConsumeSegment(p)
		if !ok {
			return
		}
		c.node.Compute(p, time.Duration(count)*aggCost)
		for i := 0; i < count; i++ {
			tup := schema.Tuple(data[i*ts : (i+1)*ts])
			c.ingest(sch, tup)
		}
	}
}

func (c *CombinerTarget) ingest(sch *schema.Schema, tup schema.Tuple) {
	c.groups.fold(c.agg, sch.KeyUint64(tup, c.gcol), sch.Int64(tup, c.vcol))
}

// Results returns the aggregated groups in ascending key order. For
// AggCount the Value field carries the group cardinality.
func (c *CombinerTarget) Results() []AggResult { return c.groups.results(c.agg) }

// Consumed returns the number of tuples aggregated.
func (c *CombinerTarget) Consumed() uint64 { return c.t.Consumed() }

// Free releases the underlying target buffers.
func (c *CombinerTarget) Free() { c.t.Free() }
