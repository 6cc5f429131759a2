package scenario

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// censusMaxEvents budgets one census row. The largest clean row at
// seeds 1, 7, 11 and 42 dispatches 987 842 kernel events, settling
// included (private rings, leased, combiner, 64 flows, evicted at
// 80 µs, seed 7); the budget is about four times that, so a row that
// stops making progress fails in about a second of host time instead of
// running to the hour-long Deadline.
const censusMaxEvents = 4_000_000

// censusRow is one eviction scenario: the dfiflow run `-mb 1` with 2
// sources and 2 targets, target 1 evicted once and, when rejoin is set,
// re-attached rejoin after the eviction.
type censusRow struct {
	shared  bool
	lease   bool
	typ     string // shuffle | replicate | combiner
	ordered bool   // replicate over ordered multicast
	flows   int
	evict   time.Duration
	rejoin  time.Duration
}

func (r censusRow) String() string {
	ring, lease := "private", "nolease"
	if r.shared {
		ring = "shared"
	}
	if r.lease {
		lease = "lease"
	}
	typ := r.typ
	if r.ordered {
		typ += "-ordered"
	}
	name := fmt.Sprintf("%s/%s/%s/flows=%d/evict=%dus", ring, lease, typ, r.flows, r.evict.Microseconds())
	if r.rejoin > 0 {
		name += fmt.Sprintf("/rejoin=%dus", (r.evict + r.rejoin).Microseconds())
	}
	return name
}

// command is the dfiflow command line that runs the same scenario.
func (r censusRow) command(seed int64) string {
	cmd := "dfiflow -mb 1"
	if r.shared {
		cmd += " -shared"
	}
	if r.lease {
		cmd += " -lease 100us"
	}
	cmd += " -type " + r.typ
	if r.ordered {
		cmd += " -ordered"
	}
	cmd += fmt.Sprintf(" -flows %d -evict 1@%dus", r.flows, r.evict.Microseconds())
	if r.rejoin > 0 {
		cmd += fmt.Sprintf(" -rejoin 1@%dus", (r.evict + r.rejoin).Microseconds())
	}
	return cmd + fmt.Sprintf(" -seed %d", seed)
}

// censusRows is the full table: {private, shared} × {no lease, 100 µs
// lease} × {shuffle, replicate, combiner} × flows {1, 4, 16, 20, 64} ×
// an eviction of target 1 at {20, 40, 80} µs, then the rejoin rows:
// private rings, 100 µs lease, {shuffle, replicate} × the same flows and
// evictions, target 1 re-attached 60 µs after its eviction (only a
// leased target rejoins; shared rings and combiners cannot), and the same
// rejoin over ordered multicast with flows {1, 4, 16, 20} (its 64-flow
// rows still stop making progress, and are left out). short keeps the
// rows with 4 or 20 flows evicted at 40 µs: 24 eviction rows — four of
// them, the shared 20-flow shuffle and replicate rows, stopped making
// progress while a shared-ring send could not give up — and 6 rejoin
// rows, two of them ordered — the 20-flow one stopped making progress
// while a multicast source could declare a leased rejoiner that was
// still catching up dead.
func censusRows(short bool) []censusRow {
	var rows []censusRow
	flowCounts := []int{1, 4, 16, 20, 64}
	each := func(types []string, row func(typ string, flows int, at time.Duration)) {
		for _, typ := range types {
			for _, flows := range flowCounts {
				for _, at := range []time.Duration{20 * time.Microsecond, 40 * time.Microsecond, 80 * time.Microsecond} {
					if short && (at != 40*time.Microsecond || (flows != 4 && flows != 20)) {
						continue
					}
					row(typ, flows, at)
				}
			}
		}
	}
	for _, shared := range []bool{false, true} {
		for _, lease := range []bool{false, true} {
			each([]string{"shuffle", "replicate", "combiner"}, func(typ string, flows int, at time.Duration) {
				rows = append(rows, censusRow{shared: shared, lease: lease, typ: typ, flows: flows, evict: at})
			})
		}
	}
	each([]string{"shuffle", "replicate"}, func(typ string, flows int, at time.Duration) {
		rows = append(rows, censusRow{lease: true, typ: typ, flows: flows, evict: at, rejoin: 60 * time.Microsecond})
	})
	flowCounts = flowCounts[:4]
	each([]string{"replicate"}, func(typ string, flows int, at time.Duration) {
		rows = append(rows, censusRow{lease: true, typ: typ, ordered: true, flows: flows, evict: at, rejoin: 60 * time.Microsecond})
	})
	return rows
}

// censusSeed is the kernel seed: DFI_CHAOS_SEED when set (`make chaos`
// sweeps it), else 1.
func censusSeed() int64 {
	if v, err := strconv.ParseInt(os.Getenv("DFI_CHAOS_SEED"), 10, 64); err == nil {
		return v
	}
	return 1
}

// TestEvictionCensus runs every census row to completion under the event
// budget. Each must end cleanly, every target evicted or drained and
// every source closed; on shared rings, once the rings are settled,
// every credit acquired must have come back; on a rejoin row, every
// flow's target 1 must have rejoined. Delivery counts are not asserted:
// no reference semantics for them exists yet.
func TestEvictionCensus(t *testing.T) {
	seed := censusSeed()
	for _, r := range censusRows(testing.Short()) {
		t.Run(r.String(), func(t *testing.T) {
			var log bytes.Buffer
			events, err := runCensusRow(r, seed, &log)
			if err != nil {
				t.Errorf("%v after %d events\nrepro: %s\n%s", err, events, r.command(seed), log.String())
			}
		})
	}
}

// runCensusRow builds the row's scenario exactly as dfiflow builds it
// from r.command's flags, runs it and checks the shared rings. It
// returns the kernel's event count.
func runCensusRow(r censusRow, seed int64, log *bytes.Buffer) (uint64, error) {
	const nodes, sources, targets = 4, 2, 2
	k := sim.New(seed)
	k.Deadline = Deadline
	k.MaxEvents = censusMaxEvents
	b := fabricOn(k, nodes, fabric.DefaultConfig())
	if err := b.UseRegistry(RegistryConfig{}); err != nil {
		return 0, err
	}
	defer sharedring.DropPool(b.Transport)

	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(56)},
	)
	spec := core.FlowSpec{Name: "dfiflow", Schema: sch, Options: core.Options{
		SegmentsPerRing: 32,
		SharedRings:     r.shared,
		Multicast:       r.ordered,
		GlobalOrdering:  r.ordered,
	}}
	if r.lease {
		spec.Options.LeaseTTL = 100 * time.Microsecond
	}
	switch r.typ {
	case "replicate":
		spec.Type = core.ReplicateFlow
	case "combiner":
		spec.Type = core.CombinerFlow
		spec.Options.Aggregation = core.AggSum
	}
	for i := 0; i < sources; i++ {
		spec.Sources = append(spec.Sources, core.Endpoint{Node: b.Node(i)})
	}
	for i := 0; i < targets; i++ {
		node := b.Node(sources + i)
		if spec.Type == core.CombinerFlow {
			node = b.Node(sources)
		}
		spec.Targets = append(spec.Targets, core.Endpoint{Node: node, Thread: i})
	}
	sc := Scenario{
		Spec:      spec,
		Flows:     r.flows,
		Tuples:    (1 << 20) / sch.TupleSize() / r.flows,
		Evictions: []Eviction{{Target: 1, At: r.evict}},
		Log:       log,
	}
	if r.rejoin > 0 {
		sc.Rejoins = map[int]time.Duration{1: r.evict + r.rejoin}
	}
	res := Run(b, sc)
	if err := res.Err(); err != nil {
		return k.Events(), err
	}
	if n := bytes.Count(log.Bytes(), []byte("target 1: rejoined at ")); r.rejoin > 0 && n != r.flows {
		return k.Events(), fmt.Errorf("target 1 rejoined in %d of %d flows", n, r.flows)
	}
	if !r.shared {
		return k.Events(), nil
	}

	// Every consumer has left; pump what is still committed on each ring
	// and pull the release counters until the sender mirrors catch up.
	pool := sharedring.PoolOf(b.Transport, sharedring.Config{})
	links := pool.Links()
	b.Spawn("settle", func(p transport.Ctx) {
		for _, l := range links {
			l.Settle(p)
		}
	})
	if err := b.Wait(); err != nil {
		return k.Events(), fmt.Errorf("settle: %w", err)
	}
	for _, l := range links {
		if err := l.CheckConservation(); err != nil {
			return k.Events(), fmt.Errorf("ring %d→%d: %w", l.Src().ID(), l.Dst().ID(), err)
		}
		if occ := l.Occupancy(); occ != 0 {
			return k.Events(), fmt.Errorf("ring %d→%d: %d slots never released after Settle", l.Src().ID(), l.Dst().ID(), occ)
		}
	}
	if tc := pool.Tenant("default"); tc.Acquired.Load() != tc.Refunded.Load() {
		return k.Events(), fmt.Errorf("tenant %q: credits acquired=%d refunded=%d", "default", tc.Acquired.Load(), tc.Refunded.Load())
	}
	return k.Events(), nil
}
