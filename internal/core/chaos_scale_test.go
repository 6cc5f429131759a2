package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
	"dfi/internal/transport/sharedring"
)

// Connection-scaling sweep (ISSUE 10 acceptance): O(1000) concurrent
// small shared-ring flows over a 4-node cluster and a 4-shard registry
// must move the same total payload at an aggregate virtual throughput
// within 10% of a 100-flow baseline, with lease-renewal traffic
// sublinear in the flow count (batched per node, one RPC per shard
// touched) and per-ring credit conservation intact — all while ~5% of
// the flows lose a target to an administrative eviction mid-burst.
// Seed-swept via DFI_CHAOS_SEED (`make chaos-scale`).

// scaleRun is one simulated fleet's outcome.
type scaleRun struct {
	delivered uint64        // tuples handed to applications, all flows
	makespan  time.Duration // first push start → last target finish
	leaseRPCs uint64        // batched renewal round trips, all shards
}

// throughput is the run's aggregate data rate in tuples per second of
// virtual time.
func (r scaleRun) throughput() float64 {
	if r.makespan <= 0 {
		return 0
	}
	return float64(r.delivered) / r.makespan.Seconds()
}

// runScaleFleet simulates `flows` shared-ring flows of `perFlow` tuples
// each: sources on nodes 0/1, targets on nodes 2/3, every 20th flow
// carrying a second target that a chaos process evicts mid-burst.
func runScaleFleet(t *testing.T, flows, perFlow, shards int) scaleRun {
	t.Helper()
	k := sim.New(testSeed())
	k.Deadline = 60 * time.Second
	k.MaxEvents = 200_000_000
	c := fabric.NewCluster(k, 4, fabric.DefaultConfig())
	reg := registry.NewSharded(k, shards)

	specs := make([]FlowSpec, flows)
	for f := 0; f < flows; f++ {
		spec := FlowSpec{
			Name:    fmt.Sprintf("scale-f%d", f),
			Schema:  kvSchema,
			Sources: []Endpoint{{Node: c.Node(f % 2)}},
			Targets: []Endpoint{{Node: c.Node(2 + f%2)}},
			Options: Options{
				SharedRings: true,
				SegmentSize: 256,
				// Tight enough that the fleet's drain spans several renewal
				// ticks (flat-out pushes finish in tens of microseconds of
				// virtual time).
				LeaseTTL:     30 * time.Microsecond,
				Tenant:       fmt.Sprintf("tenant%d", f%4),
				TenantWeight: 1 + f%3,
			},
		}
		if f%20 == 5 {
			// The eviction victims: a second target on the other node, so
			// the survivor keeps the flow alive after the chaos strike.
			spec.Targets = append(spec.Targets, Endpoint{Node: c.Node(2 + (f+1)%2)})
		}
		specs[f] = spec
	}

	var mu sync.Mutex
	var pushStart, finish time.Duration = 1 << 62, 0
	var delivered uint64
	perFlowSeen := make([]map[int64]bool, flows)
	for f := range perFlowSeen {
		perFlowSeen[f] = make(map[int64]bool)
	}

	// Parallel init: a single sequential initializer would stretch the
	// scaled run's makespan with pure control-plane serialization.
	const initers = 16
	for w := 0; w < initers; w++ {
		w := w
		k.Spawn(fmt.Sprintf("init%d", w), func(p *sim.Proc) {
			for f := w; f < flows; f += initers {
				if err := FlowInit(p, reg, c, specs[f]); err != nil {
					t.Errorf("init flow %d: %v", f, err)
				}
			}
		})
	}

	for f := 0; f < flows; f++ {
		f := f
		k.Spawn(fmt.Sprintf("src%d", f), func(p *sim.Proc) {
			src, err := SourceOpen(p, reg, specs[f].Name, 0)
			if err != nil {
				t.Errorf("flow %d source open: %v", f, err)
				return
			}
			mu.Lock()
			if now := p.Now(); now < pushStart {
				pushStart = now
			}
			mu.Unlock()
			for i := 0; i < perFlow; i++ {
				key := int64(i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					t.Errorf("flow %d push %d: %v", f, i, err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Errorf("flow %d close: %v", f, err)
			}
		})
		for ti := range specs[f].Targets {
			ti := ti
			k.Spawn(fmt.Sprintf("tgt%d.%d", f, ti), func(p *sim.Proc) {
				tgt, err := TargetOpen(p, reg, specs[f].Name, ti)
				if err != nil {
					t.Errorf("flow %d target %d open: %v", f, ti, err)
					return
				}
				for {
					tup, ok := tgt.Consume(p)
					if !ok {
						break
					}
					key := kvSchema.Int64(tup, 0)
					mu.Lock()
					if perFlowSeen[f][key] {
						t.Errorf("flow %d: key %d delivered twice", f, key)
					}
					perFlowSeen[f][key] = true
					delivered++
					mu.Unlock()
				}
				mu.Lock()
				if now := p.Now(); now > finish {
					finish = now
				}
				mu.Unlock()
			})
		}
	}

	k.Spawn("chaos", func(p *sim.Proc) {
		strike := 0
		for f := 5; f < flows; f += 20 {
			p.Sleep(3*time.Microsecond + time.Duration(strike%8)*2*time.Microsecond)
			// The flow may already have drained on fast seeds; a failed
			// strike is not an error, just a missed shot.
			_ = reg.Evict(p, specs[f].Name, registry.RoleTarget, 1)
			strike++
		}
	})

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// Every single-target flow delivers exactly perFlow tuples; an
	// evicted flow may lose its in-flight window (at-most-once) but
	// never duplicates, and its survivor must still carry tuples.
	for f := 0; f < flows; f++ {
		got := len(perFlowSeen[f])
		if f%20 == 5 {
			if got == 0 {
				t.Errorf("evicted flow %d delivered nothing", f)
			}
			if got > perFlow {
				t.Errorf("evicted flow %d delivered %d tuples, more than the %d pushed", f, got, perFlow)
			}
			continue
		}
		if got != perFlow {
			t.Errorf("flow %d delivered %d tuples, want %d", f, got, perFlow)
		}
	}
	for _, l := range sharedring.PoolOf(c, sharedring.Config{}).Links() {
		if err := l.CheckConservation(); err != nil {
			t.Errorf("link %d->%d: %v", l.Src().ID(), l.Dst().ID(), err)
		}
	}
	return scaleRun{
		delivered: delivered,
		makespan:  finish - pushStart,
		leaseRPCs: reg.LeaseRenewRPCs(),
	}
}

func TestChaosScaleSharedFlows(t *testing.T) {
	baseFlows, bigFlows, tot := 100, 1000, 100_000
	if testing.Short() {
		baseFlows, bigFlows, tot = 64, 256, 16_384
	}
	base := runScaleFleet(t, baseFlows, tot/baseFlows, 4)
	big := runScaleFleet(t, bigFlows, tot/bigFlows, 4)
	t.Logf("baseline: %d flows, %d tuples in %v (%.0f tuples/s, %d lease RPCs)",
		baseFlows, base.delivered, base.makespan, base.throughput(), base.leaseRPCs)
	t.Logf("scaled:   %d flows, %d tuples in %v (%.0f tuples/s, %d lease RPCs)",
		bigFlows, big.delivered, big.makespan, big.throughput(), big.leaseRPCs)

	// Scaling criterion: 10x the flows moving the same total payload may
	// cost at most 10% aggregate throughput.
	if bt, st := base.throughput(), big.throughput(); st < 0.9*bt {
		t.Errorf("aggregate throughput degraded: %.0f tuples/s at %d flows vs %.0f at %d (%.1f%%)",
			st, bigFlows, bt, baseFlows, 100*st/bt)
	}

	// Lease-traffic criterion: renewals batch per (node, shard, tick), so
	// the round-trip count must stay far below one per flow and must not
	// scale with the flow count.
	if big.leaseRPCs == 0 {
		t.Fatal("scaled run recorded no lease-renewal RPCs")
	}
	if big.leaseRPCs >= uint64(bigFlows) {
		t.Errorf("lease traffic linear in flows: %d renewal RPCs for %d flows", big.leaseRPCs, bigFlows)
	}
	if limit := 3*base.leaseRPCs + 32; big.leaseRPCs > limit {
		t.Errorf("lease traffic scaled with flow count: %d RPCs at %d flows vs %d at %d",
			big.leaseRPCs, bigFlows, base.leaseRPCs, baseFlows)
	}
}
