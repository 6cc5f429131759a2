package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
)

// Lifecycle suite: the control-plane failure model end to end. A crashed
// endpoint's lease expires, the flow epoch moves, and the data plane
// reroutes around the eviction — without the data-plane failure detectors
// (SourceTimeout) and without losing surviving tuples.

func TestLifecycleShuffleTargetEviction(t *testing.T) {
	// Acceptance: N:M bandwidth shuffle, one target's node crashes
	// mid-run. Its lease expires (crash ≈ 300µs, eviction ≤ crash +
	// TTL + grace = 460µs plus RPC slack), sources rehash its key range
	// over the survivors and re-push the dead writer's unconsumed window.
	// Every tuple must reach the dead target before the crash or a
	// survivor after it; among survivors, exactly once.
	const (
		crashAt   = 300 * time.Microsecond
		leaseTTL  = 80 * time.Microsecond
		perSource = 3000
		deadIdx   = 2
	)
	plan := (&fabric.FaultPlan{}).CrashNode(4, crashAt)
	e := newEnv(t, 5, withFaults(plan))
	spec := FlowSpec{
		Name:    "lease-shuffle",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:     256,
			SegmentsPerRing: 8,
			LeaseTTL:        leaseTTL,
		},
	}
	got := make([]map[int64]int64, len(spec.Targets))
	evicted := make([]bool, len(spec.Targets))
	srcs := make([]*Source, len(spec.Sources))
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := range spec.Sources {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			srcs[si] = src
			for i := 0; i < perSource; i++ {
				key := int64(si*perSource + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					t.Errorf("source %d push key %d: %v", si, key, err)
					return
				}
				p.Sleep(200 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
		})
	}
	for ti := range spec.Targets {
		ti := ti
		got[ti] = make(map[int64]int64)
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				k := kvSchema.Int64(tup, 0)
				if _, dup := got[ti][k]; dup {
					t.Errorf("target %d: duplicate key %d", ti, k)
				}
				got[ti][k] = kvSchema.Int64(tup, 1)
			}
			evicted[ti] = tgt.Evicted()
		})
	}
	e.run(t)
	if !evicted[deadIdx] {
		t.Fatal("crashed target was not evicted")
	}
	if evicted[0] || evicted[1] {
		t.Fatal("a surviving target was evicted")
	}
	var rerouted uint64
	for si, src := range srcs {
		if src == nil {
			t.Fatalf("source %d never opened", si)
		}
		if src.Epoch() == 0 {
			t.Errorf("source %d never observed the eviction epoch", si)
		}
		rerouted += src.Stats().Rerouted
	}
	if rerouted == 0 {
		t.Error("no tuples were rerouted; the dead writer's window was not recovered")
	}
	// Exactly-once among survivors; at-least-once across the crash
	// boundary (the dead target may have consumed a tuple whose segment
	// was never acknowledged back to the writer).
	survivors := make(map[int64]int64)
	for ti := 0; ti < len(spec.Targets); ti++ {
		if ti == deadIdx {
			continue
		}
		for k, v := range got[ti] {
			if _, dup := survivors[k]; dup {
				t.Errorf("key %d delivered to two surviving targets", k)
			}
			survivors[k] = v
		}
	}
	movedKeys := 0
	for i := int64(0); i < int64(len(spec.Sources))*perSource; i++ {
		v, onSurvivor := survivors[i]
		if onSurvivor && v != 2*i {
			t.Fatalf("key %d has value %d, want %d", i, v, 2*i)
		}
		_, onDead := got[deadIdx][i]
		if !onSurvivor && !onDead {
			t.Fatalf("key %d lost: neither a survivor nor the pre-crash dead target has it", i)
		}
		if onSurvivor && routeIndex(&spec, mkTuple(i, 2*i)) == deadIdx {
			movedKeys++
		}
	}
	if movedKeys == 0 {
		t.Fatal("no key from the dead target's range reached a survivor; rehashing did not engage")
	}
}

func TestLifecycleReplicateAdminEvict(t *testing.T) {
	// Administrative eviction of one ring-replicate leg mid-stream: the
	// survivors still receive the complete stream in order, the evicted
	// target terminates with an in-order prefix, and the source closes
	// cleanly (the dead leg is dropped, not drained — every survivor has
	// its own copy).
	const (
		n       = 2000
		deadIdx = 1
	)
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:    "evict-rep",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	orders := make([][]int64, len(spec.Targets))
	evicted := make([]bool, len(spec.Targets))
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond)
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, deadIdx); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := src.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			p.Sleep(100 * time.Nanosecond)
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for ti := range spec.Targets {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				orders[ti] = append(orders[ti], kvSchema.Int64(tup, 0))
			}
			evicted[ti] = tgt.Evicted()
		})
	}
	e.run(t)
	for ti, ord := range orders {
		for i, k := range ord {
			if k != int64(i) {
				t.Fatalf("target %d out of order at %d: got %d", ti, i, k)
			}
		}
		if ti == deadIdx {
			continue
		}
		if len(ord) != n {
			t.Fatalf("surviving target %d got %d tuples, want %d", ti, len(ord), n)
		}
	}
	if !evicted[deadIdx] {
		t.Fatal("administratively evicted target did not observe its eviction")
	}
	if len(orders[deadIdx]) >= n {
		t.Fatal("evicted target received the full stream; eviction came too late to matter")
	}
}

func TestLifecycleSourceCrashLeaseEviction(t *testing.T) {
	// A source's node crashes mid-flow on a spec WITHOUT SourceTimeout:
	// before leases this flow could only hang (the dead ring never
	// closes). The lease expiry must evict the source, the target closes
	// its ring (reported like a detector failure), and the flow ends with
	// the healthy source's complete stream.
	const (
		crashAt   = 300 * time.Microsecond
		perSource = 2000
	)
	plan := (&fabric.FaultPlan{}).CrashNode(1, crashAt)
	e := newEnv(t, 3, withFaults(plan))
	spec := FlowSpec{
		Name:    "lease-src-crash",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:     256,
			SegmentsPerRing: 8,
			LeaseTTL:        80 * time.Microsecond,
		},
	}
	got := make(map[int64]int64)
	var failed []int
	var crashedErr error
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 2; si++ {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perSource; i++ {
				key := int64(si*perSource + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					if si != 1 {
						t.Errorf("healthy source push: %v", err)
					}
					crashedErr = err
					return
				}
				p.Sleep(200 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil {
				if si != 1 {
					t.Errorf("healthy source close: %v", err)
				}
				crashedErr = err
			}
		})
	}
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			got[kvSchema.Int64(tup, 0)] = kvSchema.Int64(tup, 1)
		}
		failed = tgt.FailedSources()
	})
	e.run(t)
	if crashedErr == nil {
		t.Fatal("crashed source reported no error")
	}
	if !errors.Is(crashedErr, ErrFlowBroken) {
		t.Fatalf("crashed source error %v, want ErrFlowBroken", crashedErr)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed sources %v, want [1] (lease eviction reported)", failed)
	}
	for i := 0; i < perSource; i++ {
		if v, ok := got[int64(i)]; !ok || v != int64(2*i) {
			t.Fatalf("healthy source tuple %d missing or corrupt", i)
		}
	}
}

func TestLeaseAgentFencesStaleIncarnation(t *testing.T) {
	// An evicted source closes, and before the node's lease agent ticks
	// again its slot is rejoined by a successor the agent knows nothing
	// about (it renews elsewhere). The predecessor's enrollment — closed,
	// so due for release — is still in the agent: on the incarnation bump
	// the agent must drop it without renewing or, what would show,
	// releasing the successor's lease.
	e := newEnv(t, 2)
	const ttl = 90 * time.Microsecond
	spec := FlowSpec{
		Name:    "lease-fence",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{SegmentSize: 256, LeaseTTL: ttl},
	}
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		_ = src.Push(p, mkTuple(1, 2))
		if err := e.reg.Evict(p, spec.Name, registry.RoleSource, 0); err != nil {
			t.Error(err)
		}
		if err := src.Close(p); !errors.Is(err, ErrFlowBroken) {
			t.Errorf("evicted predecessor's close returned %v, want ErrFlowBroken", err)
		}
		if err := e.reg.Rejoin(p, spec.Name, registry.RoleSource, 0); err != nil || src.mem.Incarnation(registry.RoleSource, 0) == 0 {
			t.Errorf("rejoin: incarnation %d, err %v", src.mem.Incarnation(registry.RoleSource, 0), err)
		}
		// One agent tick later the stale entry has been visited.
		p.Sleep(ttl/heartbeatDivisor + time.Microsecond)
		if st := src.mem.State(registry.RoleSource, 0); st != registry.StateActive {
			t.Errorf("successor's slot is %v after the predecessor closed, want active (stale enrollment released it)", st)
		}
		e.reg.ReleaseLease(p, spec.Name, registry.RoleSource, 0)
	})
	e.run(t)
}

func TestLifecycleRegistryFailoverMidSetup(t *testing.T) {
	// The registry master crashes while the flow is still rendezvousing:
	// clients retry idempotently, the standby is promoted, and every
	// endpoint still opens the flow — the data plane never notices.
	e := newEnv(t, 3)
	rr, err := registry.New(e.k).Replicate(registry.ReplicaConfig{
		RPCDelay: 500 * time.Nanosecond,
		Faults:   &registry.Faults{CrashMaster: 5 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.reg = rr
	spec := FlowSpec{
		Name:    "failover-setup",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
	}
	const n = 500
	got := make([]map[int64]int64, len(spec.Targets))
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := src.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
				t.Error(err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for ti := range spec.Targets {
		ti := ti
		got[ti] = make(map[int64]int64)
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			if ti == 1 {
				// Lands this target's PublishTarget after the scheduled
				// master crash: its setup RPC is what triggers failover.
				p.Sleep(10 * time.Microsecond)
			}
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				got[ti][kvSchema.Int64(tup, 0)] = kvSchema.Int64(tup, 1)
			}
		})
	}
	e.run(t)
	if rr.Elections() == 0 || rr.Master() == 0 {
		t.Fatalf("master = %d elections = %d; failover never happened mid-setup", rr.Master(), rr.Elections())
	}
	checkAllDelivered(t, got, n)
}

// TestLifecycleEvictionWhileSourceConnects: a target is evicted after the
// source connected its leg but while the source still waits for another
// target to come up. The source must fold that eviction in on its first
// push — abandon the leg, route around it — and close cleanly; it used to
// adopt the post-eviction epoch with the leg still attached, and Close
// then gave up with "close did not stabilize".
func TestLifecycleEvictionWhileSourceConnects(t *testing.T) {
	const perSource = 500
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:    "evict-during-connect",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{SegmentSize: 256, SegmentsPerRing: 8, LeaseTTL: 500 * time.Microsecond},
	}
	consumed := make([]int, len(spec.Targets))
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evict", func(p *sim.Proc) {
		p.Sleep(25 * time.Microsecond) // leg 0 is connected, target 1 not yet up
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 0); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if p.Now() < 50*time.Microsecond {
			t.Errorf("source opened at %v, before the late target: the eviction did not land mid-connect", p.Now())
		}
		for i := int64(0); i < perSource; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for ti := range spec.Targets {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			p.Sleep(time.Duration(ti) * 50 * time.Microsecond)
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok := tgt.Consume(p); !ok {
					break
				}
				consumed[ti]++
			}
		})
	}
	e.run(t)
	if consumed[0] != 0 || consumed[1] != perSource {
		t.Errorf("consumed %v, want everything on the surviving target: [0 %d]", consumed, perSource)
	}
}
