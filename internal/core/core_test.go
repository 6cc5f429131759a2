package core

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

var kvSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "value", Type: schema.Int64},
)

type env struct {
	k   *sim.Kernel
	c   *fabric.Cluster
	reg *registry.Registry
}

// ringKinds names the two ring kinds for tests that take the kind as an
// input: the engine above them is one, so its contracts hold on both.
var ringKinds = []struct {
	name   string
	shared bool
}{{"private", false}, {"shared", true}}

// newTestRegistry builds a registry for property tests that construct
// their own kernels.
func newTestRegistry(k *sim.Kernel) *registry.Registry { return registry.New(k) }

// testSeed returns the kernel seed for the suite. DFI_CHAOS_SEED
// overrides the default so `make chaos` can sweep a seed matrix over the
// fault-injection tests without recompiling.
func testSeed() int64 {
	if s := os.Getenv("DFI_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 11
}

// chaosSeeds returns the kernel seeds a seed-swept test runs: the one
// DFI_CHAOS_SEED names, or lo through hi.
func chaosSeeds(lo, hi int64) []int64 {
	if os.Getenv("DFI_CHAOS_SEED") != "" {
		return []int64{testSeed()}
	}
	var seeds []int64
	for s := lo; s <= hi; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

func newEnv(t *testing.T, nodes int, mut ...func(*fabric.Config)) *env {
	t.Helper()
	return newSeededEnv(t, testSeed(), nodes, mut...)
}

// newSeededEnv is newEnv on the kernel seed given.
func newSeededEnv(t *testing.T, seed int64, nodes int, mut ...func(*fabric.Config)) *env {
	t.Helper()
	k := sim.New(seed)
	k.Deadline = 30 * time.Second
	k.MaxEvents = 50_000_000
	cfg := fabric.DefaultConfig()
	for _, m := range mut {
		m(&cfg)
	}
	return &env{k: k, c: fabric.NewCluster(k, nodes, cfg), reg: registry.New(k)}
}

func (e *env) run(t *testing.T) {
	t.Helper()
	if err := e.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// mkTuple builds a key/value tuple.
func mkTuple(key, value int64) schema.Tuple {
	tp := kvSchema.NewTuple()
	kvSchema.PutInt64(tp, 0, key)
	kvSchema.PutInt64(tp, 1, value)
	return tp
}

// runShuffle pushes n tuples (key=i, value=2i) from each source and
// returns, per target, the consumed (key → value) pairs.
func runShuffle(t *testing.T, e *env, spec FlowSpec, perSource int) []map[int64]int64 {
	t.Helper()
	results := make([]map[int64]int64, len(spec.Targets))
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
			for i := 0; i < perSource; i++ {
				key := int64(si*perSource + i)
				if err := src.Push(p, mkTuple(key, 2*key)); err != nil {
					t.Error(err)
					return
				}
			}
			src.Close(p)
		})
	}
	for ti := range spec.Targets {
		ti := ti
		results[ti] = make(map[int64]int64)
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
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
				k := kvSchema.Int64(tup, 0)
				if _, dup := results[ti][k]; dup {
					t.Errorf("target %d: duplicate key %d", ti, k)
				}
				results[ti][k] = kvSchema.Int64(tup, 1)
			}
		})
	}
	e.run(t)
	return results
}

func checkAllDelivered(t *testing.T, results []map[int64]int64, total int64) {
	t.Helper()
	seen := make(map[int64]bool)
	for ti, m := range results {
		for k, v := range m {
			if v != 2*k {
				t.Errorf("target %d: key %d has value %d, want %d", ti, k, v, 2*k)
			}
			if seen[k] {
				t.Errorf("key %d delivered to multiple targets", k)
			}
			seen[k] = true
		}
	}
	if int64(len(seen)) != total {
		t.Fatalf("delivered %d distinct keys, want %d", len(seen), total)
	}
}

func TestShuffleOneToOne(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "s11",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	const n = 5000
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, n)
}

func TestShuffleKeyPartitioning(t *testing.T) {
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:       "part",
		Sources:    []Endpoint{{Node: e.c.Node(0)}},
		Targets:    []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:     kvSchema,
		ShuffleKey: 0,
	}
	const n = 3000
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, n)
	// Each key must live on the target its hash selects.
	for ti, m := range res {
		for k := range m {
			want := int(schema.Hash(uint64(k)) % 3)
			if ti != want {
				t.Fatalf("key %d on target %d, want %d", k, ti, want)
			}
		}
		if len(m) < n/6 {
			t.Errorf("target %d unbalanced: %d tuples", ti, len(m))
		}
	}
}

func TestShuffleManyToMany(t *testing.T) {
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:    "nm",
		Sources: []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets: []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
	}
	const n = 2000
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, 2*n)
}

func TestShuffleSameNodeSourcesAndTargets(t *testing.T) {
	// All endpoints on two nodes, multiple threads each (N:M on few nodes).
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name: "local",
		Sources: []Endpoint{
			{Node: e.c.Node(0), Thread: 0}, {Node: e.c.Node(0), Thread: 1},
		},
		Targets: []Endpoint{
			{Node: e.c.Node(1), Thread: 0}, {Node: e.c.Node(1), Thread: 1},
		},
		Schema: kvSchema,
	}
	const n = 1500
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, 2*n)
}

func TestCustomRoutingFunction(t *testing.T) {
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:       "routed",
		Sources:    []Endpoint{{Node: e.c.Node(0)}},
		Targets:    []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:     kvSchema,
		ShuffleKey: -1,
		Routing: func(tup schema.Tuple) int {
			return int(kvSchema.Int64(tup, 0) % 2) // range-style partitioning
		},
	}
	const n = 1000
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, n)
	for ti, m := range res {
		for k := range m {
			if int(k%2) != ti {
				t.Fatalf("key %d routed to %d", k, ti)
			}
		}
	}
}

func TestPushToExplicitTarget(t *testing.T) {
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:    "direct",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
	}
	counts := make([]int, 2)
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, "direct", 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			if err := src.PushTo(p, mkTuple(int64(i), 0), 1); err != nil {
				t.Error(err)
			}
		}
		if err := src.PushTo(p, mkTuple(0, 0), 5); err == nil {
			t.Error("out-of-range PushTo accepted")
		}
		src.Close(p)
	})
	for ti := 0; ti < 2; ti++ {
		ti := ti
		e.k.Spawn("tgt", func(p *sim.Proc) {
			tgt, _ := TargetOpen(p, e.reg, "direct", ti)
			for {
				if _, ok := tgt.Consume(p); !ok {
					return
				}
				counts[ti]++
			}
		})
	}
	e.run(t)
	if counts[0] != 0 || counts[1] != 100 {
		t.Fatalf("counts = %v, want [0 100]", counts)
	}
}

func TestLatencyOptimizedFlow(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "lat",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{Optimization: OptimizeLatency},
	}
	const n = 500 // several credit-refresh rounds (ring = 32)
	res := runShuffle(t, e, spec, n)
	checkAllDelivered(t, res, n)
}

func TestLatencyFlowDeliversWithinMicroseconds(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "lat1",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{Optimization: OptimizeLatency},
	}
	var pushAt, gotAt sim.Time
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "lat1", 0)
		pushAt = p.Now()
		_ = src.Push(p, mkTuple(1, 1))
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "lat1", 0)
		if _, ok := tgt.Consume(p); ok {
			gotAt = p.Now()
		}
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
		}
	})
	e.run(t)
	d := gotAt - pushAt
	if d <= 0 || d > 5*time.Microsecond {
		t.Fatalf("one-way latency = %v, want (0, 5µs]", d)
	}
}

func TestSlowConsumerBackpressureNoLoss(t *testing.T) {
	// Small rings + a consumer that sleeps per segment force ring-full
	// paths, footer-read retries and backoff. No tuple may be lost.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "slow",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{SegmentsPerRing: 4, SegmentSize: 64},
	}
	const n = 800
	got := make(map[int64]bool)
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "slow", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), int64(2*i)))
		}
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "slow", 0)
		i := 0
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				return
			}
			got[kvSchema.Int64(tup, 0)] = true
			i++
			if i%4 == 0 {
				p.Sleep(3 * time.Microsecond) // straggling consumer
			}
		}
	})
	e.run(t)
	if len(got) != n {
		t.Fatalf("consumed %d unique tuples, want %d", len(got), n)
	}
}

func TestFlushMakesPartialSegmentsVisible(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "flush",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	var consumedAt, closedAt sim.Time
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "flush", 0)
		_ = src.Push(p, mkTuple(1, 2)) // far below segment size
		src.Flush(p)
		p.Sleep(time.Millisecond) // close much later
		closedAt = p.Now()
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "flush", 0)
		if _, ok := tgt.Consume(p); ok {
			consumedAt = p.Now()
		}
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
		}
	})
	e.run(t)
	if consumedAt == 0 || consumedAt >= closedAt {
		t.Fatalf("flushed tuple consumed at %v, source closed at %v — flush did not make it visible early", consumedAt, closedAt)
	}
}

func TestSourceValidation(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "valid",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "valid", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		if _, err := SourceOpen(p, e.reg, "valid", 3); err == nil {
			t.Error("out-of-range source index accepted")
		}
		src, err := SourceOpen(p, e.reg, "valid", 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := src.Push(p, make(schema.Tuple, 3)); err == nil {
			t.Error("wrong-size tuple accepted")
		}
		src.Close(p)
		if err := src.Push(p, mkTuple(1, 1)); err == nil {
			t.Error("push after close accepted")
		}
	})
	e.run(t)
}

func TestFlowInitValidation(t *testing.T) {
	e := newEnv(t, 2)
	n0, n1 := e.c.Node(0), e.c.Node(1)
	cases := []FlowSpec{
		{Name: "", Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}}, Schema: kvSchema},
		{Name: "x", Targets: []Endpoint{{Node: n1}}, Schema: kvSchema},
		{Name: "x", Sources: []Endpoint{{Node: n0}}, Schema: kvSchema},
		{Name: "x", Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}}},
		{Name: "x", Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}}, Schema: kvSchema, ShuffleKey: 9},
		{Name: "x", Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}}, Schema: kvSchema,
			Options: Options{SegmentSize: 4}},
		{Name: "x", Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}}, Schema: kvSchema,
			Options: Options{Multicast: true}}, // multicast on shuffle flow
		{Name: "x", Type: ReplicateFlow, Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}}, Schema: kvSchema,
			Options: Options{GlobalOrdering: true}}, // ordering without multicast
		{Name: "x", Type: CombinerFlow, Sources: []Endpoint{{Node: n0}}, Targets: []Endpoint{{Node: n1}, {Node: n0}}, Schema: kvSchema},
		{Name: "x", Type: ReplicateFlow, Sources: make([]Endpoint, 257), Targets: []Endpoint{{Node: n1}}, Schema: kvSchema,
			Options: Options{Multicast: true}}, // a multicast segment's tag carries the source index in one byte
	}
	e.k.Spawn("p", func(p *sim.Proc) {
		for i, spec := range cases {
			if err := FlowInit(p, e.reg, e.c, spec); err == nil {
				t.Errorf("case %d: invalid spec accepted", i)
			}
		}
		// 256 multicast sources still fit the byte, and 257 sources are no
		// trouble on rings.
		for _, ok := range []FlowSpec{
			{Name: "mc256", Type: ReplicateFlow, Sources: make([]Endpoint, 256), Targets: []Endpoint{{Node: n1}}, Schema: kvSchema,
				Options: Options{Multicast: true}},
			{Name: "ring257", Type: ReplicateFlow, Sources: make([]Endpoint, 257), Targets: []Endpoint{{Node: n1}}, Schema: kvSchema},
		} {
			if err := FlowInit(p, e.reg, e.c, ok); err != nil {
				t.Errorf("%s rejected: %v", ok.Name, err)
			}
		}
	})
	e.run(t)
}

func TestDuplicateFlowNameRejected(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "dup",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	e.k.Spawn("p", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
		if err := FlowInit(p, e.reg, e.c, spec); err == nil {
			t.Error("duplicate flow name accepted")
		}
		e.reg.Remove(p, "dup")
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Errorf("re-init after Remove failed: %v", err)
		}
	})
	e.run(t)
}
