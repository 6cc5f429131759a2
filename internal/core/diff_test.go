package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// The differential check between leg kinds: one engine runs over all of
// them, so the same seeded workload must leave the same trace on private
// rings, on shared rings and — a replicate flow — on a multicast group,
// ordered or not: identical tuple sequences per (source, target) pair and
// equal endpoint counters. The check shares no assumption with the engine
// beyond the public API: it does not know how any kind segments,
// schedules or acknowledges.

// diffBackend is one transport to run the workload on: a cluster, a
// registry on the same clock, a lease TTL that suits that clock, and a
// way to run a set of endpoint bodies to completion.
type diffBackend struct {
	name string
	tpt  transport.Transport
	reg  *registry.Registry
	ttl  time.Duration
	node func(i int) transport.Endpoint
	run  func(t *testing.T, bodies []func(transport.Ctx))
}

func newDiffDES(nodes int) *diffBackend {
	k := sim.New(testSeed())
	k.Deadline = 30 * time.Second
	c := fabric.NewCluster(k, nodes, fabric.DefaultConfig())
	return &diffBackend{
		name: "des", tpt: c, reg: registry.New(k), ttl: 100 * time.Microsecond,
		node: func(i int) transport.Endpoint { return c.Node(i) },
		run: func(t *testing.T, bodies []func(transport.Ctx)) {
			for i, body := range bodies {
				body := body
				k.Spawn(fmt.Sprintf("ep%d", i), func(p *sim.Proc) { body(p) })
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		},
	}
}

func newDiffChan(nodes int) *diffBackend {
	net := chanloop.New()
	eps := make([]transport.Endpoint, nodes)
	for i := range eps {
		eps[i] = net.NewEndpoint()
	}
	return &diffBackend{
		name: "chanloop", tpt: net, reg: registry.NewLocal(), ttl: 60 * time.Millisecond,
		node: func(i int) transport.Endpoint { return eps[i] },
		run: func(t *testing.T, bodies []func(transport.Ctx)) {
			var wg sync.WaitGroup
			for _, body := range bodies {
				body := body
				wg.Add(1)
				go func() {
					defer wg.Done()
					body(net.NewCtx())
				}()
			}
			wg.Wait()
		},
	}
}

// diffShape is one flow geometry. With evict set, target slot evict-1 is
// evicted before any source connects and never opens: its share of the
// stream re-routes over the survivors, identically on either ring kind.
type diffShape struct {
	name       string
	ftype      FlowType
	nSrc, nTgt int
	evict      int
}

// diffKind is the kind of leg the flow runs over.
type diffKind struct {
	name string
	set  func(*Options)
}

var (
	diffPrivate   = diffKind{"private", func(*Options) {}}
	diffShared    = diffKind{"shared", func(o *Options) { o.SharedRings = true }}
	diffMulticast = diffKind{"multicast", func(o *Options) { o.Multicast = true }}
	diffOrdered   = diffKind{"ordered multicast", func(o *Options) { o.Multicast, o.GlobalOrdering = true, true }}
)

// diffAPI is one pairing of push-side and consume-side API.
type diffAPI int

const (
	apiPushConsume diffAPI = iota
	apiBatch
	apiPushSegment
)

func (a diffAPI) String() string {
	return [...]string{"Push+Consume", "PushBatch+ConsumeBatch", "Push+ConsumeSegment"}[a]
}

// diffTrace is what one run leaves behind: seqs[target][source] is the
// order in which the target consumed that source's tuples (by their
// per-source sequence number), order[target] the order in which it
// consumed them all (by tuple id), plus the endpoint counters.
type diffTrace struct {
	seqs  [][][]int64
	order [][]int64
	src   []SourceStats
	tgt   []TargetStats
}

const diffPerSource = 600

// diffPush drives one source's stream through the API under test.
func diffPush(p transport.Ctx, src *Source, api diffAPI, tuples []schema.Tuple) error {
	switch api {
	case apiPushConsume, apiPushSegment:
		for _, tup := range tuples {
			if err := src.Push(p, tup); err != nil {
				return err
			}
		}
	case apiBatch:
		for len(tuples) > 0 {
			n := min(13, len(tuples))
			if err := src.PushBatch(p, tuples[:n]); err != nil {
				return err
			}
			tuples = tuples[n:]
		}
	}
	return src.Close(p)
}

// diffConsume drains one target through the API under test, handing every
// tuple to visit in consumption order.
func diffConsume(p transport.Ctx, tgt *Target, api diffAPI, visit func(schema.Tuple)) {
	ts := kvSchema.TupleSize()
	views := make([]schema.Tuple, 13)
	for {
		switch api {
		case apiPushConsume:
			tup, ok := tgt.Consume(p)
			if !ok {
				return
			}
			visit(tup)
		case apiBatch:
			n, ok := tgt.ConsumeBatch(p, views)
			if !ok {
				return
			}
			for _, tup := range views[:n] {
				visit(tup)
			}
		case apiPushSegment:
			data, count, ok := tgt.ConsumeSegment(p)
			if !ok {
				return
			}
			for i := 0; i < count; i++ {
				visit(schema.Tuple(data[i*ts : (i+1)*ts]))
			}
		}
	}
}

// runDiff runs the seeded workload once and returns its trace.
func runDiff(t *testing.T, b *diffBackend, shape diffShape, api diffAPI, kind diffKind) diffTrace {
	t.Helper()
	spec := FlowSpec{
		Name:    "diff",
		Type:    shape.ftype,
		Schema:  kvSchema,
		Options: Options{SegmentSize: 16 * kvSchema.TupleSize(), ValueCol: 1},
	}
	kind.set(&spec.Options)
	for i := 0; i < shape.nSrc; i++ {
		spec.Sources = append(spec.Sources, Endpoint{Node: b.node(i)})
	}
	for i := 0; i < shape.nTgt; i++ {
		spec.Targets = append(spec.Targets, Endpoint{Node: b.node(shape.nSrc + i)})
	}
	tr := diffTrace{
		seqs:  make([][][]int64, shape.nTgt),
		order: make([][]int64, shape.nTgt),
		src:   make([]SourceStats, shape.nSrc),
		tgt:   make([]TargetStats, shape.nTgt),
	}
	bodies := []func(transport.Ctx){func(p transport.Ctx) {
		if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
			t.Error(err)
		}
		if shape.evict > 0 {
			// Sources are blocked in WaitTargetLive on the slot (it never
			// publishes), so every one of them connects after this.
			if err := b.reg.Evict(p, spec.Name, registry.RoleTarget, shape.evict-1); err != nil {
				t.Error(err)
			}
		}
	}}
	for si := 0; si < shape.nSrc; si++ {
		si := si
		bodies = append(bodies, func(p transport.Ctx) {
			src, err := SourceOpen(p, b.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(testSeed() + int64(si)*7919))
			tuples := make([]schema.Tuple, diffPerSource)
			for i := range tuples {
				tuples[i] = mkTuple(rng.Int63(), int64(si*diffPerSource+i))
			}
			if err := diffPush(p, src, api, tuples); err != nil {
				t.Errorf("source %d: %v", si, err)
			}
			tr.src[si] = src.Stats()
		})
	}
	for ti := 0; ti < shape.nTgt; ti++ {
		ti := ti
		tr.seqs[ti] = make([][]int64, shape.nSrc)
		if ti == shape.evict-1 {
			continue
		}
		bodies = append(bodies, func(p transport.Ctx) {
			tgt, err := TargetOpen(p, b.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			diffConsume(p, tgt, api, func(tup schema.Tuple) {
				id := kvSchema.Int64(tup, 1)
				si := id / diffPerSource
				tr.seqs[ti][si] = append(tr.seqs[ti][si], id%diffPerSource)
				tr.order[ti] = append(tr.order[ti], id)
			})
			tr.tgt[ti] = tgt.Stats()
		})
	}
	b.run(t, bodies)
	return tr
}

func TestSharedRingMatchesPrivate(t *testing.T) {
	shapes := []diffShape{
		{"1:1", ShuffleFlow, 1, 1, 0},
		{"2:4 shuffle", ShuffleFlow, 2, 4, 0},
		{"2:4 shuffle, target 3 evicted", ShuffleFlow, 2, 4, 4},
		{"1:3 replicate", ReplicateFlow, 1, 3, 0},
		{"3:1 combiner", CombinerFlow, 3, 1, 0},
	}
	backends := []func(int) *diffBackend{newDiffDES, newDiffChan}
	for _, shape := range shapes {
		for _, api := range []diffAPI{apiPushConsume, apiBatch, apiPushSegment} {
			for _, mk := range backends {
				nodes := shape.nSrc + shape.nTgt
				private := runDiff(t, mk(nodes), shape, api, diffPrivate)
				b := mk(nodes)
				shared := runDiff(t, b, shape, api, diffShared)
				name := fmt.Sprintf("%s/%s/%s", shape.name, api, b.name)
				if t.Failed() {
					t.Fatalf("%s: run failed", name)
				}
				if !reflect.DeepEqual(private.seqs, shared.seqs) {
					t.Errorf("%s: per-(source,target) tuple sequences differ between ring kinds", name)
				}
				delivered := 0
				for _, perSrc := range shared.seqs {
					for _, seq := range perSrc {
						delivered += len(seq)
					}
				}
				want := shape.nSrc * diffPerSource
				if shape.ftype == ReplicateFlow {
					want *= shape.nTgt
				}
				if delivered != want {
					t.Errorf("%s: delivered %d tuples, want %d", name, delivered, want)
				}
				for si := range private.src {
					p, s := private.src[si], shared.src[si]
					if p.TuplesPushed != s.TuplesPushed || p.PayloadBytes != s.PayloadBytes ||
						p.Moved != s.Moved || p.Rerouted != s.Rerouted {
						t.Errorf("%s: source %d stats differ: private %v, shared %v", name, si, p, s)
					}
				}
				for ti := range private.tgt {
					if p, s := private.tgt[ti], shared.tgt[ti]; p.TuplesConsumed != s.TuplesConsumed {
						t.Errorf("%s: target %d consumed %d on private rings, %d on shared", name, ti, p.TuplesConsumed, s.TuplesConsumed)
					}
				}
			}
		}
	}
}

// TestReplicateKindsMatch: a replicate flow delivers every source's
// stream to every target whatever carries it — one private ring per pair,
// the shared rings, or one multicast group — so the per-(source, target)
// tuple sequences and the tuple counters of the four kinds are those of
// private rings, through each API pairing, on the simulated fabric and on
// chanloop's goroutines (the only place core drives chanloop's Group). An
// ordered group additionally shows every target one global order.
func TestReplicateKindsMatch(t *testing.T) {
	shapes := []diffShape{
		{"1:3", ReplicateFlow, 1, 3, 0},
		{"2:3", ReplicateFlow, 2, 3, 0},
	}
	for _, shape := range shapes {
		for _, api := range []diffAPI{apiPushConsume, apiBatch, apiPushSegment} {
			for _, mk := range []func(int) *diffBackend{newDiffDES, newDiffChan} {
				nodes := shape.nSrc + shape.nTgt
				private := runDiff(t, mk(nodes), shape, api, diffPrivate)
				for _, kind := range []diffKind{diffShared, diffMulticast, diffOrdered} {
					b := mk(nodes)
					got := runDiff(t, b, shape, api, kind)
					name := fmt.Sprintf("%s/%s/%s/%s", shape.name, api, kind.name, b.name)
					if t.Failed() {
						t.Fatalf("%s: run failed", name)
					}
					if !reflect.DeepEqual(private.seqs, got.seqs) {
						t.Errorf("%s: per-(source,target) tuple sequences differ from private rings", name)
					}
					for si, st := range got.src {
						if st.TuplesPushed != diffPerSource {
							t.Errorf("%s: source %d pushed %d tuples, want %d", name, si, st.TuplesPushed, diffPerSource)
						}
					}
					for ti := range private.tgt {
						if p, g := private.tgt[ti].TuplesConsumed, got.tgt[ti].TuplesConsumed; p != g || g != uint64(shape.nSrc*diffPerSource) {
							t.Errorf("%s: target %d consumed %d tuples, %d on private rings", name, ti, g, p)
						}
						if kind.name == diffOrdered.name && !reflect.DeepEqual(got.order[ti], got.order[0]) {
							t.Errorf("%s: target %d consumed in another order than target 0", name, ti)
						}
					}
				}
			}
		}
	}
}

// TestElasticAttachMidFlow: a source that attaches to a running elastic
// flow on private rings — once the declared source has pushed and flushed
// half its stream, which then waits for the attach — is folded in by
// every target through the membership record, and the seal ends the
// flow, on the simulated fabric and on chanloop's goroutines alike: each
// delivers every tuple exactly once, and every target consumes the same
// multiset of tuples on both backends.
func TestElasticAttachMidFlow(t *testing.T) {
	var runs [][]map[int64]int
	for _, mk := range []func(int) *diffBackend{newDiffDES, newDiffChan} {
		b := mk(4)
		got := runElasticAttach(t, b)
		if t.Failed() {
			t.Fatalf("%s: run failed", b.name)
		}
		for id := int64(0); id < 2*diffPerSource; id++ {
			if n := got[0][id] + got[1][id]; n != 1 {
				t.Errorf("%s: tuple %d delivered %d times", b.name, id, n)
			}
		}
		runs = append(runs, got)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Error("the targets consumed other tuples on chanloop than on the simulated fabric")
	}
}

// runElasticAttach runs the mid-flow attach workload once and returns,
// per target, how often it consumed each tuple id.
func runElasticAttach(t *testing.T, b *diffBackend) []map[int64]int {
	t.Helper()
	spec := FlowSpec{
		Name:    "elastic",
		Sources: []Endpoint{{Node: b.node(0)}},
		Targets: []Endpoint{{Node: b.node(2)}, {Node: b.node(3)}},
		Schema:  kvSchema,
		Options: Options{MaxSources: 2, SegmentSize: 16 * kvSchema.TupleSize()},
	}
	got := []map[int64]int{{}, {}}
	var half, attached atomic.Bool
	wait := func(p transport.Ctx, flag *atomic.Bool) {
		for !flag.Load() {
			p.Sleep(time.Microsecond)
		}
	}
	// push sends slot si's stream: ids si*diffPerSource on, seeded keys.
	push := func(p transport.Ctx, src *Source, si int, from, to int) error {
		rng := rand.New(rand.NewSource(testSeed() + int64(si)*7919))
		for i := 0; i < to; i++ {
			key := rng.Int63()
			if i < from {
				continue
			}
			if err := src.Push(p, mkTuple(key, int64(si*diffPerSource+i))); err != nil {
				return err
			}
		}
		return nil
	}
	bodies := []func(transport.Ctx){
		func(p transport.Ctx) {
			if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
				t.Error(err)
			}
		},
		func(p transport.Ctx) {
			src, err := SourceOpen(p, b.reg, spec.Name, 0)
			if err == nil {
				err = push(p, src, 0, 0, diffPerSource/2)
			}
			if err == nil {
				err = src.Flush(p)
			}
			half.Store(true)
			wait(p, &attached)
			if err == nil {
				err = push(p, src, 0, diffPerSource/2, diffPerSource)
			}
			if err == nil {
				err = src.Close(p)
			}
			if err != nil {
				t.Errorf("declared source: %v", err)
			}
		},
		func(p transport.Ctx) {
			wait(p, &half)
			src, err := AttachSource(p, b.reg, spec.Name, Endpoint{Node: b.node(1)})
			attached.Store(true)
			if err == nil && src.Slot() != 1 {
				err = fmt.Errorf("attached as slot %d, want 1", src.Slot())
			}
			if err == nil {
				err = push(p, src, 1, 0, diffPerSource)
			}
			if err == nil {
				err = src.Close(p)
			}
			if err == nil {
				err = Seal(p, b.reg, spec.Name)
			}
			if err != nil {
				t.Errorf("attached source: %v", err)
			}
		},
	}
	for ti := range spec.Targets {
		ti := ti
		bodies = append(bodies, func(p transport.Ctx) {
			tgt, err := TargetOpen(p, b.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			diffConsume(p, tgt, apiPushConsume, func(tup schema.Tuple) { got[ti][kvSchema.Int64(tup, 1)]++ })
		})
	}
	b.run(t, bodies)
	return got
}
