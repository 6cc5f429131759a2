package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport/sharedring"
)

// The batched data path must be invisible on the wire: for every flow
// type and both optimization modes, pushing a tuple stream through
// PushBatch must leave every target ring byte-identical to pushing the
// same stream through sequential Push. These tests run the same
// deterministic workload through both paths and compare raw ring memory.

type pushMode int

const (
	seqPush pushMode = iota
	batchPush
)

func (m pushMode) String() string {
	return [...]string{"push", "pushbatch"}[m]
}

// genStream builds source si's deterministic tuple stream as one
// contiguous buffer (so PushBatch can exercise run coalescing) plus
// per-tuple views into it.
func genStream(seed int64, si, perSource int) ([]byte, []schema.Tuple) {
	ts := kvSchema.TupleSize()
	rng := rand.New(rand.NewSource(seed + int64(si)*7919))
	buf := make([]byte, perSource*ts)
	tuples := make([]schema.Tuple, perSource)
	for i := 0; i < perSource; i++ {
		tup := schema.Tuple(buf[i*ts : (i+1)*ts])
		kvSchema.PutInt64(tup, 0, rng.Int63())
		kvSchema.PutInt64(tup, 1, int64(si*perSource+i))
		tuples[i] = tup
	}
	return buf, tuples
}

// ringKind maps a ringKinds entry onto the differential tests' kind.
func ringKind(shared bool) diffKind {
	if shared {
		return diffShared
	}
	return diffPrivate
}

// runBatchEquiv runs one flow to completion and returns a snapshot of what
// every target received: the raw ring memory of a private ring, whose
// targets attach but never consume; on shared rings and on a multicast
// group, per source stream, the sequence of segment fills and payloads the
// stream delivered (a multicast target has to consume them: its sources'
// Close waits for that). Volumes are sized so even a worst-case routing
// skew fits the rings without needing a consumer.
func runBatchEquiv(t *testing.T, seed int64, ftype FlowType, opt Optimization, mode pushMode, kind diffKind, nSrc, nTgt, perSource int) [][]byte {
	t.Helper()
	k := sim.New(seed)
	k.Deadline = 30 * time.Second
	c := fabric.NewCluster(k, nSrc+nTgt, fabric.DefaultConfig())
	reg := newTestRegistry(k)

	spec := FlowSpec{
		Name:   "batch-equiv",
		Type:   ftype,
		Schema: kvSchema,
		Options: Options{
			Optimization:    opt,
			SegmentsPerRing: 34,
			SegmentSize:     4 * kvSchema.TupleSize(),
		},
	}
	kind.set(&spec.Options)
	shared := spec.Options.SharedRings
	if opt == OptimizeLatency {
		spec.Options.SegmentSize = 0 // latency mode defaults to tuple-sized segments
	}
	if ftype == CombinerFlow {
		spec.Options.ValueCol = 1
	}
	for i := 0; i < nSrc; i++ {
		spec.Sources = append(spec.Sources, Endpoint{Node: c.Node(i)})
	}
	for i := 0; i < nTgt; i++ {
		node := c.Node(nSrc + i)
		if ftype == CombinerFlow {
			node = c.Node(nSrc) // combiner targets share one node (N:1)
		}
		spec.Targets = append(spec.Targets, Endpoint{Node: node})
	}

	k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			panic(err)
		}
	})
	targets := make([]*Target, nTgt)
	snaps := make([][]byte, nTgt)
	for ti := 0; ti < nTgt; ti++ {
		ti := ti
		k.Spawn(fmt.Sprintf("t%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, reg, "batch-equiv", ti)
			if err != nil {
				panic(err)
			}
			targets[ti] = tgt // attach only; the rings keep the full stream
			if spec.Options.Multicast {
				// Segment boundaries are what ConsumeSegment hands out; the
				// second column names the source.
				streams := make([][]byte, nSrc)
				for {
					data, count, ok := tgt.ConsumeSegment(p)
					if !ok {
						break
					}
					si := kvSchema.Int64(data, 1) / int64(perSource)
					streams[si] = binary.LittleEndian.AppendUint32(streams[si], uint32(count))
					streams[si] = append(streams[si], data...)
				}
				for _, stream := range streams {
					snaps[ti] = append(append(snaps[ti], stream...), 0xff) // stream boundary
				}
				return
			}
			if !shared {
				return
			}
			// A shared ring is not this target's memory to snapshot: drain
			// each source's stream below the engine, recording segment
			// boundaries.
			f := tgt.feed.(*sharedFeed)
			for i := range f.rcv {
				for {
					seg, st := f.rcv[i].Recv(p, f.tags[i], time.Second)
					if st != sharedring.RecvSeg {
						break
					}
					snaps[ti] = binary.LittleEndian.AppendUint32(snaps[ti], uint32(seg.Fill))
					snaps[ti] = append(snaps[ti], seg.Data...)
				}
				snaps[ti] = append(snaps[ti], 0xff) // stream boundary
			}
		})
	}
	for si := 0; si < nSrc; si++ {
		si := si
		k.Spawn(fmt.Sprintf("s%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, reg, "batch-equiv", si)
			if err != nil {
				panic(err)
			}
			_, tuples := genStream(seed, si, perSource)
			switch mode {
			case seqPush:
				for _, tup := range tuples {
					if err := src.Push(p, tup); err != nil {
						panic(err)
					}
				}
			case batchPush:
				// Uneven chunks exercise partial batches and the
				// run-coalescing boundary cases.
				for len(tuples) > 0 {
					chunk := 7
					if chunk > len(tuples) {
						chunk = len(tuples)
					}
					if err := src.PushBatch(p, tuples[:chunk]); err != nil {
						panic(err)
					}
					tuples = tuples[chunk:]
				}
			}
			if err := src.Close(p); err != nil {
				panic(err)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("%s/%s/%s seed %d: %v", ftype, opt, mode, seed, err)
	}
	if !shared && !spec.Options.Multicast {
		for ti, tgt := range targets {
			snaps[ti] = append([]byte(nil), tgt.feed.(*privateFeed).mr.Bytes()...)
		}
	}
	return snaps
}

// TestBatchPushRingEquivalence: PushBatch leaves byte-identical rings —
// on shared rings, identical per-stream segment sequences — for every
// flow type, both ring kinds and both optimization modes, across a seed
// sweep.
func TestBatchPushRingEquivalence(t *testing.T) {
	opts := []Optimization{OptimizeBandwidth, OptimizeLatency}
	flows := []FlowType{ShuffleFlow, ReplicateFlow, CombinerFlow}
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, ftype := range flows {
		for _, opt := range opts {
			for _, kind := range ringKinds {
				if kind.shared && opt == OptimizeLatency {
					continue // latency mode is a private-ring capability
				}
				for _, seed := range seeds {
					perSource := 40
					if opt == OptimizeLatency {
						perSource = 12 // tuple-sized segments: keep worst-case skew under one ring
					}
					want := runBatchEquiv(t, seed, ftype, opt, seqPush, ringKind(kind.shared), 2, 3, perSource)
					got := runBatchEquiv(t, seed, ftype, opt, batchPush, ringKind(kind.shared), 2, 3, perSource)
					for ti := range want {
						if len(want[ti]) == 0 || !bytes.Equal(want[ti], got[ti]) {
							t.Fatalf("%s/%s/%s seed %d: target %d ring diverges between Push and PushBatch",
								ftype, opt, kind.name, seed, ti)
						}
					}
				}
			}
		}
	}
	// The multicast group is a replicate flow's third kind of leg.
	for _, opt := range opts {
		for _, seed := range seeds {
			want := runBatchEquiv(t, seed, ReplicateFlow, opt, seqPush, diffMulticast, 2, 3, 40)
			got := runBatchEquiv(t, seed, ReplicateFlow, opt, batchPush, diffMulticast, 2, 3, 40)
			for ti := range want {
				if len(want[ti]) <= 2 || !bytes.Equal(want[ti], got[ti]) {
					t.Fatalf("replicate/%s/multicast seed %d: target %d's segments diverge between Push and PushBatch", opt, seed, ti)
				}
			}
		}
	}
}

// TestBatchPushDoubleEvictionNoLoss: two targets are evicted back to back
// mid-stream, so one PushBatch call can observe both — the first dead
// group's errEvicted fallback folds the membership change in via
// syncEpoch, which latches the second target's writer dead *before* its
// group was appended. Regression test for the batched path dropping that
// second group instead of re-routing it: every tuple must land on a
// survivor or on an evicted target's pre-eviction prefix, like the
// sequential path guarantees.
func TestBatchPushDoubleEvictionNoLoss(t *testing.T) {
	seeds := []int64{1, 5, 7, 11, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		testBatchDoubleEviction(t, seed)
	}
}

func testBatchDoubleEviction(t *testing.T, seed int64) {
	t.Helper()
	const (
		nSrc, nTgt = 2, 4
		perSource  = 3000
		chunk      = 64
		evictAt    = 120 * time.Microsecond
	)
	k := sim.New(seed)
	k.Deadline = 30 * time.Second
	c := fabric.NewCluster(k, nSrc+nTgt, fabric.DefaultConfig())
	reg := newTestRegistry(k)
	spec := FlowSpec{
		Name:   "batch-evict2",
		Schema: kvSchema,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	for i := 0; i < nSrc; i++ {
		spec.Sources = append(spec.Sources, Endpoint{Node: c.Node(i)})
	}
	for i := 0; i < nTgt; i++ {
		spec.Targets = append(spec.Targets, Endpoint{Node: c.Node(nSrc + i)})
	}
	k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(evictAt)
		for _, ti := range []int{2, 3} {
			if err := reg.Evict(p, spec.Name, registry.RoleTarget, ti); err != nil {
				t.Errorf("evict target %d: %v", ti, err)
			}
		}
	})
	got := make([]map[int64]bool, nTgt)
	evicted := make([]bool, nTgt)
	for ti := 0; ti < nTgt; ti++ {
		ti := ti
		got[ti] = make(map[int64]bool)
		k.Spawn(fmt.Sprintf("t%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				got[ti][kvSchema.Int64(tup, 1)] = true
			}
			evicted[ti] = tgt.Evicted()
		})
	}
	for si := 0; si < nSrc; si++ {
		si := si
		k.Spawn(fmt.Sprintf("s%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			_, tuples := genStream(seed, si, perSource)
			for len(tuples) > 0 {
				n := chunk
				if n > len(tuples) {
					n = len(tuples)
				}
				if err := src.PushBatch(p, tuples[:n]); err != nil {
					t.Errorf("source %d: %v", si, err)
					return
				}
				tuples = tuples[n:]
				p.Sleep(4 * time.Microsecond)
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
			// A dead target's share re-routes through pushTo, which must
			// not count the tuples PushBatch already counted.
			if got := src.Pushed(); got != perSource {
				t.Errorf("seed %d: source %d counted %d pushed tuples, want %d", seed, si, got, perSource)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !evicted[2] || !evicted[3] {
		t.Fatalf("seed %d: evicted targets did not observe their eviction (evictions landed after the stream?)", seed)
	}
	for id := int64(0); id < int64(nSrc*perSource); id++ {
		onSurvivor := 0
		for ti := 0; ti < 2; ti++ {
			if got[ti][id] {
				onSurvivor++
			}
		}
		if onSurvivor > 1 {
			t.Errorf("seed %d: tuple %d delivered to both survivors", seed, id)
		}
		if onSurvivor == 0 && !got[2][id] && !got[3][id] {
			t.Fatalf("seed %d: tuple %d lost — a dead target's batch group was dropped instead of re-routed", seed, id)
		}
	}
}

// TestConsumeBatchDelivery: draining a shuffle flow through ConsumeBatch
// observes exactly the tuples pushed, each exactly once, on either ring
// kind.
func TestConsumeBatchDelivery(t *testing.T) {
	for _, kind := range ringKinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) { testConsumeBatchDelivery(t, kind.shared) })
	}
}

func testConsumeBatchDelivery(t *testing.T, shared bool) {
	const nSrc, nTgt, perSource = 2, 2, 500
	k := sim.New(5)
	k.Deadline = 30 * time.Second
	c := fabric.NewCluster(k, nSrc+nTgt, fabric.DefaultConfig())
	reg := newTestRegistry(k)
	spec := FlowSpec{Name: "cb", Schema: kvSchema, Options: Options{SharedRings: shared}}
	for i := 0; i < nSrc; i++ {
		spec.Sources = append(spec.Sources, Endpoint{Node: c.Node(i)})
	}
	for i := 0; i < nTgt; i++ {
		spec.Targets = append(spec.Targets, Endpoint{Node: c.Node(nSrc + i)})
	}
	k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			panic(err)
		}
	})
	got := make(map[int64]int)
	for ti := 0; ti < nTgt; ti++ {
		ti := ti
		k.Spawn(fmt.Sprintf("t%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, reg, "cb", ti)
			if err != nil {
				panic(err)
			}
			views := make([]schema.Tuple, 13)
			for {
				n, ok := tgt.ConsumeBatch(p, views)
				if !ok {
					return
				}
				for _, tup := range views[:n] {
					got[kvSchema.Int64(tup, 1)]++
				}
			}
		})
	}
	for si := 0; si < nSrc; si++ {
		si := si
		k.Spawn(fmt.Sprintf("s%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, reg, "cb", si)
			if err != nil {
				panic(err)
			}
			_, tuples := genStream(5, si, perSource)
			if err := src.PushBatch(p, tuples); err != nil {
				panic(err)
			}
			src.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != nSrc*perSource {
		t.Fatalf("got %d unique tuples, want %d", len(got), nSrc*perSource)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("tuple %d consumed %d times", id, n)
		}
	}
}

// TestPushToCounts: a source that only ever calls PushTo counts every
// tuple it sent, in Pushed and in Stats.
func TestPushToCounts(t *testing.T) {
	const n = 100
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name: "pushto", Schema: kvSchema,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Options: Options{RetransmitTimeout: 50 * time.Microsecond},
	}
	var consumed [2]int
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
			if err := src.PushTo(p, mkTuple(int64(i), 0), i%2); err != nil {
				t.Error(err)
				return
			}
		}
		if err := src.PushTo(p, mkTuple(0, 0), 2); err == nil {
			t.Error("PushTo accepted target 2 of 2")
		}
		if err := src.Close(p); err != nil {
			t.Error(err)
		}
		if src.Pushed() != n || src.Stats().TuplesPushed != n {
			t.Errorf("Pushed=%d Stats().TuplesPushed=%d, want %d each",
				src.Pushed(), src.Stats().TuplesPushed, n)
		}
	})
	for ti := range spec.Targets {
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
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
	if consumed[0]+consumed[1] != n {
		t.Fatalf("targets consumed %v, want %d in all", consumed, n)
	}
}
