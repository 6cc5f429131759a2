package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// TestSteadyStatePushConsumeZeroAlloc is the allocation gate for the data
// path: once a flow reaches steady state, pushing and consuming tuples must
// not allocate. Every moving part — the kernel's event heap, pooled
// write/read ops, staging buffers, completion-queue rings, cond waiter
// slices — reaches its high-water mark during warm-up; a nonzero delta
// afterwards means a per-delivery allocation crept back in (the regression
// this PR's burst path removed: closure captures in event posting,
// per-segment header slices, completion reslicing).
//
// The measurement window is bracketed by the consumer: between tuple W and
// tuple W+N it observes every consume and, by backpressure, essentially all
// the pushes that produced them. A small fixed slack absorbs one-off
// runtime-internal allocations; it is far below one allocation per segment,
// let alone per tuple.
func TestSteadyStatePushConsumeZeroAlloc(t *testing.T) {
	e := newEnv(t, 2)
	steadyStateAllocs(t, e, []FlowSpec{{
		Name:    "steady",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}})
}

// TestSharedRingSteadyStateZeroAlloc is the same gate on the shared-ring
// path: four flows multiplexed over one link, payload bytes copied, so
// the demultiplexer's staging buffers and queues, the per-tag wake-ups
// and the follower queue are all in play. Staging buffers recycle
// through the link and staging queues are fixed rings, so once every
// stream has been through its high-water mark a delivery allocates
// nothing. The window is bracketed by the first flow's consumer; the
// flows push equal amounts under equal credit shares, so the others are
// in steady state throughout it.
func TestSharedRingSteadyStateZeroAlloc(t *testing.T) {
	e := newEnv(t, 2)
	specs := make([]FlowSpec, 4)
	for f := range specs {
		specs[f] = sharedSpec(e, fmt.Sprintf("steady-shared%d", f), []int{0}, []int{1}, Options{SegmentSize: 256})
	}
	steadyStateAllocs(t, e, specs)
}

// TestLeasedSharedRingSteadyStateZeroAlloc is the shared-ring gate with
// leases on: the node's lease agent renews every flow's slots in one
// batch per tick, and each renewal re-arms a registry timer. A renewal
// that changes no lease state publishes no status, and a re-armed timer
// reuses its lease's op, so the heartbeat adds nothing to the window.
func TestLeasedSharedRingSteadyStateZeroAlloc(t *testing.T) {
	e := newEnv(t, 2)
	specs := make([]FlowSpec, 4)
	for f := range specs {
		specs[f] = sharedSpec(e, fmt.Sprintf("steady-leased%d", f), []int{0}, []int{1},
			Options{SegmentSize: 256, LeaseTTL: 30 * time.Microsecond})
	}
	steadyStateAllocs(t, e, specs)
}

// steadyStateAllocs runs one source and one target per spec and fails
// when the window between tuple W and tuple W+N of the first flow's
// consumer allocates more than a fixed slack.
func steadyStateAllocs(t *testing.T, e *env, specs []FlowSpec) {
	t.Helper()
	const (
		warmup  = 30_000
		window  = 30_000
		total   = warmup + 2*window
		maxSlop = 8 // allocations tolerated across the whole window
	)
	tup := mkTuple(7, 11) // reused: Push copies, it must not retain src
	var before, after runtime.MemStats
	e.k.Spawn("init", func(p *sim.Proc) {
		for _, spec := range specs {
			_ = FlowInit(p, e.reg, e.c, spec)
		}
	})
	for f, spec := range specs {
		f, name := f, spec.Name
		e.k.Spawn("src", func(p *sim.Proc) {
			src, _ := SourceOpen(p, e.reg, name, 0)
			for i := 0; i < total; i++ {
				_ = src.Push(p, tup)
			}
			src.Close(p)
		})
		e.k.Spawn("tgt", func(p *sim.Proc) {
			tgt, _ := TargetOpen(p, e.reg, name, 0)
			consumed := 0
			for {
				if f == 0 && consumed == warmup {
					runtime.ReadMemStats(&before)
				}
				if f == 0 && consumed == warmup+window {
					runtime.ReadMemStats(&after)
				}
				if _, ok := tgt.Consume(p); !ok {
					return
				}
				consumed++
			}
		})
	}
	e.run(t)
	allocs := after.Mallocs - before.Mallocs
	if allocs > maxSlop {
		t.Fatalf("steady-state push/consume allocated %d times over %d tuples (want 0, slack %d)",
			allocs, window, maxSlop)
	}
}

// TestChanloopSteadyStateAllocs is the same gate on the wall-clock
// backend, in the shape of the ledger's chan_batch_64 workload: one
// source and one target on real goroutines, PushBatch and ConsumeBatch
// of 64 tuples of 64 bytes. A chanloop verb runs on the goroutine that
// posts it and allocates nothing, and neither does a wait once its
// context has parked before, so the window should read zero whatever the
// scheduler does. The bound is a rate all the same — 3 allocations per
// 1000 tuples — so that runtime-internal allocations of a longer or
// slower run (-race) cannot trip it, while one allocation per 8 KiB
// segment (7.8 per 1000) or per park cannot hide under it. The window is
// bracketed by the consumer, as in steadyStateAllocs.
func TestChanloopSteadyStateAllocs(t *testing.T) {
	const (
		batch      = 64
		warmup     = 2_000 * batch
		window     = 10_000 * batch
		total      = warmup + window + warmup
		perKTuples = 3
	)
	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(56)},
	)
	b := newDiffChan(2)
	spec := FlowSpec{
		Name:    "steady-chan",
		Sources: []Endpoint{{Node: b.node(0)}},
		Targets: []Endpoint{{Node: b.node(1)}},
		Schema:  sch,
	}
	var before, after runtime.MemStats
	b.run(t, []func(transport.Ctx){func(p transport.Ctx) {
		if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
			t.Error(err)
		}
	}})
	b.run(t, []func(transport.Ctx){
		func(p transport.Ctx) {
			src, err := SourceOpen(p, b.reg, spec.Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			size := sch.TupleSize()
			buf := make([]byte, batch*size)
			tuples := make([]schema.Tuple, batch)
			for i := range tuples {
				tuples[i] = buf[i*size : (i+1)*size]
			}
			for i := 0; i < total; i += batch {
				for j, tup := range tuples {
					sch.PutInt64(tup, 0, int64(i+j)) // fresh bytes in every segment
				}
				if err := src.PushBatch(p, tuples); err != nil {
					t.Error(err)
					return
				}
			}
			src.Close(p)
		},
		func(p transport.Ctx) {
			tgt, err := TargetOpen(p, b.reg, spec.Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			views := make([]schema.Tuple, batch)
			consumed := 0
			for {
				n, ok := tgt.ConsumeBatch(p, views)
				if !ok {
					break
				}
				// A mark falls on the batch that crosses it, up to batch-1
				// tuples late.
				if consumed < warmup && consumed+n >= warmup {
					runtime.ReadMemStats(&before)
				}
				if consumed < warmup+window && consumed+n >= warmup+window {
					runtime.ReadMemStats(&after)
				}
				consumed += n
			}
			if consumed != total {
				t.Errorf("consumed %d tuples, want %d", consumed, total)
			}
		},
	})
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d tuples: %.2f per 1000", allocs, window, float64(allocs)*1000/window)
	if allocs*1000 > perKTuples*window {
		t.Fatalf("steady-state PushBatch/ConsumeBatch on chanloop allocated %d times over %d tuples (bound %d per 1000)",
			allocs, window, perKTuples)
	}
}

// TestOrderedMulticastDeliveryHistoryAllocs is the allocation gate for
// what a globally ordered multicast target keeps per delivered segment:
// the copy gap agreement answers probes from. The copies live in a fixed
// ring that reuses each evicted entry's buffer, so on a lossless flow an
// ordered target allocates per segment what an unordered one does — the
// multicast path's own allocations, the same in both — and that rate
// holds however many segments go by.
func TestOrderedMulticastDeliveryHistoryAllocs(t *testing.T) {
	const slack = 0.05 // allocations per segment
	unordered := multicastAllocsPerSegment(t, false, 8_000)
	short := multicastAllocsPerSegment(t, true, 2_000)
	long := multicastAllocsPerSegment(t, true, 8_000)
	t.Logf("allocations per segment: unordered %.3f, ordered %.3f over 2000 and %.3f over 8000 segments",
		unordered, short, long)
	if long > unordered+slack {
		t.Fatalf("an ordered target allocates %.3f per delivered segment, an unordered one %.3f", long, unordered)
	}
	if long > short+slack {
		t.Fatalf("ordered allocations per segment grow with the segment count: %.3f over 2000, %.3f over 8000", short, long)
	}
}

// TestMulticastRetransmitHistoryAllocs is the allocation gate for what a
// multicast source keeps per flushed segment: the copy a NACK is answered
// from. The copies live in a ring of 4R entries in insertion order that
// reuse their buffers, so once the ring has gone round, retaining a
// segment allocates nothing — on an ordered source too, whose sequence
// numbers are sparse — and the ring holds exactly the last 4R segments.
func TestMulticastRetransmitHistoryAllocs(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) {
			e := newEnv(t, 2)
			spec := FlowSpec{
				Name:    "history-allocs",
				Type:    ReplicateFlow,
				Sources: []Endpoint{{Node: e.c.Node(0)}},
				Targets: []Endpoint{{Node: e.c.Node(1)}},
				Schema:  kvSchema,
				Options: Options{Multicast: true, GlobalOrdering: ordered, SegmentSize: 256},
			}
			var x *mcTx
			e.k.Spawn("init", func(p *sim.Proc) {
				if err := FlowInit(p, e.reg, e.c, spec); err != nil {
					t.Error(err)
				}
			})
			e.k.Spawn("src", func(p *sim.Proc) {
				src, _ := SourceOpen(p, e.reg, spec.Name, 0)
				for i := 0; i < 1_000; i++ {
					_ = src.Push(p, mkTuple(int64(i), 0))
				}
				src.Close(p)
				x = src.legs[0].tx.(*mcTx)
			})
			e.k.Spawn("tgt", func(p *sim.Proc) {
				tgt, _ := TargetOpen(p, e.reg, spec.Name, 0)
				for {
					if _, ok := tgt.Consume(p); !ok {
						return
					}
				}
			})
			e.run(t)

			seg := make([]byte, len(x.msg))
			seq := uint64(1 << 40)
			retain := func() {
				x.retain(seq, seg)
				seq += 3 // sparse, like an ordered source's own sequence numbers
			}
			for range x.sent {
				retain() // every entry full-sized once
			}
			if allocs := testing.AllocsPerRun(4*len(x.sent), retain); allocs != 0 {
				t.Errorf("retaining a flushed segment allocates %.2f times", allocs)
			}
			if len(x.sent) != 4*x.credit {
				t.Fatalf("the history holds %d segments, want 4R = %d", len(x.sent), 4*x.credit)
			}
			for i := 1; i <= len(x.sent); i++ {
				if x.retained(seq-uint64(3*i)) == nil {
					t.Fatalf("segment %d of the last %d is not retained", i, len(x.sent))
				}
			}
			if x.retained(seq-uint64(3*(len(x.sent)+1))) != nil {
				t.Errorf("a segment older than the last %d is still retained", len(x.sent))
			}
		})
	}
}

// multicastAllocsPerSegment runs a lossless multicast replicate flow, one
// source to two targets with 256-byte segments, and returns the
// allocations per segment over window segments of the first target's
// consumption, after a warm-up longer than the delivery history.
func multicastAllocsPerSegment(t *testing.T, ordered bool, window int) float64 {
	t.Helper()
	const warmup = 2_000
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:    "history-allocs",
		Type:    ReplicateFlow,
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
		Schema:  kvSchema,
		Options: Options{Multicast: true, GlobalOrdering: ordered, SegmentSize: 256},
	}
	perSeg := spec.Options.SegmentSize / kvSchema.TupleSize()
	total := (warmup + 2*window) * perSeg
	tup := mkTuple(7, 11)
	var before, after runtime.MemStats
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, spec.Name, 0)
		for i := 0; i < total; i++ {
			_ = src.Push(p, tup)
		}
		src.Close(p)
	})
	for ti := range spec.Targets {
		e.k.Spawn("tgt", func(p *sim.Proc) {
			tgt, _ := TargetOpen(p, e.reg, spec.Name, ti)
			consumed := 0
			for {
				if ti == 0 && consumed == warmup*perSeg {
					runtime.ReadMemStats(&before)
				}
				if ti == 0 && consumed == (warmup+window)*perSeg {
					runtime.ReadMemStats(&after)
				}
				if _, ok := tgt.Consume(p); !ok {
					return
				}
				consumed++
			}
		})
	}
	e.run(t)
	return float64(after.Mallocs-before.Mallocs) / float64(window)
}
