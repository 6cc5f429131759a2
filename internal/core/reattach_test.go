package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dfi/internal/core/partition"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// Re-attach suite: evicted endpoints rejoining a live flow under a fresh
// incarnation, resuming from the confirmed watermark. The chaos tests pin
// the delivery contract across a rejoin: exactly-once below the last
// Checkpoint, at-least-once between the watermark and the eviction, and
// never a loss.

// TestRouteIndexAgreesWithPartitioner pins the routing dedup: routeIndex
// is the partitioner's Home for every key under both schemes, and under
// modulo it still equals the legacy inline hash formula bit for bit.
func TestRouteIndexAgreesWithPartitioner(t *testing.T) {
	for _, sc := range []partition.Scheme{partition.Modulo, partition.Ring} {
		const nTargets = 5
		spec := FlowSpec{
			Targets:    make([]Endpoint, nTargets),
			Schema:     kvSchema,
			ShuffleKey: 0,
			Options:    Options{Partitioning: sc},
		}
		for i := int64(0); i < 5000; i++ {
			tup := mkTuple(i, 0)
			key := kvSchema.KeyUint64(tup, 0)
			got := routeIndex(&spec, tup)
			if want := spec.table().Home(key); got != want {
				t.Fatalf("%v: routeIndex(key %d) = %d, partitioner Home = %d", sc, i, got, want)
			}
			if sc == partition.Modulo {
				if legacy := int(schema.Hash(key) % nTargets); got != legacy {
					t.Fatalf("modulo: routeIndex(key %d) = %d, legacy hash formula = %d", i, got, legacy)
				}
			}
		}
	}
}

// reattachCollect drains one target incarnation into a per-key delivery
// count, checking payload integrity. Uniqueness is asserted on the
// counts after the run: a source rejoin legitimately lands the
// at-least-once window twice in the *same* target incarnation (the
// pre-eviction copy plus the resume re-push), so a per-consume dup
// check would be wrong here.
func reattachCollect(t *testing.T, p *sim.Proc, tgt *Target, into map[int64]int) {
	t.Helper()
	for {
		tup, ok := tgt.Consume(p)
		if !ok {
			return
		}
		k := kvSchema.Int64(tup, 0)
		if v := kvSchema.Int64(tup, 1); v != 2*k {
			t.Errorf("key %d has value %d, want %d", k, v, 2*k)
		}
		into[k]++
	}
}

func TestChaosTargetEvictReattachResume(t *testing.T) {
	// A ring-partitioned shuffle target is administratively evicted
	// mid-stream, waits out an outage window, and re-attaches. Sources
	// checkpoint before the eviction, so the watermark splits the stream:
	// keys behind it are delivered exactly once among live members, keys
	// between the watermark and the eviction at least once (a duplicate
	// must straddle the eviction boundary — one copy on the dead
	// incarnation, one on a survivor), and nothing is lost. The rejoined
	// incarnation must take back its arcs and consume again.
	const (
		perSource = 3000
		phase1    = 500
		deadIdx   = 1
		evictAt   = 250 * time.Microsecond
		rejoinGap = 100 * time.Microsecond
	)
	e := newEnv(t, 6)
	spec := FlowSpec{
		Name:       "reattach-tgt",
		Sources:    []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets:    []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}, {Node: e.c.Node(4)}, {Node: e.c.Node(5)}},
		Schema:     kvSchema,
		ShuffleKey: 0,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
			Partitioning:      partition.Ring,
		},
	}
	nTargets := len(spec.Targets)
	// One delivery count per incarnation: slots 0..3 are the first
	// incarnations, slot 4 the rejoined target's second incarnation.
	cols := make([]map[int64]int, nTargets+1)
	for i := range cols {
		cols[i] = make(map[int64]int)
	}
	srcs := make([]*Source, len(spec.Sources))
	var checkpointAt [2]sim.Time
	var sawEvict bool
	var oldConsumed, resumedFrom uint64
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(evictAt)
		if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, deadIdx); err != nil {
			t.Errorf("evict: %v", err)
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
			base := int64(si * perSource)
			for i := int64(0); i < phase1; i++ {
				if err := src.Push(p, mkTuple(base+i, 2*(base+i))); err != nil {
					t.Errorf("source %d push %d: %v", si, i, err)
					return
				}
			}
			wm, err := src.Checkpoint(p)
			if err != nil {
				t.Errorf("source %d checkpoint: %v", si, err)
				return
			}
			if wm != phase1 {
				t.Errorf("source %d watermark = %d, want %d", si, wm, phase1)
			}
			checkpointAt[si] = p.Now()
			for i := int64(phase1); i < perSource; i++ {
				if err := src.Push(p, mkTuple(base+i, 2*(base+i))); err != nil {
					t.Errorf("source %d push %d: %v", si, i, err)
					return
				}
				p.Sleep(200 * time.Nanosecond)
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
		})
	}
	for ti := 0; ti < nTargets; ti++ {
		ti := ti
		if ti == deadIdx {
			continue
		}
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			reattachCollect(t, p, tgt, cols[ti])
			if tgt.Evicted() {
				t.Errorf("surviving target %d was evicted", ti)
			}
		})
	}
	e.k.Spawn("tgt-dead", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, deadIdx)
		if err != nil {
			t.Error(err)
			return
		}
		reattachCollect(t, p, tgt, cols[deadIdx])
		sawEvict = tgt.Evicted()
		oldConsumed = tgt.Consumed()
		p.Sleep(rejoinGap) // the outage window the survivors cover
		nt, err := tgt.Reattach(p)
		if err != nil {
			t.Errorf("reattach: %v", err)
			return
		}
		resumedFrom = nt.ResumedFrom()
		reattachCollect(t, p, nt, cols[nTargets])
	})
	e.run(t)

	for si, src := range srcs {
		if src == nil {
			t.Fatalf("source %d never opened", si)
		}
		if checkpointAt[si] == 0 || checkpointAt[si] >= evictAt {
			t.Fatalf("source %d checkpoint finished at %v, not before the eviction at %v; retune the test timings",
				si, checkpointAt[si], evictAt)
		}
		if src.Epoch() < 2 {
			t.Errorf("source %d folded epoch %d, want >= 2 (eviction + rejoin)", si, src.Epoch())
		}
	}
	if !sawEvict {
		t.Fatal("the evicted target never observed its eviction")
	}
	if oldConsumed == 0 {
		t.Fatal("evicted target consumed nothing before the eviction; eviction came too early")
	}
	if resumedFrom != oldConsumed {
		t.Errorf("ResumedFrom = %d, want the previous incarnation's consumed count %d", resumedFrom, oldConsumed)
	}
	if len(cols[nTargets]) == 0 {
		t.Fatal("rejoined incarnation consumed nothing; sources never reconnected or arcs were not reclaimed")
	}
	var moved, rerouted uint64
	for _, src := range srcs {
		st := src.Stats()
		moved += st.Moved
		rerouted += st.Rerouted
	}
	if moved == 0 {
		t.Error("no tuple was routed to a live owner while the slot was down")
	}
	if rerouted == 0 {
		t.Error("no harvested tuple was re-pushed after the eviction")
	}

	total := make(map[int64]int)
	for _, col := range cols {
		for k, c := range col {
			total[k] += c
		}
	}
	for i := int64(0); i < int64(len(spec.Sources))*perSource; i++ {
		c := total[i]
		if c == 0 {
			t.Fatalf("key %d lost across the eviction/rejoin", i)
		}
		if i%perSource < phase1 {
			// Behind the confirmed watermark: delivery was confirmed before
			// the eviction, so the harvest may never re-push it.
			if c != 1 {
				t.Fatalf("key %d below the watermark delivered %d times, want exactly once", i, c)
			}
			continue
		}
		if c > 2 {
			t.Errorf("key %d delivered %d times, want at most twice", i, c)
		}
		if c == 2 && cols[deadIdx][i] == 0 {
			// A duplicate must straddle the eviction boundary: one copy on
			// the dead incarnation, the re-push on a live member. Two
			// copies among live members break exactly-once.
			t.Errorf("key %d duplicated among live members", i)
		}
	}
}

func TestChaosSourceEvictReattachResume(t *testing.T) {
	// A source is administratively evicted mid-stream: Push surfaces
	// ErrFlowBroken, Reattach reclaims the slot under a fresh incarnation
	// and returns the checkpointed watermark, and the application resumes
	// pushing from there. Targets reset the slot's ring for the new
	// stream; keys behind the watermark arrive exactly once, keys between
	// the watermark and the eviction at most twice, and nothing is lost.
	const (
		perSource = 2000
		phase1    = 400
		evictAt   = 150 * time.Microsecond
	)
	e := newEnv(t, 4)
	spec := FlowSpec{
		Name:       "reattach-src",
		Sources:    []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets:    []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:     kvSchema,
		ShuffleKey: 0,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	nTargets := len(spec.Targets)
	cols := make([]map[int64]int, nTargets)
	failed := make([][]int, nTargets)
	var checkpointAt sim.Time
	var pushErr error
	var wmGot uint64
	nsSlot := -1
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(evictAt)
		if err := e.reg.Evict(p, spec.Name, registry.RoleSource, 0); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	e.k.Spawn("src0", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < phase1; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		wm, err := src.Checkpoint(p)
		if err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		checkpointAt = p.Now()
		for i := int64(wm); i < perSource; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				pushErr = err
				break
			}
			p.Sleep(200 * time.Nanosecond)
		}
		if pushErr == nil {
			t.Error("source 0 was never evicted mid-stream; retune the test timings")
			src.Close(p)
			return
		}
		ns, wm2, err := src.Reattach(p)
		if err != nil {
			t.Errorf("reattach: %v", err)
			return
		}
		wmGot = wm2
		nsSlot = ns.Slot()
		if ns.Watermark() != wm2 {
			t.Errorf("rejoined source Watermark = %d, want %d", ns.Watermark(), wm2)
		}
		for i := int64(wm2); i < perSource; i++ {
			if err := ns.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("re-push %d: %v", i, err)
				return
			}
		}
		if err := ns.Close(p); err != nil {
			t.Errorf("close after reattach: %v", err)
		}
	})
	e.k.Spawn("src1", func(p *sim.Proc) {
		src, err := SourceOpen(p, e.reg, spec.Name, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(perSource); i < 2*perSource; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("healthy source push %d: %v", i, err)
				return
			}
			p.Sleep(200 * time.Nanosecond)
		}
		if err := src.Close(p); err != nil {
			t.Errorf("healthy source close: %v", err)
		}
	})
	for ti := 0; ti < nTargets; ti++ {
		ti := ti
		cols[ti] = make(map[int64]int)
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			reattachCollect(t, p, tgt, cols[ti])
			failed[ti] = tgt.FailedSources()
		})
	}
	e.run(t)

	if checkpointAt == 0 || checkpointAt >= evictAt {
		t.Fatalf("checkpoint finished at %v, not before the eviction at %v; retune the test timings", checkpointAt, evictAt)
	}
	if !errors.Is(pushErr, ErrFlowBroken) {
		t.Fatalf("push on the evicted source returned %v, want ErrFlowBroken", pushErr)
	}
	if wmGot != phase1 {
		t.Fatalf("Reattach watermark = %d, want the checkpointed %d", wmGot, phase1)
	}
	if nsSlot != 0 {
		t.Fatalf("rejoined source slot = %d, want the reclaimed slot 0", nsSlot)
	}
	for ti, f := range failed {
		// The slot was closed while evicted but reopened by the rejoin's
		// ring reset, so the final verdict must be clean.
		if len(f) != 0 {
			t.Errorf("target %d reports failed sources %v after the rejoin, want none", ti, f)
		}
	}
	total := make(map[int64]int)
	for ti, col := range cols {
		for k, c := range col {
			if home := int(schema.Hash(uint64(k)) % uint64(nTargets)); home != ti {
				t.Errorf("key %d delivered to target %d, want its home %d", k, ti, home)
			}
			total[k] += c
		}
	}
	for i := int64(0); i < 2*perSource; i++ {
		c := total[i]
		if c == 0 {
			t.Fatalf("key %d lost across the source rejoin", i)
		}
		switch {
		case i >= perSource || i < phase1:
			// The healthy source's stream and the checkpointed prefix:
			// exactly once.
			if c != 1 {
				t.Fatalf("key %d delivered %d times, want exactly once", i, c)
			}
		case c > 2:
			// Between the watermark and the eviction: the at-least-once
			// window — a pre-eviction copy plus the resume re-push.
			t.Errorf("key %d delivered %d times, want at most twice", i, c)
		}
	}
}

func TestChaosSourceRejoinWhileSegmentHeld(t *testing.T) {
	// The held-segment case of TestChaosSourceEvictReattachResume: the
	// target still holds the slot of the evicted incarnation's last
	// segment when the source rejoins. Folding the rejoin resets the ring to slot 0 /
	// sequence 0; recycling the held slot after that reset would release
	// the new stream's first segment unread — one segment lost with no
	// error at either end.
	const (
		oldKeys = 8
		newBase = 1000
		newKeys = 64
		evictAt = 50 * time.Microsecond
		holdFor = 150 * time.Microsecond
	)
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "reattach-held",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	got := make(map[int64]int)
	var rejoinedAt, resumedAt sim.Time
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
		for i := int64(0); i < oldKeys; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		if err := src.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		p.Sleep(evictAt - p.Now())
		if err := e.reg.Evict(p, spec.Name, registry.RoleSource, 0); err != nil {
			t.Errorf("evict: %v", err)
			return
		}
		ns, _, err := src.Reattach(p)
		if err != nil {
			t.Errorf("reattach: %v", err)
			return
		}
		rejoinedAt = p.Now()
		for i := int64(newBase); i < newBase+newKeys; i++ {
			if err := ns.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("re-push %d: %v", i, err)
				return
			}
		}
		if err := ns.Close(p); err != nil {
			t.Errorf("close after reattach: %v", err)
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Drain the old incarnation's one segment; its slot stays held —
		// recycled only by the next segment load — across the rejoin.
		for i := 0; i < oldKeys; i++ {
			tup, ok := tgt.Consume(p)
			if !ok {
				t.Errorf("flow ended after %d tuples, want %d before the eviction", i, oldKeys)
				return
			}
			got[kvSchema.Int64(tup, 0)]++
		}
		p.Sleep(holdFor)
		resumedAt = p.Now()
		reattachCollect(t, p, tgt, got)
	})
	e.run(t)

	if rejoinedAt == 0 || rejoinedAt >= resumedAt {
		t.Fatalf("source rejoined at %v, target resumed at %v: the rejoin must land while the segment is held; retune the test timings",
			rejoinedAt, resumedAt)
	}
	for i := int64(newBase); i < newBase+newKeys; i++ {
		if got[i] != 1 {
			t.Fatalf("key %d of the rejoined stream delivered %d times, want exactly once", i, got[i])
		}
	}
	for i := int64(0); i < oldKeys; i++ {
		if got[i] != 1 {
			t.Fatalf("key %d delivered %d times, want once (consumed before the rejoin)", i, got[i])
		}
	}
}

func TestElasticSourceReattachFreshSlot(t *testing.T) {
	// On an elastic flow a rejoining source cannot reclaim its slot
	// (slots are never recycled); Reattach transfers its identity — and
	// checkpointed watermark — to a fresh slot through the ordinary
	// attach machinery. Delivery contract as in the non-elastic test.
	const (
		perSource = 1200
		phase1    = 300
		evictAt   = 100 * time.Microsecond
	)
	e := newEnv(t, 3)
	spec := FlowSpec{
		Name:       "reattach-elastic",
		Sources:    []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}},
		Targets:    []Endpoint{{Node: e.c.Node(2)}},
		Schema:     kvSchema,
		ShuffleKey: 0,
		Options: Options{
			MaxSources:        4,
			SegmentSize:       256,
			SegmentsPerRing:   8,
			RetransmitTimeout: 40 * time.Microsecond,
		},
	}
	got := make(map[int64]int)
	var srcDone [2]bool
	var checkpointAt sim.Time
	var pushErr error
	var wmGot uint64
	nsSlot := -1
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(evictAt)
		if err := e.reg.Evict(p, spec.Name, registry.RoleSource, 0); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	e.k.Spawn("src0", func(p *sim.Proc) {
		defer func() { srcDone[0] = true }()
		src, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < phase1; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		wm, err := src.Checkpoint(p)
		if err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		checkpointAt = p.Now()
		for i := int64(wm); i < perSource; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				pushErr = err
				break
			}
			p.Sleep(200 * time.Nanosecond)
		}
		if pushErr == nil {
			t.Error("source 0 was never evicted mid-stream; retune the test timings")
			src.Close(p)
			return
		}
		ns, wm2, err := src.Reattach(p)
		if err != nil {
			t.Errorf("reattach: %v", err)
			return
		}
		wmGot = wm2
		nsSlot = ns.Slot()
		for i := int64(wm2); i < perSource; i++ {
			if err := ns.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("re-push %d: %v", i, err)
				return
			}
		}
		if err := ns.Close(p); err != nil {
			t.Errorf("close after reattach: %v", err)
		}
	})
	e.k.Spawn("src1", func(p *sim.Proc) {
		defer func() { srcDone[1] = true }()
		src, err := SourceOpen(p, e.reg, spec.Name, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(perSource); i < 2*perSource; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("healthy source push %d: %v", i, err)
				return
			}
			p.Sleep(200 * time.Nanosecond)
		}
		if err := src.Close(p); err != nil {
			t.Errorf("healthy source close: %v", err)
		}
	})
	e.k.Spawn("sealer", func(p *sim.Proc) {
		for {
			p.Sleep(20 * time.Microsecond)
			if srcDone[0] && srcDone[1] {
				if err := Seal(p, e.reg, spec.Name); err != nil {
					t.Errorf("seal: %v", err)
				}
				return
			}
		}
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		reattachCollect(t, p, tgt, got)
	})
	e.run(t)

	if checkpointAt == 0 || checkpointAt >= evictAt {
		t.Fatalf("checkpoint finished at %v, not before the eviction at %v; retune the test timings", checkpointAt, evictAt)
	}
	if !errors.Is(pushErr, ErrFlowBroken) {
		t.Fatalf("push on the evicted source returned %v, want ErrFlowBroken", pushErr)
	}
	if wmGot != phase1 {
		t.Fatalf("Reattach watermark = %d, want the checkpointed %d", wmGot, phase1)
	}
	if nsSlot != 2 {
		t.Fatalf("rejoined elastic source slot = %d, want the fresh slot 2 (slots are not recycled)", nsSlot)
	}
	for i := int64(0); i < 2*perSource; i++ {
		c := got[i]
		if c == 0 {
			t.Fatalf("key %d lost across the elastic rejoin", i)
		}
		switch {
		case i >= perSource || i < phase1:
			if c != 1 {
				t.Fatalf("key %d delivered %d times, want exactly once", i, c)
			}
		case c > 2:
			t.Errorf("key %d delivered %d times, want at most twice", i, c)
		}
	}
}

func TestReattachRejectedWhileLive(t *testing.T) {
	// Rejoin fencing: an endpoint that was never evicted cannot re-attach
	// — a duplicate incarnation of a live slot would split its stream.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "reattach-live",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{RetransmitTimeout: 40 * time.Microsecond},
	}
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
		if _, _, err := src.Reattach(p); err == nil {
			t.Error("live source re-attached; rejoin fencing is broken")
		}
		for i := int64(0); i < 100; i++ {
			if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	got := make(map[int64]int)
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tgt.Reattach(p); err == nil {
			t.Error("live target re-attached; rejoin fencing is broken")
		}
		reattachCollect(t, p, tgt, got)
	})
	e.run(t)
	if len(got) != 100 {
		t.Fatalf("delivered %d keys, want 100 (the rejected rejoins must not disturb the flow)", len(got))
	}
}

// TestTargetSupersededWhileAway: a consumer that spends the whole
// evict → rejoin interval in application code never sees its slot
// evicted — on its next pass the epoch has moved by two and the slot is
// live again, under a successor's incarnation. It must still stop and
// report Evicted(), on every kind, rather than keep scanning rings (or a
// detached group endpoint) beside its successor.
func TestTargetSupersededWhileAway(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  FlowType
		opts Options
	}{
		{"private rings", ShuffleFlow, Options{SegmentSize: 256, RetransmitTimeout: 40 * time.Microsecond}},
		{"ordered multicast", ReplicateFlow, Options{SegmentSize: 256, Multicast: true, GlobalOrdering: true, LeaseTTL: 100 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 3)
			e.k.MaxEvents = 5_000_000
			spec := FlowSpec{
				Name:    "superseded",
				Type:    tc.typ,
				Sources: []Endpoint{{Node: e.c.Node(0)}},
				Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}},
				Schema:  kvSchema,
				Options: tc.opts,
			}
			const n = 3000
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
				for i := int64(0); i < n; i++ {
					if err := src.Push(p, mkTuple(i, 2*i)); err != nil {
						t.Errorf("push %d: %v", i, err)
						return
					}
					p.Sleep(200 * time.Nanosecond)
				}
				if err := src.Close(p); err != nil {
					t.Errorf("close: %v", err)
				}
			})
			e.k.Spawn("tgt0", func(p *sim.Proc) {
				tgt, err := TargetOpen(p, e.reg, spec.Name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				reattachCollect(t, p, tgt, make(map[int64]int))
			})
			var old *Target
			e.k.Spawn("tgt1", func(p *sim.Proc) {
				tgt, err := TargetOpen(p, e.reg, spec.Name, 1)
				if err != nil {
					t.Error(err)
					return
				}
				old = tgt
				for i := 0; i < 20; i++ {
					if _, ok := tgt.Consume(p); !ok {
						t.Errorf("target 1 stopped after %d tuples, before the eviction", i)
						return
					}
				}
				p.Sleep(300 * time.Microsecond) // away: evicted at 100 µs, superseded at 150 µs
				reattachCollect(t, p, tgt, make(map[int64]int))
				if !tgt.Evicted() {
					t.Error("superseded target stopped consuming without reporting Evicted()")
				}
			})
			successorDone := false
			e.k.Spawn("successor", func(p *sim.Proc) {
				p.Sleep(100 * time.Microsecond)
				if err := e.reg.Evict(p, spec.Name, registry.RoleTarget, 1); err != nil {
					t.Errorf("evict: %v", err)
					return
				}
				p.Sleep(50 * time.Microsecond)
				if old == nil || old.Evicted() {
					t.Error("target 1 was not away over the eviction; retune the test timings")
					return
				}
				nt, err := old.Reattach(p)
				if err != nil {
					t.Errorf("rejoin: %v", err)
					return
				}
				reattachCollect(t, p, nt, make(map[int64]int))
				successorDone = nt.Done()
			})
			e.run(t)
			if !successorDone {
				t.Error("the successor did not reach flow end")
			}
		})
	}
}
