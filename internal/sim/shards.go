package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// This file implements conservative parallel DES: a ShardGroup runs several
// kernels — shards, each owning an independent set of node timelines — on
// host cores in lockstep windows of virtual time. The protocol is the
// classic conservative (Chandy–Misra–Bryant style) scheme specialized to a
// fixed minimum cross-shard latency:
//
//	window:    all shards run events in [T, T+lookahead), where T is the
//	           globally earliest pending instant.
//	lookahead: a lower bound on the virtual latency of any cross-shard
//	           interaction (for a fabric, the link propagation + switch
//	           delay of one hop). A cross-shard post made at virtual time
//	           t lands at or after t+lookahead ≥ T+lookahead, i.e. never
//	           inside the window being executed — so shards never need to
//	           roll back and no null messages are required.
//
// Cross-shard events travel through per-destination mailboxes and are
// merged into the destination heap at window boundaries in (at, srcShard,
// srcSeq) order. That order is a pure function of virtual time, so a run's
// dispatch sequence — and therefore every virtual metric — is independent
// of host scheduling, core count, and which goroutine finishes a window
// first. Within a shard, dispatch order is the same total (at, seq) order
// a standalone kernel uses; a group of one shard executes event-for-event
// identically to Kernel.Run.
//
// What sharding does NOT give: a total order of events ACROSS shards at
// equal timestamps (each shard has its own seq counter), and it must not be
// combined with cross-shard use of the single-kernel primitives (Cond,
// Resource, Spawn onto another shard). Workloads needing a global total order —
// fault-injection schedules keyed to one rng stream, multicast sequencers
// spanning shards — run in single-shard mode, which is the determinism
// baseline. See docs/ARCHITECTURE.md.

// xevent is one cross-shard event in flight: a callback or pooled op due on
// another shard's timeline. srcShard/srcSeq make the boundary merge order
// deterministic.
type xevent struct {
	at       Time
	srcShard int
	srcSeq   uint64
	fn       func()
	op       Op
	step     uint8
}

// ShardGroup coordinates a set of kernels advancing in conservative
// lookahead windows. Construct with NewShardGroup, populate each shard via
// Shard(i).Spawn, then call Run.
type ShardGroup struct {
	lookahead Time
	shards    []*Kernel

	mu      sync.Mutex
	inboxes [][]xevent // per-destination cross-shard mailboxes
	xseq    []uint64   // per-source post counters (merge tiebreak)
}

// NewShardGroup creates n kernels whose random sources derive
// deterministically from seed. lookahead must be positive and no larger
// than the minimum virtual latency of any cross-shard interaction the
// workload performs (PostShard enforces the bound per post).
func NewShardGroup(n int, seed int64, lookahead Time) *ShardGroup {
	if n <= 0 {
		panic("sim: shard group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	g := &ShardGroup{
		lookahead: lookahead,
		inboxes:   make([][]xevent, n),
		xseq:      make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		// Golden-ratio increment (two's-complement of 0x9E3779B97F4A7C15)
		// spreads per-shard seeds; any deterministic f(seed, i) works.
		k := New(seed ^ int64(i+1)*-7046029254386353131)
		k.group, k.shardID = g, i
		g.shards = append(g.shards, k)
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's kernel.
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i] }

// Lookahead returns the group's conservative lookahead.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// PostShard schedules fn on shard dst's timeline at absolute virtual time
// at. It must be called from process or event context of this kernel, and
// at must respect the group lookahead (at ≥ now+lookahead) — that bound is
// what lets the destination shard run its current window without waiting;
// violating it would require a rollback, so it panics.
func (k *Kernel) PostShard(dst int, at Time, fn func()) {
	k.postShard(dst, at, xevent{fn: fn})
}

// PostShardOp is PostShard for a pooled op payload (see Kernel.AtOp). The
// op must be safe to run on the destination shard's timeline.
func (k *Kernel) PostShardOp(dst int, at Time, op Op, step uint8) {
	k.postShard(dst, at, xevent{op: op, step: step})
}

func (k *Kernel) postShard(dst int, at Time, xe xevent) {
	g := k.group
	if g == nil {
		panic("sim: PostShard on a kernel outside any ShardGroup")
	}
	if dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: PostShard to unknown shard %d", dst))
	}
	if at < k.now+g.lookahead {
		panic(fmt.Sprintf("sim: PostShard at t=%v violates lookahead %v (now %v)",
			at, g.lookahead, k.now))
	}
	xe.at = at
	xe.srcShard = k.shardID
	g.mu.Lock()
	xe.srcSeq = g.xseq[k.shardID]
	g.xseq[k.shardID]++
	g.inboxes[dst] = append(g.inboxes[dst], xe)
	g.mu.Unlock()
}

// nextInstant returns the earliest pending instant across all shard heaps
// and mailboxes, or ok=false when everything has drained.
func (g *ShardGroup) nextInstant() (Time, bool) {
	t := Time(math.MaxInt64)
	found := false
	for _, k := range g.shards {
		if at, _, ok := k.peek(); ok && (!found || at < t) {
			t, found = at, true
		}
	}
	g.mu.Lock()
	for _, box := range g.inboxes {
		for i := range box {
			if !found || box[i].at < t {
				t, found = box[i].at, true
			}
		}
	}
	g.mu.Unlock()
	return t, found
}

// deliver merges every mailbox entry due before w into its destination
// heap, in (at, srcShard, srcSeq) order so the assigned sequence numbers —
// and with them the dispatch order — do not depend on host scheduling.
func (g *ShardGroup) deliver(w Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for s := range g.inboxes {
		box := g.inboxes[s]
		var due []xevent
		kept := box[:0]
		for _, xe := range box {
			if xe.at < w {
				due = append(due, xe)
			} else {
				kept = append(kept, xe)
			}
		}
		g.inboxes[s] = kept
		if len(due) == 0 {
			continue
		}
		sort.Slice(due, func(i, j int) bool {
			a, b := &due[i], &due[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.srcShard != b.srcShard {
				return a.srcShard < b.srcShard
			}
			return a.srcSeq < b.srcSeq
		})
		k := g.shards[s]
		for _, xe := range due {
			if xe.fn != nil {
				k.push(event{at: xe.at, kind: evFn, fn: xe.fn})
			} else {
				k.push(event{at: xe.at, kind: evOp, op: xe.op, gen: uint64(xe.step)})
			}
		}
	}
}

// Run drives all shards to completion: windows of [T, T+lookahead) execute
// in parallel (one goroutine per shard that has work) separated by
// mailbox-merge barriers. It returns the first shard failure (lowest shard
// index wins, deterministically), or a group-wide deadlock report when live
// processes remain after every heap and mailbox has drained.
func (g *ShardGroup) Run() error {
	for {
		t, ok := g.nextInstant()
		if !ok {
			break
		}
		w := t + g.lookahead
		g.deliver(w)
		// Only shards with an event inside the window need a goroutine;
		// a window that touches one shard (or a one-shard group) runs
		// inline on this goroutine.
		active := g.shards[:0:0]
		for _, k := range g.shards {
			if at, _, ok := k.peek(); ok && at < w {
				active = append(active, k)
			}
		}
		errs := make([]error, len(active))
		if len(active) == 1 {
			errs[0] = active[0].runUntil(w)
		} else {
			var wg sync.WaitGroup
			for i, k := range active {
				wg.Add(1)
				go func(i int, k *Kernel) {
					defer wg.Done()
					errs[i] = k.runUntil(w)
				}(i, k)
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	live := 0
	for _, k := range g.shards {
		if k.failure != nil {
			return k.failure
		}
		live += len(k.procs)
	}
	if live > 0 {
		var parts []string
		for i, k := range g.shards {
			if len(k.procs) > 0 {
				parts = append(parts, fmt.Sprintf("shard %d: %v", i, k.deadlockErr()))
			}
		}
		return fmt.Errorf("sim: shard group deadlock: %d live processes [%s]",
			live, strings.Join(parts, "; "))
	}
	return nil
}
