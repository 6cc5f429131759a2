// Package partition factors tuple routing out of the flow/source/
// lifecycle tangle into a pluggable partitioner layer.
//
// A flow declares a partitioning Scheme (core.Options.Partitioning) and
// normalization builds one immutable Table per flow: the routing
// geometry every endpoint agrees on. Each endpoint then derives its own
// View — the Table joined with the endpoint's current notion of slot
// liveness — and routes through it:
//
//	tbl, _ := partition.NewTable(partition.Ring, len(targets), 0)
//	view := tbl.NewView()
//	slot := tbl.Home(hashKey)          // full-membership owner (hot path)
//	slot, moved := view.Route(hashKey) // live owner after evictions
//
// Two schemes are provided. Modulo is the paper's Hash(key) % N and the
// compatibility default; on an eviction the dead slot's keys are
// rehashed over the survivor list, which moves only the dead slot's
// share but *re-moves* previously folded keys on every later membership
// change (the survivor list re-indexes). Ring hashes each slot onto a
// consistent-hash ring at VirtualNodes points; a key is owned by the
// first live point clockwise from its hash, so an eviction moves only
// the dead slot's arcs (~1/N of the key space), later changes never
// disturb keys whose owner survived, and a slot that rejoins reclaims
// exactly the arcs it lost.
//
// Tables and Views hold no locks: a Table is immutable after NewTable,
// and a View is owned by exactly one endpoint (the simulation kernel
// serializes all endpoint processes).
package partition

import (
	"fmt"
	"sort"

	"dfi/internal/schema"
)

// Scheme selects a partitioning strategy for a flow.
type Scheme uint8

// Partitioning schemes.
const (
	// Modulo routes key hashes with Hash(key) % targets — the paper's
	// scheme, kept as the compatibility default.
	Modulo Scheme = iota
	// Ring routes over a consistent-hash ring with virtual nodes,
	// bounding rebalance on membership changes to the changed slot's
	// arcs.
	Ring
)

// String returns the scheme's name as cmd/dfiflow's -partition flag
// spells it. A pure function of the value: safe from any goroutine.
func (s Scheme) String() string {
	switch s {
	case Modulo:
		return "modulo"
	case Ring:
		return "ring"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// ParseScheme parses a scheme name as used by cmd/dfiflow's -partition
// flag.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "modulo":
		return Modulo, nil
	case "ring":
		return Ring, nil
	}
	return Modulo, fmt.Errorf("partition: unknown scheme %q (want modulo or ring)", name)
}

// DefaultVirtualNodes is the ring scheme's virtual-node count per slot.
// TestRingLoadWithinTwiceEven pins the resulting balance: at 128 vnodes
// over 8 targets a 100k-key sample stays within 2× of even load both
// before and after an eviction (observed max/even ≈ 1.2); fewer vnodes
// (≤16) were observed to breach the 2× bound for unlucky slots.
const DefaultVirtualNodes = 128

// point is one virtual node on the ring.
type point struct {
	hash uint64
	slot int
}

// Table is a flow's immutable routing geometry, shared by every
// endpoint of the flow.
type Table struct {
	scheme Scheme
	n      int
	vnodes int
	points []point // ring scheme only; sorted by hash
}

// NewTable builds the routing table for n target slots. vnodes sets the
// ring scheme's virtual nodes per slot (0 means DefaultVirtualNodes;
// ignored by Modulo).
func NewTable(scheme Scheme, n, vnodes int) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("partition: table needs at least one slot, got %d", n)
	}
	t := &Table{scheme: scheme, n: n}
	switch scheme {
	case Modulo:
	case Ring:
		if vnodes <= 0 {
			vnodes = DefaultVirtualNodes
		}
		t.vnodes = vnodes
		t.points = make([]point, 0, n*vnodes)
		for slot := 0; slot < n; slot++ {
			for v := 0; v < vnodes; v++ {
				t.points = append(t.points, point{hash: pointHash(slot, v), slot: slot})
			}
		}
		sort.Slice(t.points, func(i, j int) bool {
			if t.points[i].hash != t.points[j].hash {
				return t.points[i].hash < t.points[j].hash
			}
			return t.points[i].slot < t.points[j].slot
		})
	default:
		return nil, fmt.Errorf("partition: unknown scheme %d", scheme)
	}
	return t, nil
}

// pointHash places virtual node v of a slot on the ring. Both mix
// constants are odd (bijective multiplication) and the splitmix64
// finalizer scatters the result, so slots land in interleaved arcs.
func pointHash(slot, v int) uint64 {
	return schema.Hash(uint64(slot+1)*0x9E3779B97F4A7C15 ^ uint64(v+1)*0xBF58476D1CE4E5B9)
}

// Scheme returns the table's partitioning scheme.
func (t *Table) Scheme() Scheme { return t.scheme }

// Slots returns the number of target slots the table routes over.
func (t *Table) Slots() int { return t.n }

// VirtualNodes returns the ring scheme's per-slot virtual-node count
// (0 for Modulo).
func (t *Table) VirtualNodes() int { return t.vnodes }

// successor returns the index of the first ring point at or clockwise
// of h.
func (t *Table) successor(h uint64) int {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].hash >= h })
	if i == len(t.points) {
		return 0
	}
	return i
}

// Home returns the slot that owns key under full membership — the
// declared route of the Push hot path. key is the tuple's raw shuffle
// key; hashing is the table's concern so both schemes see the same
// input.
func (t *Table) Home(key uint64) int {
	h := schema.Hash(key)
	if t.scheme == Modulo {
		return t.modulo(h)
	}
	return t.points[t.successor(h)].slot
}

// modulo is h % n, taken with a mask when n is a power of two: the
// 64-bit divide was the larger part of a Push's route, and one target —
// every flow of a fleet — needs no arithmetic at all.
func (t *Table) modulo(h uint64) int {
	n := uint64(t.n)
	if n&(n-1) == 0 {
		return int(h & (n - 1))
	}
	return int(h % n)
}

// NewView derives a per-endpoint live view of the table with every slot
// live. Views are not shared between endpoints: each folds membership
// epochs at its own pace.
func (t *Table) NewView() *View {
	v := &View{t: t, live: make([]bool, t.n)}
	for i := range v.live {
		v.live[i] = true
	}
	v.rebuild()
	return v
}

// View joins a Table with one endpoint's current notion of slot
// liveness. Route and Fold answer "where does this go *now*", and
// report whether that differs from the full-membership owner (the
// rebalance cost surfaced as the Moved stat).
type View struct {
	t     *Table
	live  []bool
	alive []int // live slots in ascending order (modulo survivor list)
}

// Table returns the view's underlying table.
func (v *View) Table() *Table { return v.t }

// SetLive replaces the view's liveness vector (length must equal the
// table's slot count).
func (v *View) SetLive(live []bool) {
	if len(live) != len(v.live) {
		panic(fmt.Sprintf("partition: SetLive with %d slots on a %d-slot table", len(live), len(v.live)))
	}
	copy(v.live, live)
	v.rebuild()
}

func (v *View) rebuild() {
	v.alive = v.alive[:0]
	for i, ok := range v.live {
		if ok {
			v.alive = append(v.alive, i)
		}
	}
}

// Live reports whether a slot is live in this view.
func (v *View) Live(slot int) bool { return slot >= 0 && slot < len(v.live) && v.live[slot] }

// LiveCount returns the number of live slots.
func (v *View) LiveCount() int { return len(v.alive) }

// LiveSlots returns the live slots in ascending order. The slice is
// shared with the view; callers must not mutate or retain it across
// SetLive.
func (v *View) LiveSlots() []int { return v.alive }

// Route returns the live owner of key, and whether that differs from
// the key's full-membership home (a moved key). Returns slot -1 when no
// slot is live.
func (v *View) Route(key uint64) (slot int, moved bool) {
	if len(v.alive) == 0 {
		return -1, false
	}
	h := schema.Hash(key)
	if v.t.scheme == Modulo {
		home := v.t.modulo(h)
		if v.live[home] {
			return home, false
		}
		return v.alive[h%uint64(len(v.alive))], true
	}
	idx := v.t.successor(h)
	home := v.t.points[idx].slot
	for k := 0; k < len(v.t.points); k++ {
		if s := v.t.points[(idx+k)%len(v.t.points)].slot; v.live[s] {
			return s, s != home
		}
	}
	return -1, false
}

// Fold deterministically maps a declared slot onto a live one — the
// remap for tuples without a usable key (custom RoutingFuncs, PushTo):
// the slot itself while live, otherwise the ring successor of the
// slot's first virtual node (Ring) or a fold over the survivor list
// (Modulo). Every endpoint computes the same fold from the same
// membership. Returns slot -1 when no slot is live.
func (v *View) Fold(from int) (slot int, moved bool) {
	if v.Live(from) {
		return from, false
	}
	if len(v.alive) == 0 {
		return -1, false
	}
	if v.t.scheme == Modulo {
		return v.alive[from%len(v.alive)], true
	}
	idx := v.t.successor(pointHash(from, 0))
	for k := 0; k < len(v.t.points); k++ {
		if s := v.t.points[(idx+k)%len(v.t.points)].slot; v.live[s] && s != from {
			return s, true
		}
	}
	return v.alive[from%len(v.alive)], true
}
