package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dfi/internal/registry"
	"dfi/internal/transport"
)

// The control plane on both backends: leases, suspicion, eviction and
// re-routing are registry and core code that knows no clock, so each
// scenario runs unchanged on the DES (virtual microseconds) and on
// chanloop (real goroutines, wall-clock milliseconds, -race). Nothing
// here sleeps to "let" the control plane act: a body that needs an
// eviction to have happened waits for Membership.Epoch to move.

var ctrlBackends = []func(int) *diffBackend{newDiffDES, newDiffChan}

// ctrlSpec is a leased 1:nTgt shuffle on b.
func ctrlSpec(b *diffBackend, name string, nTgt int, shared bool) FlowSpec {
	spec := FlowSpec{
		Name:    name,
		Schema:  kvSchema,
		Sources: []Endpoint{{Node: b.node(0)}},
		Options: Options{SegmentSize: 16 * kvSchema.TupleSize(), LeaseTTL: b.ttl, SharedRings: shared},
	}
	for i := 0; i < nTgt; i++ {
		spec.Targets = append(spec.Targets, Endpoint{Node: b.node(1 + i)})
	}
	return spec
}

// awaitEpoch parks the caller until the flow's epoch leaves from.
func awaitEpoch(p transport.Ctx, b *diffBackend, mem *registry.Membership, from uint64) {
	for mem.Epoch() == from {
		p.Sleep(b.ttl / 20)
	}
}

// ledger records which target consumed which tuple id.
type ledger struct {
	mu   sync.Mutex
	seen []map[int64]int // per target: id → times consumed
}

func newLedger(nTgt int) *ledger {
	l := &ledger{seen: make([]map[int64]int, nTgt)}
	for i := range l.seen {
		l.seen[i] = map[int64]int{}
	}
	return l
}

func (l *ledger) note(tgt int, id int64) {
	l.mu.Lock()
	l.seen[tgt][id]++
	l.mu.Unlock()
}

// check requires every id in [0,n) to have reached some target, and
// no id to have reached the targets other than victim more than once
// between them (re-delivery is only allowed across the eviction
// boundary: once on the victim, once on a survivor).
func (l *ledger) check(t *testing.T, name string, n int, victim int) {
	t.Helper()
	missing, dup := 0, 0
	for id := int64(0); id < int64(n); id++ {
		total, survivors := 0, 0
		for tgt, seen := range l.seen {
			total += seen[id]
			if tgt != victim {
				survivors += seen[id]
			}
		}
		if total == 0 {
			missing++
		}
		if survivors > 1 {
			dup++
		}
	}
	if missing > 0 || dup > 0 {
		t.Errorf("%s: %d of %d tuples unaccounted for, %d duplicated among survivors", name, missing, n, dup)
	}
}

// drain consumes tgt to the end, recording ids in the ledger.
func drain(p transport.Ctx, tgt *Target, idx int, l *ledger) {
	for {
		tup, ok := tgt.Consume(p)
		if !ok {
			return
		}
		l.note(idx, kvSchema.Int64(tup, 1))
	}
}

// TestDESAndChanLeaseKeepAlive runs a leased flow for more than three
// TTLs — the source paces its pushes — on private and on shared rings:
// the node lease agents must keep every slot Active throughout.
func TestDESAndChanLeaseKeepAlive(t *testing.T) {
	for _, mk := range ctrlBackends {
		for _, shared := range []bool{false, true} {
			b := mk(3)
			name := fmt.Sprintf("%s/shared=%v", b.name, shared)
			spec := ctrlSpec(b, "keepalive", 2, shared)
			const chunks, perChunk = 8, 50
			l := newLedger(2)
			bodies := []func(transport.Ctx){func(p transport.Ctx) {
				if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
					t.Error(err)
				}
			}, func(p transport.Ctx) {
				src, err := SourceOpen(p, b.reg, spec.Name, 0)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				for i := 0; i < chunks*perChunk; i++ {
					if i%perChunk == 0 {
						p.Sleep(b.ttl / 2) // 8 × TTL/2: the run outlives 3 TTLs
					}
					if err := src.Push(p, mkTuple(int64(i), int64(i))); err != nil {
						t.Errorf("%s: push %d: %v", name, i, err)
						return
					}
				}
				if err := src.Close(p); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}}
			for ti := 0; ti < 2; ti++ {
				ti := ti
				bodies = append(bodies, func(p transport.Ctx) {
					tgt, err := TargetOpen(p, b.reg, spec.Name, ti)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					drain(p, tgt, ti, l)
					if tgt.Evicted() {
						t.Errorf("%s: target %d was evicted from a healthy flow", name, ti)
					}
				})
			}
			b.run(t, bodies)
			l.check(t, name, chunks*perChunk, -1)
			mem := b.reg.MembershipOf(spec.Name)
			if mem.Epoch() != 0 || len(mem.EvictedTargets()) != 0 || mem.SourceEvicted(0) {
				t.Errorf("%s: membership moved under a healthy flow: epoch %d, evicted targets %v",
					name, mem.Epoch(), mem.EvictedTargets())
			}
			if b.reg.LeaseRenewRPCs() < 3 {
				t.Errorf("%s: %d lease renewals over a run of 4 TTLs", name, b.reg.LeaseRenewRPCs())
			}
		}
	}
}

// deafRegistry is a registry as a partitioned node sees it: once deaf,
// its lease renewals go nowhere.
type deafRegistry struct {
	Registry
	deaf atomic.Bool
}

func (d *deafRegistry) RenewLeaseBatch(p transport.Ctx, refs []registry.LeaseRef) []registry.LeaseRef {
	if d.deaf.Load() {
		return nil
	}
	return d.Registry.RenewLeaseBatch(p, refs)
}

// TestDESAndChanEvictSilentTarget wedges one of three targets: it stops
// consuming and its heartbeats stop arriving. The registry must suspect
// and evict it, and the source — blocked on the wedged ring — must
// harvest what that ring still holds and re-route it to the survivors,
// every tuple accounted for.
func TestDESAndChanEvictSilentTarget(t *testing.T) {
	const victim, n = 2, 3000
	for _, mk := range ctrlBackends {
		b := mk(4)
		spec := ctrlSpec(b, "silent", 3, false)
		l := newLedger(3)
		var rerouted uint64
		bodies := []func(transport.Ctx){func(p transport.Ctx) {
			if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
				t.Error(err)
			}
		}, func(p transport.Ctx) {
			src, err := SourceOpen(p, b.reg, spec.Name, 0)
			if err != nil {
				t.Errorf("%s: %v", b.name, err)
				return
			}
			for i := 0; i < n; i++ {
				if err := src.Push(p, mkTuple(int64(i), int64(i))); err != nil {
					t.Errorf("%s: push %d: %v", b.name, i, err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Errorf("%s: close: %v", b.name, err)
			}
			rerouted = src.Stats().Rerouted
		}}
		for ti := 0; ti < 3; ti++ {
			ti := ti
			bodies = append(bodies, func(p transport.Ctx) {
				if ti != victim {
					tgt, err := TargetOpen(p, b.reg, spec.Name, ti)
					if err != nil {
						t.Errorf("%s: %v", b.name, err)
						return
					}
					drain(p, tgt, ti, l)
					return
				}
				deaf := &deafRegistry{Registry: b.reg}
				tgt, err := TargetOpen(p, deaf, spec.Name, ti)
				if err != nil {
					t.Errorf("%s: %v", b.name, err)
					return
				}
				for i := 0; i < 10; i++ {
					tup, ok := tgt.Consume(p)
					if !ok {
						t.Errorf("%s: victim's stream ended after %d tuples", b.name, i)
						return
					}
					l.note(ti, kvSchema.Int64(tup, 1))
				}
				deaf.deaf.Store(true)
				awaitEpoch(p, b, tgt.mem, 0)
				// Back from the dead: it may finish the segment it holds,
				// then finds itself fenced.
				drain(p, tgt, ti, l)
				if !tgt.Evicted() {
					t.Errorf("%s: victim's stream ended without it noticing the eviction", b.name)
				}
			})
		}
		b.run(t, bodies)
		l.check(t, b.name, n, victim)
		if mem := b.reg.MembershipOf(spec.Name); !mem.TargetEvicted(victim) || len(mem.EvictedTargets()) != 1 {
			t.Errorf("%s: evicted targets %v, want [%d]", b.name, mem.EvictedTargets(), victim)
		}
		if rerouted == 0 {
			t.Errorf("%s: the source re-routed nothing", b.name)
		}
	}
}

// TestDESAndChanEvictMidPush evicts a target administratively when the
// source is halfway through its stream. On private rings the harvest is
// at-least-once across the boundary, so every tuple is accounted for;
// a shared ring loses its in-flight window (at-most-once) but must still
// finish, fence the victim, and deliver nothing twice.
func TestDESAndChanEvictMidPush(t *testing.T) {
	const victim, n = 1, 4000
	for _, mk := range ctrlBackends {
		for _, shared := range []bool{false, true} {
			b := mk(4)
			name := fmt.Sprintf("%s/shared=%v", b.name, shared)
			spec := ctrlSpec(b, "midpush", 3, shared)
			l := newLedger(3)
			bodies := []func(transport.Ctx){func(p transport.Ctx) {
				if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
					t.Error(err)
				}
			}, func(p transport.Ctx) {
				src, err := SourceOpen(p, b.reg, spec.Name, 0)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				for i := 0; i < n; i++ {
					if i == n/2 {
						if err := b.reg.Evict(p, spec.Name, registry.RoleTarget, victim); err != nil {
							t.Errorf("%s: evict: %v", name, err)
						}
					}
					if err := src.Push(p, mkTuple(int64(i), int64(i))); err != nil {
						t.Errorf("%s: push %d: %v", name, i, err)
						return
					}
				}
				if err := src.Close(p); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
				if src.Epoch() != 1 {
					t.Errorf("%s: source folded epoch %d, want 1", name, src.Epoch())
				}
			}}
			for ti := 0; ti < 3; ti++ {
				ti := ti
				bodies = append(bodies, func(p transport.Ctx) {
					tgt, err := TargetOpen(p, b.reg, spec.Name, ti)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					drain(p, tgt, ti, l)
					if tgt.Evicted() != (ti == victim) {
						t.Errorf("%s: target %d evicted=%v", name, ti, tgt.Evicted())
					}
				})
			}
			b.run(t, bodies)
			if shared {
				// Everything pushed after the strike went to survivors;
				// nothing anywhere arrived twice.
				for id := int64(0); id < n; id++ {
					total := 0
					for _, seen := range l.seen {
						total += seen[id]
					}
					if total > 1 || (id >= n/2 && total == 0) {
						t.Errorf("%s: tuple %d delivered %d times", name, id, total)
						break
					}
				}
			} else {
				l.check(t, name, n, victim)
			}
		}
	}
}
