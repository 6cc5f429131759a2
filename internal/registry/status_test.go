package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// rebuildStatus is the from-scratch snapshot builder the registry used
// before the snapshot became incremental, kept as the oracle: it reads
// nothing but the state machine, so it cannot share a bookkeeping bug
// with markStale/statusLocked. Called inside the monitor.
func (r *Registry) rebuildStatus() *ClusterStatus {
	st := &ClusterStatus{}
	names := make([]string, 0, len(r.flows))
	for n := range r.flows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := r.flows[n]
		fs := FlowStatus{Name: n, TargetsPublished: len(e.targets)}
		if m := e.mem; m != nil {
			fs.Epoch = m.epoch.Load()
			for k, l := range m.eps {
				fs.Endpoints = append(fs.Endpoints, EndpointStatus{
					Role:        k.role.String(),
					Slot:        k.idx,
					State:       l.state.String(),
					Incarnation: l.inc,
					Watermark:   l.watermark,
				})
			}
			sort.Slice(fs.Endpoints, func(i, j int) bool {
				a, b := fs.Endpoints[i], fs.Endpoints[j]
				if a.Role != b.Role {
					return a.Role < b.Role
				}
				return a.Slot < b.Slot
			})
		}
		st.Flows = append(st.Flows, fs)
	}
	if g := r.repl; g != nil {
		st.Replication = &ReplStatus{
			Replicas:      len(g.acceptors),
			Master:        g.master,
			Ballot:        g.ballot,
			Elections:     g.elections,
			Snapshots:     g.snapCount,
			SnapshotIndex: g.snap.Index,
			LogLen:        g.logLen(),
			AppliedSize:   len(g.applied),
		}
	}
	return st
}

// statusControl is the command surface the equivalence test drives; the
// plain Registry and Sharded both provide it.
type statusControl interface {
	Publish(p transport.Ctx, name string, meta any) error
	PublishTarget(p transport.Ctx, flow string, idx int, info any) error
	RepublishTarget(p transport.Ctx, flow string, idx int, info any) error
	Remove(p transport.Ctx, name string)
	AcquireLease(p transport.Ctx, flow string, role Role, idx int, ttl, grace time.Duration) error
	RenewLease(p transport.Ctx, flow string, role Role, idx int) error
	RenewLeaseBatch(p transport.Ctx, refs []LeaseRef) []LeaseRef
	ReleaseLease(p transport.Ctx, flow string, role Role, idx int)
	Evict(p transport.Ctx, flow string, role Role, idx int) error
	Rejoin(p transport.Ctx, flow string, role Role, idx, newIdx int) (Rejoined, error)
	SetWatermark(p transport.Ctx, flow string, role Role, idx int, watermark uint64) error
	RecordSeqSkips(p transport.Ctx, flow string, epoch uint64, seqs ...uint64) error
	Status() *ClusterStatus
}

// TestStatusSnapshotMatchesRebuild drives a seeded random command
// sequence — publishes, target rendezvous, lease acquire / renew /
// batched renew / release, expiry by letting time pass, eviction,
// rejoin, watermarks, removal, and commands on flows that do not exist —
// through a plain, a sharded, a replicated and a wall-clock registry, and
// after every command requires the incrementally maintained snapshot to
// deep-equal a from-scratch rebuild. T is excluded: it is the time of
// the last visible change, which a rebuild cannot know.
func TestStatusSnapshotMatchesRebuild(t *testing.T) {
	type variant struct {
		name string
		// build is handed a kernel; a variant that ignores it (and sets
		// wall) is driven by the test goroutine on the host clock.
		build func(k *sim.Kernel) (statusControl, []*Registry)
		wall  bool
	}
	variants := []variant{
		{name: "local", wall: true, build: func(*sim.Kernel) (statusControl, []*Registry) {
			r := NewLocal()
			return r, []*Registry{r}
		}},
		{name: "plain", build: func(k *sim.Kernel) (statusControl, []*Registry) {
			r := New(k)
			return r, []*Registry{r}
		}},
		{name: "sharded", build: func(k *sim.Kernel) (statusControl, []*Registry) {
			s := NewSharded(k, 3)
			return s, s.shards
		}},
		{name: "replicated", build: func(k *sim.Kernel) (statusControl, []*Registry) {
			r, err := New(k).Replicate(ReplicaConfig{RPCDelay: 100 * time.Nanosecond, SnapshotEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			return r, []*Registry{r}
		}},
		{name: "replicated-unlogged-renew", build: func(k *sim.Kernel) (statusControl, []*Registry) {
			r, err := New(k).Replicate(ReplicaConfig{RPCDelay: 100 * time.Nanosecond, UnloggedRenew: true})
			if err != nil {
				t.Fatal(err)
			}
			return r, []*Registry{r}
		}},
	}
	for _, v := range variants {
		for _, seed := range []int64{1, 7, 42} {
			v, seed := v, seed
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				k := sim.New(seed)
				reg, shards := v.build(k)
				rnd := rand.New(rand.NewSource(seed))
				const nFlows, nSlots, nOps = 9, 3, 600
				flow := func() string { return fmt.Sprintf("flow%02d", rnd.Intn(nFlows)) }
				role := func() Role { return Role(rnd.Intn(2)) }
				ttl := 20 * time.Microsecond
				if v.wall {
					ttl = 2 * time.Millisecond
				}

				// The comparison runs inside every shard's monitor: on the
				// wall clock a lease timer may fire at any moment, and it
				// publishes under the same lock.
				check := func(op string) {
					t.Helper()
					for _, r := range shards {
						r.mu.Lock()
						defer r.mu.Unlock()
					}
					var want []FlowStatus
					for i, r := range shards {
						got, oracle := r.statusLocked(), r.rebuildStatus()
						if !reflect.DeepEqual(got.Flows, oracle.Flows) {
							t.Fatalf("after %s: shard %d flows diverged\nincremental: %+v\nrebuild:     %+v", op, i, got.Flows, oracle.Flows)
						}
						if !reflect.DeepEqual(got.Replication, oracle.Replication) {
							t.Fatalf("after %s: shard %d replication diverged\nincremental: %+v\nrebuild:     %+v", op, i, got.Replication, oracle.Replication)
						}
						want = append(want, oracle.Flows...)
					}
					sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
					if got := mergeStatus(shards, (*Registry).statusLocked).Flows; !reflect.DeepEqual(got, want) {
						t.Fatalf("after %s: merged flows diverged\nincremental: %+v\nrebuild:     %+v", op, got, want)
					}
				}

				driver := func(p transport.Ctx) {
					for i := 0; i < nOps; i++ {
						var op string
						switch rnd.Intn(15) {
						case 0, 1:
							op = "Publish"
							_ = reg.Publish(p, flow(), i)
						case 2:
							op = "PublishTarget"
							_ = reg.PublishTarget(p, flow(), rnd.Intn(nSlots), i)
						case 3, 4:
							op = "AcquireLease"
							_ = reg.AcquireLease(p, flow(), role(), rnd.Intn(nSlots), ttl, ttl/2)
						case 5, 6:
							op = "RenewLease"
							_ = reg.RenewLease(p, flow(), role(), rnd.Intn(nSlots))
						case 7, 8:
							op = "RenewLeaseBatch"
							refs := make([]LeaseRef, 1+rnd.Intn(8))
							for j := range refs {
								refs[j] = LeaseRef{Flow: flow(), Role: role(), Idx: rnd.Intn(nSlots)}
							}
							_ = reg.RenewLeaseBatch(p, refs)
						case 9:
							op = "ReleaseLease"
							reg.ReleaseLease(p, flow(), role(), rnd.Intn(nSlots))
						case 10:
							// Let leases run out: expiry and eviction fire from
							// clock timers, not from a command.
							op = "expire"
							p.Sleep(time.Duration(rnd.Intn(3)) * ttl / 2)
						case 11:
							op = "Evict"
							_ = reg.Evict(p, flow(), role(), rnd.Intn(nSlots))
						case 12:
							op = "Rejoin"
							f, ro, idx := flow(), role(), rnd.Intn(nSlots)
							if _, err := reg.Rejoin(p, f, ro, idx, idx); err == nil && ro == RoleTarget {
								_ = reg.RepublishTarget(p, f, idx, i)
							}
						case 13:
							op = "SetWatermark"
							_ = reg.SetWatermark(p, flow(), role(), rnd.Intn(nSlots), uint64(i))
							_ = reg.RecordSeqSkips(p, flow(), 0, uint64(i))
						case 14:
							op = "Remove"
							reg.Remove(p, flow())
						}
						check(fmt.Sprintf("op %d (%s)", i, op))
					}
					// Drain: every remaining lease expires and evicts.
					p.Sleep(4 * ttl)
					check("drain")
				}
				if v.wall {
					driver(chanloop.New().NewCtx())
					return
				}
				k.Spawn("driver", func(p *sim.Proc) { driver(p) })
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestStatusSkipsUnchangedRenewal pins the steady-state cost: renewing
// Active leases, singly or batched, publishes no new snapshot, while a
// renewal that rescues a Suspect lease does.
func TestStatusSkipsUnchangedRenewal(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	const ttl = 10 * time.Microsecond
	k.Spawn("driver", func(p *sim.Proc) {
		if err := r.Publish(p, "f", nil); err != nil {
			t.Fatal(err)
		}
		if err := r.AcquireLease(p, "f", RoleSource, 0, ttl, 4*ttl); err != nil {
			t.Fatal(err)
		}
		before := r.Status()
		p.Sleep(ttl / 2)
		if err := r.RenewLease(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		if failed := r.RenewLeaseBatch(p, []LeaseRef{{Flow: "f", Role: RoleSource, Idx: 0}}); len(failed) != 0 {
			t.Fatalf("batched renewal failed: %v", failed)
		}
		if r.Status() != before {
			t.Errorf("renewing an Active lease published a new snapshot")
		}
		p.Sleep(ttl + ttl/2) // active -> suspect
		suspect := r.Status()
		if suspect == before || suspect.Flows[0].Endpoints[0].State != "suspect" {
			t.Fatalf("expiry not published: %+v", suspect.Flows)
		}
		if failed := r.RenewLeaseBatch(p, []LeaseRef{{Flow: "f", Role: RoleSource, Idx: 0}}); len(failed) != 0 {
			t.Fatalf("rescue failed: %v", failed)
		}
		rescued := r.Status()
		if rescued == suspect || rescued.Flows[0].Endpoints[0].State != "active" {
			t.Errorf("rescue of a Suspect lease not published: %+v", rescued.Flows)
		}
		if rescued.T != p.Now() {
			t.Errorf("snapshot T = %v, want the time of the rescue %v", rescued.T, p.Now())
		}
		r.ReleaseLease(p, "f", RoleSource, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
