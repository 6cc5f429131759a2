package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

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
	Rejoin(p transport.Ctx, flow string, role Role, idx int) error
	RecordSeqSkips(p transport.Ctx, flow string, epoch uint64, seqs ...uint64) error
	MembershipOf(name string) *Membership
	Status() *ClusterStatus
}

// statusMismatch compares one Status against the membership records it
// was built from: the published flows are exactly the ones listed, in
// name order, each with its record's epoch; the endpoints are in (role,
// slot) order, and every slot of [0, nSlots) — listed or not, an unlisted
// slot reading as the zero lease — shows its record's state, incarnation
// and watermark. It returns "" when they agree.
func statusMismatch(st *ClusterStatus, reg statusControl, nFlows, nSlots int) string {
	listed := make(map[string]FlowStatus, len(st.Flows))
	for i, f := range st.Flows {
		if i > 0 && st.Flows[i-1].Name >= f.Name {
			return fmt.Sprintf("flows out of order: %q before %q", st.Flows[i-1].Name, f.Name)
		}
		listed[f.Name] = f
	}
	for i := 0; i < nFlows; i++ {
		name := fmt.Sprintf("flow%02d", i)
		m := reg.MembershipOf(name)
		f, shown := listed[name]
		if (m != nil) != shown {
			return fmt.Sprintf("flow %s: published=%v, listed=%v", name, m != nil, shown)
		}
		if m == nil {
			continue
		}
		if f.Epoch != m.Epoch() {
			return fmt.Sprintf("flow %s: epoch %d, record %d", name, f.Epoch, m.Epoch())
		}
		eps := make(map[string]EndpointStatus, len(f.Endpoints))
		for j, ep := range f.Endpoints {
			if j > 0 {
				prev := f.Endpoints[j-1]
				if prev.Role > ep.Role || prev.Role == ep.Role && prev.Slot >= ep.Slot {
					return fmt.Sprintf("flow %s: endpoint %s %d listed before %s %d", name, prev.Role, prev.Slot, ep.Role, ep.Slot)
				}
			}
			if ep.Slot < 0 || ep.Slot >= nSlots {
				return fmt.Sprintf("flow %s: endpoint %s %d outside the driven slots", name, ep.Role, ep.Slot)
			}
			eps[ep.Role+strconv.Itoa(ep.Slot)] = ep
		}
		for _, role := range []Role{RoleSource, RoleTarget} {
			for idx := 0; idx < nSlots; idx++ {
				ep, ok := eps[role.String()+strconv.Itoa(idx)]
				if !ok {
					ep.State = StateActive.String() // the zero lease
				}
				want := EndpointStatus{Role: role.String(), Slot: idx, State: m.State(role, idx).String(),
					Incarnation: m.Incarnation(role, idx)}
				if ep.State != want.State || ep.Incarnation != want.Incarnation {
					return fmt.Sprintf("flow %s: %s %d shows %+v, record %+v", name, role, idx, ep, want)
				}
			}
		}
	}
	return ""
}

// TestStatusSnapshotMatchesRebuild drives a seeded random command
// sequence — publishes, target rendezvous, lease acquire / renew /
// batched renew / release, expiry by letting time pass, eviction,
// rejoin, watermarks, removal, and commands on flows that do not exist —
// through a wall-clock, a plain, a sharded and two replicated
// registries, and after every command requires the snapshot Status
// rebuilds to agree with the membership records themselves
// (statusMismatch), and its T never to go back.
func TestStatusSnapshotMatchesRebuild(t *testing.T) {
	type variant struct {
		name string
		// build is handed a kernel; a variant that ignores it (and sets
		// wall) is driven by the test goroutine on the host clock.
		build func(k *sim.Kernel) statusControl
		wall  bool
	}
	variants := []variant{
		{name: "local", wall: true, build: func(*sim.Kernel) statusControl {
			return NewLocal()
		}},
		{name: "plain", build: func(k *sim.Kernel) statusControl {
			return New(k)
		}},
		{name: "sharded", build: func(k *sim.Kernel) statusControl {
			return NewSharded(k, 3)
		}},
		{name: "replicated", build: func(k *sim.Kernel) statusControl {
			r, err := New(k).Replicate(ReplicaConfig{RPCDelay: 100 * time.Nanosecond, SnapshotEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{name: "replicated-unlogged-renew", build: func(k *sim.Kernel) statusControl {
			r, err := New(k).Replicate(ReplicaConfig{RPCDelay: 100 * time.Nanosecond, UnloggedRenew: true})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	for _, v := range variants {
		for _, seed := range []int64{1, 7, 42} {
			v, seed := v, seed
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				k := sim.New(seed)
				reg := v.build(k)
				rnd := rand.New(rand.NewSource(seed))
				const nFlows, nSlots, nOps = 9, 3, 600
				flow := func() string { return fmt.Sprintf("flow%02d", rnd.Intn(nFlows)) }
				role := func() Role { return Role(rnd.Intn(2)) }
				ttl := 20 * time.Microsecond
				if v.wall {
					ttl = 2 * time.Millisecond
				}

				// On the wall clock a lease timer may fire between Status
				// and the record reads; a T that moved across them says so,
				// and the comparison is taken again.
				var lastT time.Duration
				check := func(op string) {
					t.Helper()
					for {
						st := reg.Status()
						if st.T < lastT {
							t.Fatalf("after %s: T went back from %v to %v", op, lastT, st.T)
						}
						lastT = st.T
						diff := statusMismatch(st, reg, nFlows, nSlots)
						if diff == "" {
							return
						}
						if reg.Status().T == st.T {
							t.Fatalf("after %s: %s\nstatus: %+v", op, diff, st.Flows)
						}
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
							if err := reg.Rejoin(p, f, ro, idx); err == nil && ro == RoleTarget {
								_ = reg.RepublishTarget(p, f, idx, i)
							}
						case 13:
							op = "RecordSeqSkips"
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

// TestStatusSkipsUnchangedRenewal pins what a renewal changes: renewing
// an Active lease, singly or batched, leaves Flows and T as they were;
// the expiry shows the slot Suspect at the expiry's time, and a renewal
// that rescues it shows it Active again at the rescue's time.
func TestStatusSkipsUnchangedRenewal(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	const ttl = 10 * time.Microsecond
	ref := []LeaseRef{{Flow: "f", Role: RoleSource, Idx: 0}}
	state := func(st *ClusterStatus) string { return st.Flows[0].Endpoints[0].State }
	k.Spawn("driver", func(p *sim.Proc) {
		if err := r.Publish(p, "f", nil); err != nil {
			t.Fatal(err)
		}
		if err := r.AcquireLease(p, "f", RoleSource, 0, ttl, 4*ttl); err != nil {
			t.Fatal(err)
		}
		before := r.Status()
		if before.T != p.Now() || state(before) != "active" {
			t.Fatalf("after acquire: T=%v (now %v), flows %+v", before.T, p.Now(), before.Flows)
		}
		p.Sleep(ttl / 2)
		if err := r.RenewLease(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		if failed := r.RenewLeaseBatch(p, ref); len(failed) != 0 {
			t.Fatalf("batched renewal failed: %v", failed)
		}
		expiry := p.Now() + ttl
		if st := r.Status(); st.T != before.T || !reflect.DeepEqual(st.Flows, before.Flows) {
			t.Errorf("renewing an Active lease changed the status: T %v -> %v, flows %+v -> %+v",
				before.T, st.T, before.Flows, st.Flows)
		}
		p.Sleep(ttl + ttl/2) // active -> suspect
		if st := r.Status(); state(st) != "suspect" || st.T != expiry {
			t.Fatalf("after expiry: T=%v (want %v), flows %+v", st.T, expiry, st.Flows)
		}
		if failed := r.RenewLeaseBatch(p, ref); len(failed) != 0 {
			t.Fatalf("rescue failed: %v", failed)
		}
		if st := r.Status(); state(st) != "active" || st.T != p.Now() {
			t.Errorf("after the rescue at %v: T=%v, flows %+v", p.Now(), st.T, st.Flows)
		}
		r.ReleaseLease(p, "f", RoleSource, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
