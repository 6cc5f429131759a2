package registry

import (
	"testing"

	"dfi/internal/sim"
)

func TestRejoinReclaimsSlot(t *testing.T) {
	k, r := leaseEnv(t)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.AcquireLease(p, "f", RoleTarget, 1, ttl, grace); err != nil {
			t.Fatal(err)
		}
		if err := r.Evict(p, "f", RoleTarget, 1); err != nil {
			t.Fatal(err)
		}
		m := r.MembershipOf("f")
		if m.Epoch() != 1 {
			t.Fatalf("epoch = %d after evict, want 1", m.Epoch())
		}
		if err := r.Rejoin(p, "f", RoleTarget, 1); err != nil {
			t.Fatal(err)
		}
		if st := m.State(RoleTarget, 1); st != StateActive {
			t.Fatalf("state = %v after rejoin, want active", st)
		}
		if m.Epoch() != 2 {
			t.Fatalf("epoch = %d after rejoin, want 2 (peers must reconnect)", m.Epoch())
		}
		if m.Incarnation(RoleTarget, 1) != 1 {
			t.Fatalf("incarnation = %d, want 1", m.Incarnation(RoleTarget, 1))
		}
		// The fence is lifted for the new incarnation: renewals work again.
		if err := r.RenewLease(p, "f", RoleTarget, 1); err != nil {
			t.Fatalf("renewal after rejoin failed: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinRearmsLeaseTimers(t *testing.T) {
	k, r := leaseEnv(t)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.AcquireLease(p, "f", RoleSource, 0, ttl, grace); err != nil {
			t.Fatal(err)
		}
		m := r.MembershipOf("f")
		p.Sleep(2 * (ttl + grace)) // let the lease expire to eviction
		if !m.SourceEvicted(0) {
			t.Fatal("lease did not expire to eviction")
		}
		if err := r.Rejoin(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		// The rejoined slot holds a live lease again: left unrenewed it
		// must expire to a second eviction.
		p.Sleep(2 * (ttl + grace))
		if !m.SourceEvicted(0) {
			t.Fatal("rejoined lease never expired; timer was not re-armed")
		}
		if m.Incarnation(RoleSource, 0) != 1 {
			t.Fatalf("incarnation = %d, want 1", m.Incarnation(RoleSource, 0))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinRejectedWhenNotEvicted(t *testing.T) {
	k, r := leaseEnv(t)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Rejoin(p, "f", RoleTarget, 0); err == nil {
			t.Error("rejoin of a never-evicted slot accepted")
		}
		if err := r.AcquireLease(p, "f", RoleTarget, 0, ttl, grace); err != nil {
			t.Fatal(err)
		}
		if err := r.Rejoin(p, "f", RoleTarget, 0); err == nil {
			t.Error("rejoin of an active slot accepted")
		}
		if err := r.Rejoin(p, "missing", RoleTarget, 0); err == nil {
			t.Error("rejoin on unpublished flow accepted")
		}
		m := r.MembershipOf("f")
		if m.Epoch() != 0 {
			t.Fatalf("rejected rejoins bumped the epoch to %d", m.Epoch())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRepublishTargetOnlyWhileEvicted(t *testing.T) {
	k, r := leaseEnv(t)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.PublishTarget(p, "f", 0, "rings-v0"); err != nil {
			t.Fatal(err)
		}
		if err := r.RepublishTarget(p, "f", 0, "rings-v1"); err == nil {
			t.Error("republish of a live target accepted")
		}
		if err := r.Evict(p, "f", RoleTarget, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.RepublishTarget(p, "f", 0, "rings-v1"); err != nil {
			t.Fatal(err)
		}
		info, ok := r.TargetInfo(p, "f", 0)
		if !ok || info != "rings-v1" {
			t.Fatalf("TargetInfo = %v, %v, want rings-v1", info, ok)
		}
		if err := r.RepublishTarget(p, "missing", 0, nil); err == nil {
			t.Error("republish on unpublished flow accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
