package registry

import (
	"fmt"
	"testing"

	"dfi/internal/sim"
)

// TestShardedRouting pins the shard map: flows land on their FNV shard,
// every flow-scoped operation round-trips through the owning shard, and
// a flow published through the Sharded handle is invisible to the other
// shards.
func TestShardedRouting(t *testing.T) {
	k := sim.New(1)
	s := NewSharded(k, 4)
	const nFlows = 32
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < nFlows; i++ {
			name := fmt.Sprintf("flow%d", i)
			if err := s.Publish(p, name, i); err != nil {
				t.Fatal(err)
			}
			meta, ok := s.Lookup(p, name)
			if !ok || meta.(int) != i {
				t.Fatalf("lookup %s: got %v,%v", name, meta, ok)
			}
			own := s.Shard(name)
			if _, ok := own.Lookup(p, name); !ok {
				t.Fatalf("owning shard cannot see %s", name)
			}
			for j := 0; j < s.Shards(); j++ {
				if sh := s.ShardAt(j); sh != own {
					if _, ok := sh.Lookup(p, name); ok {
						t.Fatalf("%s leaked onto a foreign shard", name)
					}
				}
			}
		}
	})
	k.Run()

	// All shards should own a share: 32 flows over 4 shards misses a
	// shard only under a badly skewed hash.
	k2 := sim.New(1)
	k2.Spawn("count", func(p *sim.Proc) {
		for j := 0; j < s.Shards(); j++ {
			if n := len(s.ShardAt(j).Status().Flows); n == 0 {
				t.Errorf("shard %d owns no flows out of %d", j, nFlows)
			}
		}
	})
	k2.Run()
}

// TestShardedRenewLeaseBatch pins the batched-renewal cost model on a
// sharded registry: one batch covering flows on all shards costs one
// renewal RPC per shard touched (not per slot), fenced slots come back
// as failures, and the live ones really renewed (no eviction after a
// TTL of silence plus the batch).
func TestShardedRenewLeaseBatch(t *testing.T) {
	k := sim.New(1)
	s := NewSharded(k, 4)
	const nFlows = 12
	k.Spawn("driver", func(p *sim.Proc) {
		var refs []LeaseRef
		for i := 0; i < nFlows; i++ {
			name := fmt.Sprintf("bf%d", i)
			if err := s.Publish(p, name, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.AcquireLease(p, name, RoleSource, 0, ttl, grace); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, LeaseRef{Flow: name, Role: RoleSource, Idx: 0})
		}
		before := s.LeaseRenewRPCs()
		failed := s.RenewLeaseBatch(p, refs)
		if len(failed) != 0 {
			t.Fatalf("renewing %d live leases failed %d: %v", nFlows, len(failed), failed)
		}
		cost := s.LeaseRenewRPCs() - before
		if cost > uint64(s.Shards()) {
			t.Fatalf("batch renewal cost %d RPCs for %d slots; want at most %d (one per shard)", cost, nFlows, s.Shards())
		}

		// Fence one slot and include an unknown flow: both must come back
		// failed while the rest still renew.
		if err := s.Evict(p, "bf0", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		bad := append([]LeaseRef{{Flow: "nosuch", Role: RoleSource, Idx: 0}}, refs...)
		failed = s.RenewLeaseBatch(p, bad)
		if len(failed) != 2 {
			t.Fatalf("want 2 failed refs (fenced + unknown), got %v", failed)
		}

		// The surviving leases must have been armed by the batch: sleep
		// most of a TTL, batch-renew, sleep again — nothing evicts.
		for rounds := 0; rounds < 3; rounds++ {
			p.Sleep(ttl / 2)
			s.RenewLeaseBatch(p, refs[1:])
		}
		for _, ref := range refs[1:] {
			if st := s.MembershipOf(ref.Flow).State(RoleSource, 0); st != StateActive {
				t.Fatalf("flow %s state %v after batched renewals, want active", ref.Flow, st)
			}
		}
	})
	k.Run()
}

// TestShardedStatusMerge checks the merged snapshot covers every shard's
// flows, sorted by name.
func TestShardedStatusMerge(t *testing.T) {
	k := sim.New(1)
	s := NewSharded(k, 3)
	k.Spawn("driver", func(p *sim.Proc) {
		for _, name := range []string{"zeta", "alpha", "mid"} {
			if err := s.Publish(p, name, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	k.Run()
	st := s.Status()
	if len(st.Flows) != 3 {
		t.Fatalf("merged status has %d flows, want 3", len(st.Flows))
	}
	for i := 1; i < len(st.Flows); i++ {
		if st.Flows[i-1].Name > st.Flows[i].Name {
			t.Fatalf("merged flows unsorted: %v", st.Flows)
		}
	}
	// Replicated shards: the merge carries a replication block.
	k2 := sim.New(1)
	sr, err := ShardedOf(2, func() (*Registry, error) { return New(k2).Replicate(ReplicaConfig{Replicas: 3}) })
	if err != nil {
		t.Fatal(err)
	}
	k2.Spawn("driver", func(p *sim.Proc) {
		if err := sr.Publish(p, "r", nil); err != nil {
			t.Fatal(err)
		}
	})
	k2.Run()
	if sr.Status().Replication == nil {
		t.Fatal("sharded replicated status lost the replication block")
	}
}
