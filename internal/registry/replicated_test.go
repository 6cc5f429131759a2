package registry

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/sim"
)

func TestReplicatedValidation(t *testing.T) {
	k := sim.New(1)
	for _, n := range []int{1, 2, 4} {
		if _, err := New(k).Replicate(ReplicaConfig{Replicas: n}); err == nil {
			t.Errorf("replica count %d accepted", n)
		}
	}
	r, err := New(k).Replicate(ReplicaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas() != 3 || r.Master() != 0 || r.Ballot() != 1 {
		t.Fatalf("defaults: replicas=%d master=%d ballot=%d", r.Replicas(), r.Master(), r.Ballot())
	}
}

func TestReplicatedPublishLookup(t *testing.T) {
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "f", "meta"); err != nil {
			t.Fatal(err)
		}
		if err := r.Publish(p, "f", "again"); err == nil {
			t.Error("duplicate publish accepted")
		}
		m, ok := r.Lookup(p, "f")
		if !ok || m.(string) != "meta" {
			t.Errorf("Lookup = %v, %v", m, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Elections() != 0 {
		t.Errorf("elections = %d on a healthy group", r.Elections())
	}
}

// TestReplicateAfterPublishRenews: a registry replicated after its first
// publish serves the next renewal and then reports its replication group,
// although the status it published before Replicate had none.
func TestReplicateAfterPublishRenews(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "f", nil); err != nil {
			t.Fatal(err)
		}
		if err := r.AcquireLease(p, "f", RoleSource, 0, ttl, grace); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Replicate(ReplicaConfig{Replicas: 3}); err != nil {
			t.Fatal(err)
		}
		if err := r.RenewLease(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		st := r.Status()
		if st.Replication == nil || st.Replication.Replicas != 3 {
			t.Errorf("status replication = %+v, want a 3-replica group", st.Replication)
		}
		if len(st.Flows) != 1 || st.Flows[0].Endpoints[0].State != "active" {
			t.Errorf("status flows = %+v", st.Flows)
		}
		r.ReleaseLease(p, "f", RoleSource, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedMasterFailover(t *testing.T) {
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "before", nil); err != nil {
			t.Fatal(err)
		}
		r.CrashReplica(0)
		// The next command finds the master dead, elects replica 1 at a
		// higher ballot, and commits there.
		if err := r.Publish(p, "after", nil); err != nil {
			t.Fatalf("publish after master crash: %v", err)
		}
		if _, ok := r.Lookup(p, "before"); !ok {
			t.Error("pre-crash flow lost across failover")
		}
		if _, ok := r.Lookup(p, "after"); !ok {
			t.Error("post-crash flow missing")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Master() != 1 {
		t.Errorf("master = %d, want 1 (lowest-index live replica)", r.Master())
	}
	if r.Ballot() < 2 {
		t.Errorf("ballot = %d, want ≥ 2 after failover", r.Ballot())
	}
	if r.Elections() != 1 {
		t.Errorf("elections = %d, want 1", r.Elections())
	}
}

func TestReplicatedMajorityLossUnavailable(t *testing.T) {
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		r.CrashReplica(0)
		r.CrashReplica(1)
		if err := r.Publish(p, "f", nil); err == nil {
			t.Error("publish committed without a majority")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedIdempotentRetryUnderDrop(t *testing.T) {
	// Lost RPC legs force retries of the same command id; the applied
	// table must deduplicate so a Publish whose reply was dropped does not
	// come back as "already published".
	k := sim.New(7)
	r, err := New(k).Replicate(ReplicaConfig{
		RPCDelay: time.Microsecond,
		Faults:   &Faults{Drop: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	const flows = 40
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < flows; i++ {
			name := fmt.Sprintf("flow%d", i)
			if err := r.Publish(p, name, i); err != nil {
				t.Fatalf("publish %s: %v", name, err)
			}
			if err := r.PublishTarget(p, name, 0, "ring"); err != nil {
				t.Fatalf("publish target %s: %v", name, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Flows() != flows {
		t.Fatalf("flows = %d, want %d", r.Flows(), flows)
	}
}

func TestReplicatedCrashMasterFault(t *testing.T) {
	// The fault plan's CrashMaster knob kills the master at a
	// virtual time; a command arriving after it must fail over.
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{
		RPCDelay: time.Microsecond,
		Faults:   &Faults{CrashMaster: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "early", nil); err != nil {
			t.Fatal(err)
		}
		p.Sleep(20 * time.Microsecond)
		if err := r.Publish(p, "late", nil); err != nil {
			t.Fatalf("publish after scheduled master crash: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Master() == 0 || r.Elections() == 0 {
		t.Fatalf("master = %d elections = %d; crash fault did not fail over", r.Master(), r.Elections())
	}
}

// TestReplicatedAttachAndSealSurvive: elastic attaches and the seal are
// logged commands and snapshot state like every other membership change.
// Across a master failover and a snapshot install the next attach claims
// the next slot, and the attach count and the seal read back.
func TestReplicatedAttachAndSealSurvive(t *testing.T) {
	k := sim.New(testSeed())
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		attach := func(r *Registry, want int) {
			t.Helper()
			if slot, err := r.AttachSource(p, "f", 2, 6); err != nil || slot != want {
				t.Fatalf("attach = slot %d, %v; want slot %d", slot, err, want)
			}
		}
		if err := r.Publish(p, "f", "meta"); err != nil {
			t.Fatal(err)
		}
		attach(r, 2)
		attach(r, 3)
		attach(r, 4)
		r.CrashReplica(r.Master())
		attach(r, 5)
		if r.Elections() == 0 || r.Snapshots() == 0 {
			t.Fatalf("elections = %d snapshots = %d; test is vacuous", r.Elections(), r.Snapshots())
		}
		if _, err := r.AttachSource(p, "f", 2, 6); err == nil {
			t.Error("attach beyond the bound accepted")
		}
		if err := r.Seal(p, "f"); err != nil {
			t.Fatal(err)
		}
		// Install the state machine on a fresh registry, as a replica
		// catching up from a snapshot does.
		r2 := New(k)
		r2.restoreState(r.captureState())
		m := r2.MembershipOf("f")
		if m.Attached() != 4 || !m.Sealed() || m.Epoch() != 5 {
			t.Fatalf("restored attached = %d sealed = %v epoch = %d, want 4, true, 5", m.Attached(), m.Sealed(), m.Epoch())
		}
		if _, err := r2.AttachSource(p, "f", 2, 10); err == nil {
			t.Error("attach to a sealed flow accepted after the install")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachRetryClaimsOneSlot: an attach whose RPC leg or reply is lost
// is retried as the same command, so slots stay consecutive — on a
// standalone registry and on a replicated one.
func TestAttachRetryClaimsOneSlot(t *testing.T) {
	faults := &Faults{Drop: 0.3}
	for _, replicas := range []int{0, 3} {
		k := sim.New(7)
		r := New(k)
		if replicas > 0 {
			var err error
			if r, err = r.Replicate(ReplicaConfig{Replicas: replicas, RPCDelay: time.Microsecond, Faults: faults}); err != nil {
				t.Fatal(err)
			}
		} else {
			r.UseFaults(faults)
		}
		const attaches = 30
		k.Spawn("p", func(p *sim.Proc) {
			if err := r.Publish(p, "f", nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < attaches; i++ {
				if slot, err := r.AttachSource(p, "f", 0, attaches); err != nil || slot != i {
					t.Fatalf("%d replicas: attach %d = slot %d, %v", replicas, i, slot, err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if n := r.MembershipOf("f").Attached(); n != attaches {
			t.Errorf("%d replicas: attached = %d, want %d", replicas, n, attaches)
		}
	}
}

// TestReplicatedConcurrentCommandsTakeDistinctSlots: commands whose
// accept rounds overlap each get a log slot of their own. Eight
// processes publish at the same instant on a group without snapshots;
// the log must hold eight entries in eight distinct slots, not one
// entry that every overlapping command overwrote.
func TestReplicatedConcurrentCommandsTakeDistinctSlots(t *testing.T) {
	const n = 8
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("pub%d", i), func(p *sim.Proc) {
			if err := r.Publish(p, fmt.Sprintf("f%d", i), nil); err != nil {
				t.Error(err)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.AppliedSize() != n || r.LogLen() != n {
		t.Fatalf("applied=%d log-len=%d, want %d and %d", r.AppliedSize(), r.LogLen(), n, n)
	}
	slots := make(map[int]bool)
	for _, s := range r.repl.appliedSlot {
		slots[s] = true
	}
	if len(slots) != n {
		t.Fatalf("%d commands committed in %d distinct slots", n, len(slots))
	}
}
