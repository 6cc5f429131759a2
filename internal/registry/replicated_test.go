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
