package registry

import (
	"testing"
	"time"

	"dfi/internal/sim"
)

func TestPublishLookup(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "f1", "meta"); err != nil {
			t.Fatal(err)
		}
		if err := r.Publish(p, "f1", "again"); err == nil {
			t.Error("duplicate publish accepted")
		}
		m, ok := r.Lookup(p, "f1")
		if !ok || m.(string) != "meta" {
			t.Errorf("Lookup = %v, %v", m, ok)
		}
		if _, ok := r.Lookup(p, "absent"); ok {
			t.Error("lookup of absent flow succeeded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitFlowBlocksUntilPublished(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	var gotAt sim.Time
	k.Spawn("waiter", func(p *sim.Proc) {
		m := r.WaitFlow(p, "late")
		if m.(int) != 42 {
			t.Errorf("meta = %v", m)
		}
		gotAt = p.Now()
	})
	k.Spawn("publisher", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond)
		if err := r.Publish(p, "late", 42); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 3*time.Millisecond {
		t.Errorf("WaitFlow returned at %v", gotAt)
	}
}

func TestTargetRendezvous(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	k.Spawn("target", func(p *sim.Proc) {
		if err := r.Publish(p, "flow", "spec"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		if err := r.PublishTarget(p, "flow", 0, "ring-addr"); err != nil {
			t.Fatal(err)
		}
		if err := r.PublishTarget(p, "flow", 0, "dup"); err == nil {
			t.Error("duplicate target publish accepted")
		}
	})
	k.Spawn("source", func(p *sim.Proc) {
		info, evicted := r.WaitTargetLive(p, "flow", 0)
		if evicted || info.(string) != "ring-addr" {
			t.Errorf("info = %v, evicted = %v", info, evicted)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishTargetRequiresFlow(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.PublishTarget(p, "nope", 0, nil); err == nil {
			t.Error("PublishTarget without flow accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRPCDelayCharged(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	r.RPCDelay = 2 * time.Microsecond
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "f", nil); err != nil {
			t.Fatal(err)
		}
		r.Lookup(p, "f")
		if p.Now() != 4*time.Microsecond {
			t.Errorf("elapsed = %v, want 4µs", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	r.RPCDelay = 2 * time.Microsecond
	k.Spawn("p", func(p *sim.Proc) {
		_ = r.Publish(p, "f", nil)
		before := p.Now()
		r.Remove(p, "f")
		if got := p.Now() - before; got != sim.Time(r.RPCDelay) {
			t.Errorf("Remove charged %v, want %v", got, r.RPCDelay)
		}
		if r.Flows() != 0 {
			t.Errorf("flows = %d", r.Flows())
		}
		if err := r.Publish(p, "f", nil); err != nil {
			t.Error("republish after remove failed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveRepublishWakesWaiters: a name freed by Remove can be reused,
// and the republish must wake endpoints blocked in WaitFlow on the new
// incarnation (Remove broadcasts the registry condition).
func TestRemoveRepublishWakesWaiters(t *testing.T) {
	k := sim.New(1)
	r := New(k)
	var got any
	k.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // after remove, before republish
		got = r.WaitFlow(p, "reuse")
	})
	k.Spawn("owner", func(p *sim.Proc) {
		if err := r.Publish(p, "reuse", "v1"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		r.Remove(p, "reuse")
		p.Sleep(2 * time.Millisecond)
		if err := r.Publish(p, "reuse", "v2"); err != nil {
			t.Errorf("republish after remove failed: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "v2" {
		t.Errorf("waiter got %v, want v2", got)
	}
}
