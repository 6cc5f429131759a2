package registry

import (
	"testing"
	"time"

	"dfi/internal/transport/chanloop"
)

// TestWallLeaseTimerRenewZeroAlloc: on the wall clock a renewal resets
// its slot's one timer instead of starting another, so a heartbeat
// allocates nothing.
func TestWallLeaseTimerRenewZeroAlloc(t *testing.T) {
	p, r := chanloop.New().NewCtx(), NewLocal()
	if err := r.Publish(p, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AcquireLease(p, "f", RoleSource, 0, time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := r.RenewLease(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("wall-clock RenewLease allocates %v times per call, want 0", allocs)
	}
	r.ReleaseLease(p, "f", RoleSource, 0)
}

// TestWallLeaseTimerRearm: renewals well inside the TTL keep a lease
// Active however often they reset its timer — a fire meant for an
// earlier arm must not expire a later one — and once they stop, the one
// timer still takes the lease to Suspect and then Evicted.
func TestWallLeaseTimerRearm(t *testing.T) {
	const ttl, grace = 20 * time.Millisecond, 20 * time.Millisecond
	p, r := chanloop.New().NewCtx(), NewLocal()
	if err := r.Publish(p, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AcquireLease(p, "f", RoleSource, 0, ttl, grace); err != nil {
		t.Fatal(err)
	}
	m := r.MembershipOf("f")
	for end := time.Now().Add(5 * ttl); time.Now().Before(end); {
		if st := m.State(RoleSource, 0); st != StateActive {
			t.Fatalf("lease renewed every %v is %v", ttl/10, st)
		}
		if err := r.RenewLease(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(ttl / 10)
	}
	for deadline := time.Now().Add(2 * time.Second); m.State(RoleSource, 0) != StateEvicted; {
		if time.Now().After(deadline) {
			t.Fatalf("unrenewed lease still %v after 2s", m.State(RoleSource, 0))
		}
		time.Sleep(time.Millisecond)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch %d after one eviction, want 1", m.Epoch())
	}
}
