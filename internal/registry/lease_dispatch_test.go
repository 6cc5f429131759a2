package registry

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/sim"
)

// hashSink folds every registry event into an FNV-1a hash: type, flow,
// role, slot, epoch and time, in emission order.
type hashSink struct {
	h hash.Hash64
	n int
}

func (s *hashSink) Emit(e metrics.Event) {
	var b [8]byte
	s.n++
	fmt.Fprintf(s.h, "%s|%s|%s|%d|", e.Type, e.Flow, e.Role, e.Slot)
	binary.LittleEndian.PutUint64(b[:], e.Epoch)
	s.h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(e.T))
	s.h.Write(b[:])
}

// TestLeaseTimerDispatchPinned pins what the kernel sees of lease timers:
// a seeded script on a two-shard registry — acquire, single and batched
// renewal, expiry to Suspect, rescue, grace to Evicted, Rejoin, admin
// Evict and ReleaseLease — must dispatch exactly as many events, end at
// exactly the same instant, and emit exactly the same event log (hashed)
// as it did when every timer arm scheduled its own closure. A change to
// how timers are scheduled that moves any of these moves simulated
// behaviour.
func TestLeaseTimerDispatchPinned(t *testing.T) {
	const (
		wantEvents = 319
		wantNow    = 98004 * time.Nanosecond
		wantLog    = 37
		wantHash   = uint64(0x33acc4c93196b229)
	)
	const (
		ttl   = 10 * time.Microsecond
		grace = 5 * time.Microsecond
	)
	k := sim.New(5)
	s := NewSharded(k, 2)
	sink := &hashSink{h: fnv.New64a()}
	s.SetEventSink(sink)
	for i := 0; i < s.Shards(); i++ {
		s.ShardAt(i).RPCDelay = 200 * time.Nanosecond
	}
	s.UseFaults(&Faults{Delay: 30 * time.Nanosecond, Jitter: 90 * time.Nanosecond})

	flows := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	var healthy []LeaseRef // renewed by the heartbeat process
	k.Spawn("driver", func(p *sim.Proc) {
		for _, f := range flows {
			if err := s.Publish(p, f, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range flows {
			for _, role := range []Role{RoleSource, RoleTarget} {
				if err := s.AcquireLease(p, f, role, 0, ttl, grace); err != nil {
					t.Fatal(err)
				}
				if f != "f1" && f != "f2" {
					healthy = append(healthy, LeaseRef{Flow: f, Role: role, Idx: 0})
				}
			}
		}
		p.Spawn("heartbeat", func(hp *sim.Proc) {
			for tick := 0; tick < 24; tick++ {
				hp.Sleep(ttl / 3)
				if failed := s.RenewLeaseBatch(hp, healthy); len(failed) != 0 && tick < 6 {
					t.Errorf("tick %d: healthy renewals failed: %v", tick, failed)
				}
			}
		})
		// f1's target renews singly, then lapses to Suspect and is rescued;
		// f1's source never renews and is evicted by then.
		p.Sleep(ttl / 2)
		if err := s.RenewLease(p, "f1", RoleTarget, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(ttl + grace/2)
		if st := s.MembershipOf("f1").State(RoleTarget, 0); st != StateSuspect {
			t.Fatalf("f1 target = %v, want suspect", st)
		}
		if err := s.RenewLease(p, "f1", RoleTarget, 0); err != nil {
			t.Fatal(err)
		}
		failed := s.RenewLeaseBatch(p, []LeaseRef{{Flow: "f1", Role: RoleTarget, Idx: 0}, {Flow: "f1", Role: RoleSource, Idx: 0}})
		if len(failed) != 1 || failed[0].Role != RoleSource {
			t.Fatalf("f1 batch failed %v, want only the evicted source", failed)
		}
		// f2's source never renews: Suspect, then Evicted, then it rejoins.
		p.Sleep(ttl)
		if !s.MembershipOf("f2").SourceEvicted(0) {
			t.Fatal("f2 source not evicted after ttl+grace")
		}
		if _, err := s.Rejoin(p, "f2", RoleSource, 0, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(ttl / 3)
		if err := s.RenewLease(p, "f2", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		// An operator evicts f3's target; the heartbeat's batch then
		// reports it fenced.
		if err := s.Evict(p, "f3", RoleTarget, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(ttl / 2)
		for _, ref := range healthy {
			s.ReleaseLease(p, ref.Flow, ref.Role, ref.Idx)
		}
		s.ReleaseLease(p, "f2", RoleSource, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Events(); got != wantEvents {
		t.Errorf("kernel events = %d, want %d", got, wantEvents)
	}
	if got := k.Now(); got != wantNow {
		t.Errorf("final instant = %v (%d ns), want %v", got, int64(got), wantNow)
	}
	if sink.n != wantLog {
		t.Errorf("registry events = %d, want %d", sink.n, wantLog)
	}
	if got := sink.h.Sum64(); got != wantHash {
		t.Errorf("event log hash = %#x, want %#x", got, wantHash)
	}
}
