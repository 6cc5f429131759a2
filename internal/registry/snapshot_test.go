package registry

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"dfi/internal/sim"
)

// testSeed returns the kernel seed for the snapshot/compaction suite.
// DFI_CHAOS_SEED overrides the default so `make chaos` can sweep a seed
// matrix without recompiling (same contract as internal/core).
func testSeed() int64 {
	if s := os.Getenv("DFI_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 11
}

// TestSnapshotRoundTripByteForByte is the snapshot/restore property:
// capture a randomly-built registry state machine, restore it into a
// fresh registry, capture again — the two deterministic encodings must
// be byte-for-byte identical, and the restored state must answer like
// the original.
func TestSnapshotRoundTripByteForByte(t *testing.T) {
	for round := 0; round < 8; round++ {
		round := round
		k := sim.New(testSeed() + int64(round))
		r := New(k)
		rng := rand.New(rand.NewSource(testSeed()*31 + int64(round)))
		k.Spawn("build", func(p *sim.Proc) {
			nFlows := 1 + rng.Intn(4)
			for f := 0; f < nFlows; f++ {
				name := fmt.Sprintf("flow%d", f)
				meta := fmt.Sprintf("meta-%d", f)
				if err := r.Publish(p, name, &meta); err != nil {
					t.Fatal(err)
				}
				for idx := 0; idx < 1+rng.Intn(3); idx++ {
					if err := r.PublishTarget(p, name, idx, &name); err != nil {
						t.Fatal(err)
					}
				}
				for idx := 0; idx < 1+rng.Intn(4); idx++ {
					role := RoleSource
					if rng.Intn(2) == 0 {
						role = RoleTarget
					}
					ttl := time.Duration(1+rng.Intn(50)) * time.Millisecond
					if err := r.AcquireLease(p, name, role, idx, ttl, ttl/2); err != nil {
						t.Fatal(err)
					}
					switch rng.Intn(4) {
					case 0:
						if err := r.Evict(p, name, role, idx); err != nil {
							t.Fatal(err)
						}
						if rng.Intn(2) == 0 {
							if err := r.Rejoin(p, name, role, idx); err != nil {
								t.Fatal(err)
							}
						}
					case 1:
						r.ReleaseLease(p, name, role, idx)
					}
				}
				for i := rng.Intn(3); i > 0; i-- {
					if _, err := r.AttachSource(p, name, 2, 8); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(2) == 0 {
					if err := r.Seal(p, name); err != nil {
						t.Fatal(err)
					}
				}
			}

			snap := r.captureState()
			enc1 := snap.encode()
			if len(enc1) <= len(snapMagic) {
				t.Fatal("empty encoding for a populated state machine")
			}

			r2 := New(k)
			r2.restoreState(snap)
			enc2 := r2.captureState().encode()
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("round %d: snapshot→restore→snapshot changed the encoding (%d vs %d bytes)",
					round, len(enc1), len(enc2))
			}

			// The restored machine answers like the original: same flows,
			// same metadata references, same epochs, attach counts, seals,
			// states and watermarks.
			if r2.Flows() != r.Flows() {
				t.Fatalf("restored flows = %d, want %d", r2.Flows(), r.Flows())
			}
			for name, e := range r.flows {
				e2, ok := r2.flows[name]
				if !ok {
					t.Fatalf("flow %q lost in restore", name)
				}
				if e2.meta != e.meta {
					t.Fatalf("flow %q: meta reference changed across restore", name)
				}
				if e.mem.Epoch() != e2.mem.Epoch() {
					t.Fatalf("flow %q: epoch %d restored as %d", name, e.mem.Epoch(), e2.mem.Epoch())
				}
				if e.mem.Attached() != e2.mem.Attached() || e.mem.Sealed() != e2.mem.Sealed() {
					t.Fatalf("flow %q: attached %d sealed %v restored as %d, %v", name,
						e.mem.Attached(), e.mem.Sealed(), e2.mem.Attached(), e2.mem.Sealed())
				}
				for key, l := range e.mem.eps {
					l2 := e2.mem.eps[key]
					if l2 == nil || l2.state != l.state || l2.inc != l.inc {
						t.Fatalf("flow %q %v %d: lease %+v restored as %+v", name, key.role, key.idx, l, l2)
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicatedLogCompactionBounded drives a sustained lease+registry
// workload through a replicated registry with snapshotting enabled and
// asserts the acceptor log and the applied-table stay bounded by the
// snapshot cadence, while the snapshot index keeps advancing.
func TestReplicatedLogCompactionBounded(t *testing.T) {
	const cadence = 8
	k := sim.New(testSeed())
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond, SnapshotEvery: cadence})
	if err != nil {
		t.Fatal(err)
	}
	maxLog, maxApplied := 0, 0
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("flow%d", i)
			if err := r.Publish(p, name, i); err != nil {
				t.Fatal(err)
			}
			if err := r.AcquireLease(p, name, RoleSource, 0, 50*time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				if err := r.RenewLease(p, name, RoleSource, 0); err != nil {
					t.Fatal(err)
				}
			}
			r.ReleaseLease(p, name, RoleSource, 0)
			r.Remove(p, name)
			if r.LogLen() > maxLog {
				maxLog = r.LogLen()
			}
			if r.AppliedSize() > maxApplied {
				maxApplied = r.AppliedSize()
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 40 iterations × 8 logged commands each ≫ cadence: without
	// compaction the log would hold 320 entries.
	if maxLog > cadence {
		t.Errorf("retained acceptor log reached %d entries, want ≤ the %d-command cadence", maxLog, cadence)
	}
	if maxApplied > cadence {
		t.Errorf("applied-table reached %d entries, want ≤ the %d-command cadence", maxApplied, cadence)
	}
	if r.Snapshots() < 320/cadence-1 || r.SnapshotIndex() == 0 {
		t.Errorf("snapshots = %d at index %d; cadence not sustained", r.Snapshots(), r.SnapshotIndex())
	}
}

// TestReplicatedCompactionDisabled pins the escape hatch: a negative
// cadence keeps the PR-2 append-only behavior.
func TestReplicatedCompactionDisabled(t *testing.T) {
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const flows = 20
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < flows; i++ {
			if err := r.Publish(p, fmt.Sprintf("flow%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.LogLen() != flows || r.Snapshots() != 0 {
		t.Fatalf("logLen = %d snapshots = %d; want the full %d-entry log and no snapshots",
			r.LogLen(), r.Snapshots(), flows)
	}
}

// TestReplicatedLeaseSurvivesPostCompactionFailover is the durability
// tentpole's chaos test (seed-swept via DFI_CHAOS_SEED): lease state
// built up before a snapshot-compacted log loses its entries must be
// served correctly by the new master after the old one crashes —
// leases, epoch fences, and incarnations all intact — and fresh commands
// must commit above the snapshot index.
func TestReplicatedLeaseSurvivesPostCompactionFailover(t *testing.T) {
	k := sim.New(testSeed())
	r, err := New(k).Replicate(ReplicaConfig{
		RPCDelay:      time.Microsecond,
		SnapshotEvery: 4,
		Faults:        &Faults{Drop: 0.15, Jitter: 2 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 100 * time.Millisecond // generous: nothing may expire mid-test
	k.Spawn("chaos", func(p *sim.Proc) {
		if err := r.Publish(p, "f", "meta"); err != nil {
			t.Fatal(err)
		}
		for _, idx := range []int{0, 1} {
			if err := r.AcquireLease(p, "f", RoleTarget, idx, ttl, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.AcquireLease(p, "f", RoleSource, 0, ttl, 0); err != nil {
			t.Fatal(err)
		}
		// Source 0 comes back once (incarnation 1) before target 1 goes.
		if err := r.Evict(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Rejoin(p, "f", RoleSource, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Evict(p, "f", RoleTarget, 1); err != nil {
			t.Fatal(err)
		}
		// Push the log well past the compaction cadence so the pre-crash
		// lease commands only survive inside the snapshot.
		for i := 0; i < 8; i++ {
			if err := r.RenewLease(p, "f", RoleTarget, 0); err != nil {
				t.Fatal(err)
			}
		}
		if r.SnapshotIndex() == 0 || r.Snapshots() == 0 {
			t.Fatalf("no snapshot before the crash (index %d, count %d); test is vacuous",
				r.SnapshotIndex(), r.Snapshots())
		}
		preIndex := r.SnapshotIndex()
		oldMaster := r.Master()

		r.CrashReplica(oldMaster)

		// The new master must serve every piece of pre-crash lease state.
		if err := r.RenewLease(p, "f", RoleTarget, 0); err != nil {
			t.Fatalf("surviving lease lost across post-compaction failover: %v", err)
		}
		if err := r.RenewLease(p, "f", RoleTarget, 1); err == nil {
			t.Fatal("epoch fence lost: evicted slot renewed after failover")
		}
		if err := r.AcquireLease(p, "f", RoleTarget, 2, ttl, 0); err != nil {
			t.Fatalf("fresh acquire after failover: %v", err)
		}
		m := r.MembershipOf("f")
		if m == nil || m.Epoch() != 3 {
			t.Fatalf("epoch = %v, want 3 (the pre-crash evictions and rejoin)", m.Epoch())
		}
		if got := m.Incarnation(RoleSource, 0); got != 1 {
			t.Fatalf("source incarnation = %d after failover, want 1", got)
		}
		if err := r.RenewLease(p, "f", RoleSource, 0); err != nil {
			t.Fatalf("rejoined source lease lost across failover: %v", err)
		}
		if err := r.Rejoin(p, "f", RoleTarget, 1); err != nil {
			t.Fatalf("rejoin of the pre-crash eviction after failover: %v", err)
		}
		if got := m.Incarnation(RoleTarget, 1); got != 1 {
			t.Fatalf("rejoin incarnation = %d, want 1", got)
		}
		if r.Master() == oldMaster || r.Elections() == 0 {
			t.Fatalf("master = %d elections = %d; failover did not happen", r.Master(), r.Elections())
		}
		if r.repl.slot < preIndex {
			t.Fatalf("new master commits at slot %d, below the snapshot index %d", r.repl.slot, preIndex)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverReplicaCatchesUp exercises the install-snapshot path: a
// replica crashed through several compactions is restarted and must
// catch up from the group snapshot plus the retained log suffix,
// after which it tracks new commands like any follower.
func TestRecoverReplicaCatchesUp(t *testing.T) {
	k := sim.New(testSeed())
	r, err := New(k).Replicate(ReplicaConfig{RPCDelay: time.Microsecond, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		r.CrashReplica(2)
		for i := 0; i < 11; i++ {
			if err := r.Publish(p, fmt.Sprintf("flow%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if r.SnapshotIndex() == 0 {
			t.Fatal("no compaction while the replica was down; test is vacuous")
		}
		if err := r.RecoverReplica(p, 2); err != nil {
			t.Fatal(err)
		}
		if err := r.RecoverReplica(p, 2); err == nil {
			t.Error("recovering a live replica accepted")
		}
		g := r.repl
		rec, master := g.acceptors[2], g.acceptors[g.master]
		if rec.FirstSlot() != g.snap.Index {
			t.Fatalf("recovered FirstSlot = %d, want the group snapshot index %d", rec.FirstSlot(), g.snap.Index)
		}
		if rec.NextSlot() != master.NextSlot() {
			t.Fatalf("recovered NextSlot = %d, master %d; log suffix not replayed", rec.NextSlot(), master.NextSlot())
		}
		for slot := master.FirstSlot(); slot < master.NextSlot(); slot++ {
			me, ok := master.Accepted(slot)
			if !ok {
				continue
			}
			re, ok := rec.Accepted(slot)
			if !ok || re.Cmd != me.Cmd {
				t.Fatalf("slot %d: recovered entry %+v, master %+v", slot, re, me)
			}
		}
		// The recovered follower accepts fresh commands.
		if err := r.Publish(p, "after", nil); err != nil {
			t.Fatal(err)
		}
		if rec.NextSlot() != master.NextSlot() {
			t.Fatalf("recovered replica not tracking new commands (next %d vs %d)", rec.NextSlot(), master.NextSlot())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// Standalone registries have no replicas to recover.
	k2 := sim.New(1)
	r2 := New(k2)
	k2.Spawn("p", func(p *sim.Proc) {
		if err := r2.RecoverReplica(p, 0); err == nil {
			t.Error("RecoverReplica on a standalone registry accepted")
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUnloggedRenewRelaxation pins the opt-in knob: renewals skip the
// log round (no slots consumed) while acquire/release still commit, and
// renewals keep working across a master failover.
func TestUnloggedRenewRelaxation(t *testing.T) {
	k := sim.New(1)
	r, err := New(k).Replicate(ReplicaConfig{
		RPCDelay:      time.Microsecond,
		SnapshotEvery: -1, // keep slots countable
		UnloggedRenew: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("p", func(p *sim.Proc) {
		if err := r.Publish(p, "f", nil); err != nil {
			t.Fatal(err)
		}
		if err := r.AcquireLease(p, "f", RoleTarget, 0, 10*time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
		before := r.repl.slot
		for i := 0; i < 5; i++ {
			if err := r.RenewLease(p, "f", RoleTarget, 0); err != nil {
				t.Fatal(err)
			}
		}
		if r.repl.slot != before {
			t.Fatalf("unlogged renewals consumed %d log slots", r.repl.slot-before)
		}
		r.CrashReplica(r.Master())
		if err := r.RenewLease(p, "f", RoleTarget, 0); err != nil {
			t.Fatalf("unlogged renewal after failover: %v", err)
		}
		if r.repl.slot != before {
			t.Fatalf("post-failover unlogged renewal consumed a slot")
		}
		r.ReleaseLease(p, "f", RoleTarget, 0)
		if r.repl.slot == before {
			t.Fatal("release did not commit through the log")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
