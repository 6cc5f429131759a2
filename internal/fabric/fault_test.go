package fabric

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

func faultCluster(t *testing.T, n int, fp *FaultPlan) (*sim.Kernel, *Cluster) {
	t.Helper()
	k := sim.New(7)
	k.Deadline = 10 * time.Minute
	cfg := DefaultConfig()
	cfg.Faults = fp
	return k, NewCluster(k, n, cfg)
}

func TestFaultDropWrite(t *testing.T) {
	k, c := faultCluster(t, 2, &FaultPlan{DropWrite: 1})
	rec := transport.NewRecorder(0)
	c.SetTracer(rec)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	src := []byte("must not arrive")

	k.Spawn("writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true, ID: 1})
		// UC-like loss semantics: the sender still sees its completion.
		if _, ok := qp.SendCQ().WaitTimeout(p, time.Second); !ok {
			t.Error("dropped WRITE should still complete locally")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(mr.Bytes(), []byte("arrive")) {
		t.Fatal("dropped WRITE committed remote memory")
	}
	if rec.Dropped() != 1 {
		t.Fatalf("recorder dropped = %d, want 1", rec.Dropped())
	}
}

func TestFaultDropReadLosesCompletion(t *testing.T) {
	k, c := faultCluster(t, 2, &FaultPlan{DropRead: 1})
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	k.Spawn("reader", func(p *sim.Proc) {
		dst := make([]byte, 16)
		qp.Read(p, dst, transport.Addr{MR: mr}, true, 9)
		if _, ok := qp.SendCQ().WaitTimeout(p, time.Second); ok {
			t.Error("dropped READ must not complete")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDropReadSyncRetries: ReadSync has no timeout, so a dropped
// response must not strand its caller. The transport retries the READ:
// the data arrives, one round trip (request and response serialization,
// two hops) later than on a clean fabric.
func TestFaultDropReadSyncRetries(t *testing.T) {
	const credit = "credit=42"
	readSync := func(fp *FaultPlan) (time.Duration, string) {
		k, c := faultCluster(t, 2, fp)
		qp, _ := c.Dial(c.Node(0), c.Node(1))
		mr := c.OpenRegion(c.Node(1), 64)
		mr.Store(0, []byte(credit))
		dst := make([]byte, len(credit))
		var rtt time.Duration
		k.Spawn("reader", func(p *sim.Proc) {
			rtt = qp.ReadSync(p, dst, transport.Addr{MR: mr})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return rtt, string(dst)
	}
	clean, _ := readSync(nil)
	lossy, got := readSync(&FaultPlan{DropRead: 1})
	cfg := DefaultConfig()
	retry := cfg.serialization(16) + cfg.serialization(len(credit)) + 2*(cfg.Propagation+cfg.SwitchDelay)
	if got != credit {
		t.Errorf("retried ReadSync read %q, want %q", got, credit)
	}
	if lossy != clean+retry {
		t.Errorf("retried ReadSync took %v, want %v (clean %v + one round trip %v)", lossy, clean+retry, clean, retry)
	}
}

func TestFaultDelayShiftsDelivery(t *testing.T) {
	const extra = 50 * time.Microsecond
	k, c := faultCluster(t, 2, &FaultPlan{Delay: extra})
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	var elapsed time.Duration
	k.Spawn("writer", func(p *sim.Proc) {
		start := p.Now()
		qp.Write(p, make([]byte, 16), transport.Addr{MR: mr}, transport.WriteOptions{})
		mr.WaitChange(p, time.Second)
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < extra {
		t.Fatalf("delivery took %v, want ≥ %v injected delay", elapsed, extra)
	}
}

func TestFaultDuplicateWritePreservesTailOrder(t *testing.T) {
	k, c := faultCluster(t, 2, &FaultPlan{Duplicate: 1})
	rec := transport.NewRecorder(0)
	c.SetTracer(rec)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 128)
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	k.Spawn("writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{CommitTail: 16})
		p.Sleep(time.Millisecond)
		if !bytes.Equal(mr.Bytes()[:64], src) {
			t.Error("duplicated WRITE corrupted payload")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Injected() != 1 {
		t.Fatalf("recorder injected = %d, want 1", rec.Injected())
	}
}

// TestFaultBatchedWriteDropAndDuplicate posts doorbell batches of three
// signaled WRs, each with a CommitTail, first under a plan that duplicates
// every WRITE and then under one that drops every WRITE. A duplicated WR
// re-applies its body strictly before its tail, DuplicateDelay after the
// first commit; a dropped WR commits nothing and still completes. Either
// way every batch staging buffer and reference holder ends up back in the
// cluster's freelists, each exactly once.
func TestFaultBatchedWriteDropAndDuplicate(t *testing.T) {
	const (
		batches = 4
		perWR   = 256
		tail    = 16
		dupLag  = 3 * time.Microsecond
	)
	type wrLog struct{ firstTail, dupBody, dupTail sim.Time }
	run := func(t *testing.T, fp *FaultPlan) (transport.Region, [][]byte, []wrLog) {
		k, c := faultCluster(t, 2, fp)
		rec := transport.NewRecorder(0)
		c.SetTracer(rec)
		qp, _ := c.Dial(c.Node(0), c.Node(1))
		mr := c.OpenRegion(c.Node(1), batches*3*perWR)
		srcs := make([][]byte, batches*3)
		for i := range srcs {
			srcs[i] = bytes.Repeat([]byte{byte(i + 1)}, perWR)
		}

		// Prime the freelists with one staging buffer and one reference
		// holder per batch, so no batch needs a fresh one; afterwards the
		// freelists must hold exactly these again.
		class := bits.Len(uint(3*perWR - 1))
		bufs := map[*stagedBuf]bool{}
		refs := map[*stagedRef]bool{}
		for b := 0; b < batches; b++ {
			bufs[c.stagedGet(3*perWR)] = true
			refs[c.stagedRefGet(1)] = true
		}
		for sb := range bufs {
			c.stagedPut(sb)
		}
		for r := range refs {
			r.release(c)
		}

		k.Spawn("writer", func(p *sim.Proc) {
			for b := 0; b < batches; b++ {
				wrs := make([]transport.WriteWR, 3)
				for j := range wrs {
					i := 3*b + j
					wrs[j] = transport.WriteWR{Src: srcs[i], Dst: transport.Addr{MR: mr, Off: i * perWR},
						Opts: transport.WriteOptions{Signaled: true, ID: uint64(i), CommitTail: tail}}
				}
				qp.WriteBatch(p, wrs)
			}
			seen := map[uint64]bool{}
			for range srcs {
				cqe, ok := qp.SendCQ().WaitTimeout(p, time.Second)
				if !ok {
					t.Errorf("completion %d of %d never arrived", len(seen)+1, len(srcs))
					return
				}
				seen[cqe.ID] = true
			}
			if len(seen) != len(srcs) {
				t.Errorf("completions carried %d distinct IDs, want %d", len(seen), len(srcs))
			}
		})

		// The poller samples every WR's range once per nanosecond. It clears
		// a range the instant its first tail lands, so a re-applied body or
		// tail shows up again.
		logs := make([]wrLog, len(srcs))
		if fp.Duplicate > 0 {
			k.Spawn("poller", func(p *sim.Proc) {
				buf := mr.Bytes()
				for left := len(srcs); left > 0 && p.Now() < time.Millisecond; p.Sleep(1) {
					for i, src := range srcs {
						r, l := buf[i*perWR:(i+1)*perWR], &logs[i]
						body, tl := bytes.Equal(r[:perWR-tail], src[:perWR-tail]), bytes.Equal(r[perWR-tail:], src[perWR-tail:])
						switch {
						case l.firstTail == 0 && tl:
							if !body {
								t.Errorf("WR %d: tail committed before its body", i)
							}
							l.firstTail = p.Now()
							mr.Store(i*perWR, make([]byte, perWR))
						case l.firstTail != 0 && l.dupTail == 0:
							if body && l.dupBody == 0 {
								l.dupBody = p.Now()
							}
							if tl {
								l.dupTail = p.Now()
								left--
							}
						}
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}

		if !holdsExactly(c.stagedFree[class], bufs) {
			t.Errorf("staging-buffer freelist holds %d entries, not exactly the %d primed", len(c.stagedFree[class]), batches)
		}
		if !holdsExactly(c.srefFree, refs) {
			t.Errorf("reference-holder freelist holds %d entries, not exactly the %d primed", len(c.srefFree), batches)
		}
		if fp.Duplicate > 0 && rec.Injected() != len(srcs) {
			t.Errorf("recorder injected = %d, want %d", rec.Injected(), len(srcs))
		}
		if fp.DropWrite > 0 && rec.Dropped() != len(srcs) {
			t.Errorf("recorder dropped = %d, want %d", rec.Dropped(), len(srcs))
		}
		return mr, srcs, logs
	}

	t.Run("duplicate", func(t *testing.T) {
		mr, srcs, logs := run(t, &FaultPlan{Duplicate: 1, DuplicateDelay: dupLag})
		for i, l := range logs {
			switch {
			case l.dupTail == 0:
				t.Errorf("WR %d: no duplicate commit seen (first tail at %v)", i, l.firstTail)
			case l.dupBody == 0 || l.dupBody >= l.dupTail:
				t.Errorf("WR %d: duplicate body at %v, tail at %v: body must come strictly first", i, l.dupBody, l.dupTail)
			case l.dupTail-l.firstTail != dupLag:
				t.Errorf("WR %d: duplicate tail %v after the first, want %v", i, l.dupTail-l.firstTail, dupLag)
			}
		}
		for i, src := range srcs {
			if !bytes.Equal(mr.Bytes()[i*perWR:(i+1)*perWR], src) {
				t.Errorf("WR %d: range does not hold its payload after the duplicate", i)
			}
		}
	})
	t.Run("drop", func(t *testing.T) {
		mr, _, _ := run(t, &FaultPlan{DropWrite: 1})
		if !bytes.Equal(mr.Bytes(), make([]byte, mr.Len())) {
			t.Error("a dropped WRITE committed remote memory")
		}
	})
}

// holdsExactly reports whether list holds every member of set once and
// nothing else.
func holdsExactly[T comparable](list []T, set map[T]bool) bool {
	seen := make(map[T]bool, len(list))
	for _, x := range list {
		if !set[x] || seen[x] {
			return false
		}
		seen[x] = true
	}
	return len(seen) == len(set)
}

func TestFaultLinkScopedDrop(t *testing.T) {
	fp := &FaultPlan{Links: []LinkFault{{From: 0, To: 1, Drop: 1}}}
	k, c := faultCluster(t, 3, fp)
	q01, _ := c.Dial(c.Node(0), c.Node(1))
	q02, _ := c.Dial(c.Node(0), c.Node(2))
	mr1 := c.OpenRegion(c.Node(1), 64)
	mr2 := c.OpenRegion(c.Node(2), 64)
	k.Spawn("writer", func(p *sim.Proc) {
		q01.Write(p, []byte("to-node1"), transport.Addr{MR: mr1}, transport.WriteOptions{})
		q02.Write(p, []byte("to-node2"), transport.Addr{MR: mr2}, transport.WriteOptions{})
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(mr1.Bytes(), []byte("node1")) {
		t.Fatal("0→1 link drop did not apply")
	}
	if !bytes.Contains(mr2.Bytes(), []byte("node2")) {
		t.Fatal("0→2 traffic should be unaffected")
	}
}

func TestFaultLinkFlapWindow(t *testing.T) {
	fp := &FaultPlan{Links: []LinkFault{{
		From: -1, To: -1,
		Flaps: []FlapWindow{{Start: 10 * time.Microsecond, End: 20 * time.Microsecond}},
	}}}
	k, c := faultCluster(t, 2, fp)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	k.Spawn("writer", func(p *sim.Proc) {
		qp.Write(p, []byte{1}, transport.Addr{MR: mr, Off: 0}, transport.WriteOptions{}) // before flap
		p.Sleep(12 * time.Microsecond)
		qp.Write(p, []byte{2}, transport.Addr{MR: mr, Off: 1}, transport.WriteOptions{}) // inside flap
		p.Sleep(20 * time.Microsecond)
		qp.Write(p, []byte{3}, transport.Addr{MR: mr, Off: 2}, transport.WriteOptions{}) // after flap
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := mr.Bytes()[:3]
	if got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("flap window delivery = %v, want [1 0 3]", got)
	}
}

func TestFaultNodeCrashSilencesBothDirections(t *testing.T) {
	fp := (&FaultPlan{}).CrashNode(1, 5*time.Microsecond)
	k, c := faultCluster(t, 2, fp)
	qp, qpB := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	mr0 := c.OpenRegion(c.Node(0), 64)
	k.Spawn("survivor", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond) // past the crash
		qp.Write(p, []byte("late"), transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true, ID: 7})
		if _, ok := qp.SendCQ().WaitTimeout(p, time.Second); ok {
			t.Error("WRITE to crashed node must not complete")
		}
		if v, ok := qp.FetchAdd(p, transport.Addr{MR: mr}, 1); v != 0 || ok {
			t.Errorf("atomic to crashed node returned (%d, %v), want (0, false)", v, ok)
		}
	})
	k.Spawn("crashed", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		// Posts from a crashed node also go nowhere.
		qpB.Write(p, []byte("ghost"), transport.Addr{MR: mr0}, transport.WriteOptions{Signaled: true, ID: 8})
		if _, ok := qpB.SendCQ().WaitTimeout(p, time.Second); ok {
			t.Error("WRITE from crashed node must not complete")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(mr.Bytes(), []byte("late")) || bytes.Contains(mr0.Bytes(), []byte("ghost")) {
		t.Fatal("crashed node exchanged data")
	}
}

func TestFaultAtomicDropIsRetryNotLoss(t *testing.T) {
	k, c := faultCluster(t, 2, &FaultPlan{DropAtomic: 1})
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	k.Spawn("adder", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, ok := qp.FetchAdd(p, transport.Addr{MR: mr}, 1); !ok {
				t.Errorf("dropped atomic %d reported failure; a drop is a retry", i)
			}
		}
		// Exactly-once execution despite 100% "drop": each op is a retry.
		if v := binary.LittleEndian.Uint64(mr.Bytes()[:8]); v != 4 {
			t.Errorf("counter = %d, want 4", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultMulticastPerMemberDrop(t *testing.T) {
	fp := &FaultPlan{Links: []LinkFault{{From: -1, To: 2, Drop: 1}}}
	k, c := faultCluster(t, 3, fp)
	g := c.Multicast(c.Node(0), c.Node(1), c.Node(2))
	for i := 1; i <= 2; i++ {
		g.Member(i).PostRecv(make([]byte, 32), uint64(i))
	}
	k.Spawn("sender", func(p *sim.Proc) {
		g.Send(p, c.Node(0), []byte("fanout"), true)
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Member(1).RecvCQ().Len() != 1 {
		t.Fatal("member 1 should have received the message")
	}
	if g.Member(2).RecvCQ().Len() != 0 || g.Member(2).DropCount() != 1 {
		t.Fatalf("member 2 recv=%d drops=%d, want 0/1", g.Member(2).RecvCQ().Len(), g.Member(2).DropCount())
	}
}

func TestFaultsDeterministicUnderSeed(t *testing.T) {
	run := func() (int, int) {
		k := sim.New(42)
		k.Deadline = 10 * time.Minute
		cfg := DefaultConfig()
		cfg.Faults = &FaultPlan{DropWrite: 0.3, DelayJitter: 3 * time.Microsecond}
		c := NewCluster(k, 2, cfg)
		rec := transport.NewRecorder(0)
		c.SetTracer(rec)
		qp, _ := c.Dial(c.Node(0), c.Node(1))
		mr := c.OpenRegion(c.Node(1), 256)
		k.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				qp.Write(p, []byte{byte(i)}, transport.Addr{MR: mr, Off: i}, transport.WriteOptions{})
				p.Sleep(time.Microsecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Total(), rec.Dropped()
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 || d1 != d2 {
		t.Fatalf("chaos not reproducible: (%d,%d) vs (%d,%d)", t1, d1, t2, d2)
	}
	if d1 == 0 || d1 == t1 {
		t.Fatalf("expected partial loss, got %d/%d", d1, t1)
	}
}

// TestFaultDuplicateWriteKeepsPostTimeBytes: an injected duplicate
// commits after the WRITE completed, when the caller may lawfully reuse
// its buffer; the duplicate must carry the bytes the WRITE was posted
// with, not the caller's new ones.
func TestFaultDuplicateWriteKeepsPostTimeBytes(t *testing.T) {
	k, c := faultCluster(t, 2, &FaultPlan{Duplicate: 1, DuplicateDelay: 5 * time.Microsecond})
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 4096)
	src := bytes.Repeat([]byte{1}, 4096)
	var rewritten, dupSeen bool
	k.Spawn("writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true, CommitTail: 16})
		qp.SendCQ().Wait(p)
		for i := range src {
			src[i] = 2 // lawful: the WRITE has completed
		}
		rewritten = true
		mr.Store(0, make([]byte, 4096)) // clear, so the duplicate shows
		dupSeen = mr.WaitChange(p, 10*time.Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !rewritten || !dupSeen {
		t.Fatalf("rewritten=%v, duplicate seen=%v: the duplicate must commit after the completion", rewritten, dupSeen)
	}
	if !bytes.Equal(mr.Bytes(), bytes.Repeat([]byte{1}, 4096)) {
		t.Fatalf("duplicate delivered %d..., want the post-time bytes (1)", mr.Bytes()[0])
	}
}
