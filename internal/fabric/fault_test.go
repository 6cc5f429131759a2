package fabric

import (
	"bytes"
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
		if v := qp.FetchAdd(p, transport.Addr{MR: mr}, 1); v != 0 {
			t.Errorf("atomic to crashed node returned %d, want 0", v)
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
			qp.FetchAdd(p, transport.Addr{MR: mr}, 1)
		}
		// Exactly-once execution despite 100% "drop": each op is a retry.
		if v := le64(mr.Bytes()[:8]); v != 4 {
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
