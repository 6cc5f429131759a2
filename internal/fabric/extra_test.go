package fabric

import (
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

func TestInlineThresholdReducesSmallWriteLatency(t *testing.T) {
	oneWay := func(size int) time.Duration {
		k, c := testCluster(t, 2)
		qp, _ := c.Dial(c.Node(0), c.Node(1))
		mr := c.OpenRegion(c.Node(1), 64<<10)
		var d time.Duration
		k.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			qp.Write(p, make([]byte, size), transport.Addr{MR: mr}, transport.WriteOptions{})
			mr.WaitChange(p, time.Second)
			d = p.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	small := oneWay(64)   // inlined
	large := oneWay(1024) // not inlined
	cfg := DefaultConfig()
	// The large write pays the full NIC startup plus more serialization;
	// the inline saving must be visible beyond serialization alone.
	serDelta := cfg.serialization(1024) - cfg.serialization(64)
	if large-small <= serDelta {
		t.Fatalf("no inline saving visible: small=%v large=%v serDelta=%v", small, large, serDelta)
	}
}

func TestControlLaneBypassesBulkBacklog(t *testing.T) {
	// Regression for the footer-probe pathology: a small READ issued
	// behind megabytes of queued WRITEs must not wait for the backlog.
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 1<<20)
	var rtt time.Duration
	k.Spawn("w", func(p *sim.Proc) {
		big := make([]byte, 1<<20)
		for i := 0; i < 16; i++ { // ≈ 1.4ms of TX backlog
			qp.Write(p, big, transport.Addr{MR: mr}, transport.WriteOptions{})
		}
		buf := make([]byte, 16)
		rtt = qp.ReadSync(p, buf, transport.Addr{MR: mr})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt > 5*time.Microsecond {
		t.Fatalf("small READ RTT %v queued behind bulk backlog", rtt)
	}
}

func TestLargeReadUsesBulkLane(t *testing.T) {
	// Reads above controlBytes serialize on the links like any transfer.
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 1<<20)
	var rtt time.Duration
	k.Spawn("r", func(p *sim.Proc) {
		buf := make([]byte, 512<<10)
		rtt = qp.ReadSync(p, buf, transport.Addr{MR: mr})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	dcfg := DefaultConfig()
	min := dcfg.serialization(512 << 10)
	if rtt < min {
		t.Fatalf("512 KiB read RTT %v below its serialization time %v", rtt, min)
	}
}

func TestCQWaitTimeout(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	k.Spawn("p", func(p *sim.Proc) {
		if _, ok := qp.SendCQ().WaitTimeout(p, 2*time.Microsecond); ok {
			t.Error("completion from nowhere")
		}
		if p.Now() < 2*time.Microsecond {
			t.Errorf("timed out early at %v", p.Now())
		}
		qp.Write(p, make([]byte, 8), transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true, ID: 5})
		if comp, ok := qp.SendCQ().WaitTimeout(p, time.Second); !ok || comp.ID != 5 {
			t.Errorf("comp = %+v ok=%v", comp, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQWaitNonEmptyDoesNotConsume(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	k.Spawn("p", func(p *sim.Proc) {
		qp.Write(p, make([]byte, 8), transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true, ID: 9})
		if !qp.SendCQ().WaitNonEmpty(p, time.Second) {
			t.Fatal("no completion")
		}
		if qp.SendCQ().Len() != 1 {
			t.Fatalf("WaitNonEmpty consumed the completion")
		}
		if comp, ok := qp.SendCQ().Poll(p); !ok || comp.ID != 9 {
			t.Fatalf("poll after WaitNonEmpty: %+v %v", comp, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostedRecvsCount(t *testing.T) {
	k, c := testCluster(t, 2)
	qa, qb := c.Dial(c.Node(0), c.Node(1))
	qb.PostRecv(make([]byte, 8), 0)
	qb.PostRecv(make([]byte, 8), 1)
	if qb.PostedRecvs() != 2 {
		t.Fatalf("PostedRecvs = %d", qb.PostedRecvs())
	}
	k.Spawn("s", func(p *sim.Proc) {
		qa.Send(p, []byte("x"), false, 0)
	})
	k.Spawn("r", func(p *sim.Proc) {
		qb.RecvCQ().Wait(p)
		if qb.PostedRecvs() != 1 {
			t.Errorf("PostedRecvs = %d after one delivery", qb.PostedRecvs())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBoundsPanics(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 16)
	k.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds write did not panic")
			}
		}()
		qp.Write(p, make([]byte, 32), transport.Addr{MR: mr}, transport.WriteOptions{})
	})
	_ = k.Run()
}

func TestWriteWrongPeerPanics(t *testing.T) {
	k, c := testCluster(t, 3)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(2), 16) // not the peer
	k.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("write to non-peer MR did not panic")
			}
		}()
		qp.Write(p, make([]byte, 8), transport.Addr{MR: mr}, transport.WriteOptions{})
	})
	_ = k.Run()
}

func TestLinkUtilizationCounters(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 1<<20)
	k.Spawn("w", func(p *sim.Proc) {
		qp.Write(p, make([]byte, 1<<20), transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true})
		qp.SendCQ().Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	dcfg := DefaultConfig()
	want := dcfg.serialization(1 << 20)
	if c.Node(0).txBusy != want || c.Node(1).rxBusy != want {
		t.Fatalf("tx=%v rx=%v want %v", c.Node(0).txBusy, c.Node(1).rxBusy, want)
	}
}
