package fabric

import (
	"strings"
	"testing"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

func TestRecorderAggregatesAndCaps(t *testing.T) {
	k, c := testCluster(t, 3)
	rec := transport.NewRecorder(2)
	c.SetTracer(rec)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 1024)
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			qp.Write(p, make([]byte, 100), transport.Addr{MR: mr}, transport.WriteOptions{})
		}
		buf := make([]byte, 16)
		qp.ReadSync(p, buf, transport.Addr{MR: mr})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 6 {
		t.Fatalf("Total = %d, want 6", rec.Total())
	}
	if len(rec.Ops) != 2 {
		t.Fatalf("retained %d ops, cap 2", len(rec.Ops))
	}
	var sb strings.Builder
	rec.Summary(&sb, 3)
	out := sb.String()
	for _, want := range []string{"traced 6 operations", "WRITE", "READ", "node0 → node1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	rec.Log(&sb)
	if !strings.Contains(sb.String(), "further operations (log capped)") {
		t.Fatalf("log missing cap notice:\n%s", sb.String())
	}
}

func TestTracerObservesAtomicsAndSends(t *testing.T) {
	k, c := testCluster(t, 2)
	rec := transport.NewRecorder(0)
	c.SetTracer(rec)
	qa, qb := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 8)
	qb.PostRecv(make([]byte, 8), 0)
	k.Spawn("p", func(p *sim.Proc) {
		qa.FetchAdd(p, transport.Addr{MR: mr}, 1)
		qa.Send(p, []byte("hi"), false, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[transport.OpKind]int{}
	for _, op := range rec.Ops {
		kinds[op.Kind]++
		if op.Arrived < op.Posted {
			t.Fatalf("op delivered before posted: %+v", op)
		}
	}
	if kinds[transport.OpFetchAdd] != 1 || kinds[transport.OpSend] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestRecorderSeparatesDroppedFromDelivered(t *testing.T) {
	// Regression: dropped ops' bytes used to be folded into the delivered
	// message-byte total and the per-pair traffic map, overstating what a
	// flow actually moved under a fault plan.
	rec := transport.NewRecorder(0)
	rec.WireOverheadBytes = 42
	rec.Trace(transport.TraceOp{Kind: transport.OpWrite, From: 0, To: 1, Bytes: 100})
	rec.Trace(transport.TraceOp{Kind: transport.OpWrite, From: 0, To: 1, Bytes: 40, Disposition: transport.Dropped})
	rec.Trace(transport.TraceOp{Kind: transport.OpWrite, From: 0, To: 1, Bytes: 25, Disposition: transport.Injected})
	if got := rec.MessageBytes(); got != 125 {
		t.Fatalf("MessageBytes = %d, want 125 (delivered 100 + injected 25)", got)
	}
	if got := rec.DroppedBytes(); got != 40 {
		t.Fatalf("DroppedBytes = %d, want 40", got)
	}
	var sb strings.Builder
	rec.Summary(&sb, 1)
	out := sb.String()
	for _, want := range []string{
		"traced 3 operations, 125 message bytes delivered",
		// wire estimate covers delivered ops only: 125 + 2*42
		"≈209 wire bytes incl. 42 B/message framing overhead",
		"1 dropped (40 bytes never delivered)",
		"1 duplicate deliveries injected (+25 bytes delivered)",
		"node0 → node1  125 bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	// Without a tracer installed, verbs must work unchanged (nil hook).
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	k.Spawn("p", func(p *sim.Proc) {
		qp.Write(p, make([]byte, 8), transport.Addr{MR: mr}, transport.WriteOptions{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
