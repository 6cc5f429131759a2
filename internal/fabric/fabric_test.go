package fabric

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

func testCluster(t *testing.T, n int) (*sim.Kernel, *Cluster) {
	t.Helper()
	k := sim.New(7)
	k.Deadline = 10 * time.Minute
	return k, NewCluster(k, n, DefaultConfig())
}

func TestWriteDeliversPayload(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	src := []byte("hello, remote memory!")

	k.Spawn("writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr, Off: 8}, transport.WriteOptions{Signaled: true, ID: 42})
		comp := qp.SendCQ().Wait(p)
		if comp.ID != 42 || comp.Op != transport.OpWrite {
			t.Errorf("completion = %+v", comp)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mr.Bytes()[8:8+len(src)], src) {
		t.Fatalf("payload not delivered: %q", mr.Bytes()[8:8+len(src)])
	}
}

func TestWriteLatencyIsMicrosecondScale(t *testing.T) {
	k, c := testCluster(t, 2)
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
	if elapsed < 200*time.Nanosecond || elapsed > 3*time.Microsecond {
		t.Fatalf("16B write one-way latency = %v, want sub-3µs", elapsed)
	}
}

func TestFooterCommitsAfterPayload(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 1<<14)
	seg := make([]byte, 8192)
	for i := range seg {
		seg[i] = 0xAB
	}
	seg[len(seg)-1] = 0xFF // footer marker

	var sawPayloadWithoutFooter, sawFooterWithoutPayload bool
	k.Spawn("writer", func(p *sim.Proc) {
		qp.Write(p, seg, transport.Addr{MR: mr}, transport.WriteOptions{CommitTail: 8})
	})
	k.Spawn("observer", func(p *sim.Proc) {
		for i := 0; i < 10000; i++ {
			footer := mr.Bytes()[len(seg)-1] == 0xFF
			payload := mr.Bytes()[0] == 0xAB
			if payload && !footer {
				sawPayloadWithoutFooter = true
			}
			if footer && !payload {
				sawFooterWithoutPayload = true
			}
			if footer {
				return
			}
			p.Sleep(time.Nanosecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sawFooterWithoutPayload {
		t.Fatal("footer observed before payload: increasing-address DMA order violated")
	}
	if !sawPayloadWithoutFooter {
		t.Fatal("never observed payload-before-footer window; two-phase commit not modelled")
	}
}

func TestUnsignaledReuseBeforeCompletionCorrupts(t *testing.T) {
	// Overwriting the source buffer immediately after posting (before the
	// NIC DMA-read finishes) corrupts the delivered data. This is the
	// hazard DFI's selective signaling exists to prevent.
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 8192)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = 1
	}
	k.Spawn("hasty-writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{})
		for i := range src {
			src[i] = 2 // reuse immediately — no completion awaited
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if mr.Bytes()[0] != 2 {
		t.Fatalf("expected corrupted delivery (2), got %d", mr.Bytes()[0])
	}
}

func TestSignaledCompletionMakesReuseSafe(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 8192)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = 1
	}
	k.Spawn("careful-writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true})
		qp.SendCQ().Wait(p)
		for i := range src {
			src[i] = 2
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if mr.Bytes()[0] != 1 {
		t.Fatalf("delivery corrupted despite completion: got %d", mr.Bytes()[0])
	}
}

func TestSingleStreamReachesLinkBandwidth(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	const msg = 64 << 10
	const n = 200
	mr := c.OpenRegion(c.Node(1), msg)
	src := make([]byte, msg)
	var elapsed time.Duration
	k.Spawn("stream", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < n; i++ {
			sig := i == n-1
			qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{Signaled: sig})
		}
		qp.SendCQ().Wait(p)
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(msg*n) / elapsed.Seconds()
	max := c.Config().LinkBandwidth
	if bw < 0.85*max || bw > 1.01*max {
		t.Fatalf("single-stream bandwidth %.2e B/s, want ≈ link speed %.2e", bw, max)
	}
}

func TestIncastSharesReceiverLink(t *testing.T) {
	// 4 senders to one receiver: aggregate *delivered* bandwidth must be
	// capped by (and close to) the receiver's link speed. Senders finish
	// posting earlier — delivery queues on the congested RX link.
	k, c := testCluster(t, 5)
	const msg = 64 << 10
	const perSender = 50
	mrs := make([]transport.Region, 4)
	for s := 0; s < 4; s++ {
		s := s
		qp, _ := c.Dial(c.Node(1+s), c.Node(0))
		mrs[s] = c.OpenRegion(c.Node(0), msg)
		k.Spawn("sender", func(p *sim.Proc) {
			src := make([]byte, msg)
			for i := 0; i < perSender; i++ {
				qp.Write(p, src, transport.Addr{MR: mrs[s]}, transport.WriteOptions{Signaled: i == perSender-1})
			}
			qp.SendCQ().Wait(p)
		})
	}
	var lastDelivery time.Duration
	done := sim.NewWaitGroup(k)
	for s := 0; s < 4; s++ {
		s := s
		done.Add(1)
		k.Spawn("watcher", func(p *sim.Proc) {
			seen := uint64(0)
			for seen < perSender {
				if !mrs[s].WaitCommit(p, mrs[s].CommitSeq(), time.Second) {
					break
				}
				seen = mrs[s].CommitSeq()
			}
			if p.Now() > lastDelivery {
				lastDelivery = p.Now()
			}
			done.Done()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	agg := float64(4*perSender*msg) / lastDelivery.Seconds()
	max := c.Config().LinkBandwidth
	if agg > 1.02*max {
		t.Fatalf("incast aggregate %.2e exceeds receiver link %.2e", agg, max)
	}
	if agg < 0.8*max {
		t.Fatalf("incast aggregate %.2e too far below receiver link %.2e", agg, max)
	}
}

func TestReadRoundTrip(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	copy(mr.Bytes()[16:], "remote-data")
	k.Spawn("reader", func(p *sim.Proc) {
		dst := make([]byte, 11)
		rtt := qp.ReadSync(p, dst, transport.Addr{MR: mr, Off: 16})
		if string(dst) != "remote-data" {
			t.Errorf("read %q", dst)
		}
		if rtt < 500*time.Nanosecond || rtt > 5*time.Microsecond {
			t.Errorf("read RTT = %v, want µs-scale round trip", rtt)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFetchAddReturnsOldAndSerializes(t *testing.T) {
	k, c := testCluster(t, 3)
	mr := c.OpenRegion(c.Node(0), 8)
	seen := map[uint64]bool{}
	done := sim.NewWaitGroup(k)
	for s := 1; s <= 2; s++ {
		qp, _ := c.Dial(c.Node(s), c.Node(0))
		done.Add(1)
		k.Spawn("adder", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				old, ok := qp.FetchAdd(p, transport.Addr{MR: mr}, 1)
				if !ok {
					t.Errorf("fetch-add reported failure on a healthy node")
				}
				if seen[old] {
					t.Errorf("duplicate sequence number %d", old)
				}
				seen[old] = true
			}
			done.Done()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("got %d unique values, want 20", len(seen))
	}
	if got := binary.LittleEndian.Uint64(mr.Bytes()); got != 20 {
		t.Fatalf("counter = %d, want 20", got)
	}
}

func TestSendRecvMatched(t *testing.T) {
	k, c := testCluster(t, 2)
	qa, qb := c.Dial(c.Node(0), c.Node(1))
	buf := make([]byte, 32)
	qb.PostRecv(buf, 9)
	k.Spawn("sender", func(p *sim.Proc) {
		qa.Send(p, []byte("ping"), false, 0)
	})
	var comp transport.Completion
	k.Spawn("receiver", func(p *sim.Proc) {
		comp = qb.RecvCQ().Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if comp.ID != 9 || comp.Bytes != 4 || string(buf[:4]) != "ping" {
		t.Fatalf("comp=%+v buf=%q", comp, buf[:4])
	}
}

func TestSendBeforeRecvIsQueuedOnRC(t *testing.T) {
	k, c := testCluster(t, 2)
	qa, qb := c.Dial(c.Node(0), c.Node(1))
	k.Spawn("sender", func(p *sim.Proc) {
		qa.Send(p, []byte("early"), false, 0)
	})
	buf := make([]byte, 8)
	k.Spawn("late-receiver", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		qb.PostRecv(buf, 1)
		comp := qb.RecvCQ().Wait(p)
		if comp.Bytes != 5 || string(buf[:5]) != "early" {
			t.Errorf("comp=%+v buf=%q", comp, buf[:5])
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSendRecvSteadyStateAllocs is the allocation gate for two-sided
// verbs: a SEND rides a pooled op and a recycled staging buffer, and the
// receive queues are rings, so a ping-pong in steady state — receives
// posted before the SENDs they match, and SENDs that arrive before their
// receive — allocates no more per round trip than chanloop does (2).
func TestSendRecvSteadyStateAllocs(t *testing.T) {
	const (
		warmup   = 1_000
		window   = 10_000
		perRound = 2
	)
	for _, early := range []bool{false, true} {
		k, c := testCluster(t, 2)
		qa, qb := c.Dial(c.Node(0), c.Node(1))
		var before, after runtime.MemStats
		k.Spawn("pong", func(p *sim.Proc) {
			msg := make([]byte, 64)
			buf := make([]byte, 64)
			for i := 0; i < warmup+window; i++ {
				if early {
					p.Sleep(5 * time.Microsecond) // the SEND is queued as an arrival by now
				}
				qb.PostRecv(buf, 0)
				qb.RecvCQ().Wait(p)
				qb.Send(p, msg, true, 0)
				qb.SendCQ().Wait(p)
			}
		})
		k.Spawn("ping", func(p *sim.Proc) {
			msg := make([]byte, 64)
			buf := make([]byte, 64)
			for i := 0; i < warmup+window; i++ {
				if i == warmup {
					runtime.ReadMemStats(&before)
				}
				binary.LittleEndian.PutUint64(msg, uint64(i))
				qa.PostRecv(buf, 0)
				qa.Send(p, msg, false, uint64(i))
				qa.RecvCQ().Wait(p)
			}
			runtime.ReadMemStats(&after)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		allocs := after.Mallocs - before.Mallocs
		t.Logf("early=%v: %d allocations over %d round trips", early, allocs, window)
		if allocs > perRound*window {
			t.Errorf("early=%v: %d allocations over %d SEND/RECV round trips, want at most %d per round trip",
				early, allocs, window, perRound)
		}
	}
}

// TestSendDuplicateOutlivesRecycling: an injected duplicate SEND holds its
// own reference on the staging buffer, so both copies deliver the original
// bytes even when the first was matched, and recycled, long before the
// second arrives and later SENDs reuse the buffer in between.
func TestSendDuplicateOutlivesRecycling(t *testing.T) {
	k, c := faultCluster(t, 2, &FaultPlan{Duplicate: 1, DuplicateDelay: 50 * time.Microsecond})
	qa, qb := c.Dial(c.Node(0), c.Node(1))
	const n = 4
	var got []string
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			qa.Send(p, []byte{'m', byte('0' + i)}, false, uint64(i))
			p.Sleep(5 * time.Microsecond)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2*n; i++ {
			if i%2 == 1 {
				p.Sleep(20 * time.Microsecond) // odd receives find queued arrivals
			}
			buf := make([]byte, 8)
			qb.PostRecv(buf, uint64(i))
			comp := qb.RecvCQ().Wait(p)
			if want := []byte{'m', byte('0' + comp.Value)}; !bytes.Equal(buf[:comp.Bytes], want) {
				t.Errorf("receive %d (message %d) = %q, want %q", i, comp.Value, buf[:comp.Bytes], want)
			}
			got = append(got, string(buf[:comp.Bytes]))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*n {
		t.Fatalf("received %d messages, want %d (each SEND twice): %q", len(got), 2*n, got)
	}
}

func TestMulticastFanOut(t *testing.T) {
	k, c := testCluster(t, 4)
	g := c.Multicast(c.Node(1), c.Node(2), c.Node(3))
	bufs := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		bufs[i] = make([]byte, 16)
		g.Member(i).PostRecv(bufs[i], uint64(i))
	}
	k.Spawn("mc-sender", func(p *sim.Proc) {
		g.Send(p, c.Node(0), []byte("replicated"), false)
	})
	got := 0
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("member", func(p *sim.Proc) {
			g.Member(i).RecvCQ().Wait(p)
			if string(bufs[i][:10]) != "replicated" {
				t.Errorf("member %d got %q", i, bufs[i][:10])
			}
			got++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("delivered to %d members", got)
	}
}

func TestMulticastDropsWithoutPostedRecv(t *testing.T) {
	k, c := testCluster(t, 2)
	g := c.Multicast(c.Node(1))
	k.Spawn("mc-sender", func(p *sim.Proc) {
		g.Send(p, c.Node(0), []byte("lost"), false)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Member(0).DropCount() != 1 {
		t.Fatalf("drops = %d, want 1", g.Member(0).DropCount())
	}
}

func TestMulticastLossInjection(t *testing.T) {
	k := sim.New(7)
	cfg := DefaultConfig()
	cfg.MulticastLoss = 0.5
	c := NewCluster(k, 2, cfg)
	g := c.Multicast(c.Node(1))
	const n = 400
	for i := 0; i < n; i++ {
		g.Member(0).PostRecv(make([]byte, 8), uint64(i))
	}
	k.Spawn("mc-sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			g.Send(p, c.Node(0), []byte("x"), false)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	drops := g.Member(0).DropCount()
	if drops < n/4 || drops > 3*n/4 {
		t.Fatalf("drops = %d of %d, want roughly half", drops, n)
	}
}

func TestMulticastUsesSenderLinkOnce(t *testing.T) {
	// Aggregate delivered bandwidth across 8 members should far exceed the
	// sender's link speed (switch-side replication, Figure 8b).
	k, c := testCluster(t, 9)
	members := make([]transport.Endpoint, 8)
	for i := range members {
		members[i] = c.Node(i + 1)
	}
	g := c.Multicast(members...)
	const msg = 8 << 10
	const n = 200
	for i := 0; i < 8; i++ {
		for j := 0; j < n; j++ {
			g.Member(i).PostRecv(make([]byte, msg), uint64(j))
		}
	}
	var elapsed time.Duration
	k.Spawn("mc-sender", func(p *sim.Proc) {
		src := make([]byte, msg)
		for j := 0; j < n; j++ {
			g.Send(p, c.Node(0), src, false)
		}
	})
	drained := 0
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("member", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				g.Member(i).RecvCQ().Wait(p)
			}
			if p.Now() > elapsed {
				elapsed = p.Now()
			}
			drained++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if drained != 8 {
		t.Fatalf("only %d members drained", drained)
	}
	agg := float64(8*n*msg) / elapsed.Seconds()
	if agg < 3*c.Config().LinkBandwidth {
		t.Fatalf("aggregate multicast bandwidth %.2e should exceed sender link %.2e several times", agg, c.Config().LinkBandwidth)
	}
}

func TestMemoryAccounting(t *testing.T) {
	k, c := testCluster(t, 1)
	_ = k
	mr := c.OpenRegion(c.Node(0), 1<<20)
	if c.Node(0).RegisteredBytes() != 1<<20 {
		t.Fatalf("registered = %d", c.Node(0).RegisteredBytes())
	}
	mr.Deregister()
	if c.Node(0).RegisteredBytes() != 0 {
		t.Fatalf("after deregister = %d", c.Node(0).RegisteredBytes())
	}
}

func TestComputeScalesWithCPU(t *testing.T) {
	k, c := testCluster(t, 1)
	c.Node(0).CPUScale = 0.5
	var elapsed time.Duration
	k.Spawn("straggler", func(p *sim.Proc) {
		c.Node(0).Compute(p, time.Millisecond)
		elapsed = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 2*time.Millisecond {
		t.Fatalf("elapsed = %v, want 2ms at half speed", elapsed)
	}
}

// TestWriteEventsPerWR: a fault-free WRITE with a CommitTail costs the
// kernel exactly two events once posted — the body commit and the tail
// commit, which copy straight from the source — and three when signaled,
// the completion being the third. No step snapshots the source.
func TestWriteEventsPerWR(t *testing.T) {
	for _, signaled := range []bool{false, true} {
		k, c := testCluster(t, 2)
		qp, _ := c.Dial(c.Node(0), c.Node(1))
		mr := c.OpenRegion(c.Node(1), 8192)
		src := bytes.Repeat([]byte{7}, 8192)
		var posted uint64
		k.Spawn("writer", func(p *sim.Proc) {
			qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{Signaled: signaled, CommitTail: 16})
			posted = k.Events()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := uint64(2)
		if signaled {
			want = 3
		}
		if got := k.Events() - posted; got != want {
			t.Errorf("signaled=%v: %d events after the post, want %d", signaled, got, want)
		}
		if !bytes.Equal(mr.Bytes(), src) {
			t.Errorf("signaled=%v: payload not delivered", signaled)
		}
	}
}
