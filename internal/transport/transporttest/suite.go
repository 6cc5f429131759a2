// Package transporttest is the conformance suite every transport backend
// must pass: one table of semantic tests — per-queue write ordering with
// commit-tail visibility, fetch-add serialization returning unique old
// values, reliable two-sided send/recv, payloads that arrive byte for
// byte, CQ signaled-only completions, a ReadSync that leaves the CQ alone,
// source buffers that are the caller's again after a completion, RC order
// per poster on a shared queue end, multicast drop-without-posted-recv,
// group detach and reattach, and the sequence-counted waits (Cond,
// Region.Notify) — executed against a backend-supplied environment. The
// DES fabric and chanloop both run it
// (internal/fabric/conformance_test.go,
// internal/transport/chanloop/conformance_test.go); a future socket
// backend passes by wiring up NewEnv. Bench (bench.go) is the per-verb
// benchmark over the same environment.
package transporttest

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"dfi/internal/transport"
)

// Env is one freshly built backend instance for one test case: a
// transport, n endpoints, a way to start concurrent actors, and a Run
// that drives them to completion (the sim kernel's event loop, or a
// WaitGroup wait for goroutine backends).
type Env struct {
	T  transport.Transport
	EP []transport.Endpoint
	// Go starts fn as a concurrent actor (sim process or goroutine).
	Go func(name string, fn func(transport.Ctx))
	// Run drives all actors started with Go until they finish.
	Run func()
}

// NewEnv builds a fresh Env with n endpoints.
type NewEnv func(n int) Env

// waitFor is the bounded wait used by every test: generous on wall
// clocks, cheap in virtual time.
const waitFor = 5 * time.Second

// Run executes the conformance table against the backend.
func Run(t *testing.T, newEnv NewEnv) {
	cases := []struct {
		name string
		fn   func(t *testing.T, env Env)
	}{
		{"WriteOrderingPerQueue", testWriteOrdering},
		{"WriteCommitTailLast", testCommitTail},
		{"PayloadArrivesWhole", testPayloadWhole},
		{"FetchAddSerialization", testFetchAdd},
		{"SendRecvReliable", testSendRecv},
		{"EarlySendKeepsItsBytes", testEarlySend},
		{"WriteSourceReusableAfterCompletion", testWriteSourceReuse},
		{"TwoPostersOneQueue", testTwoPosters},
		{"SignaledOnlyCompletions", testSignaledOnly},
		{"BurstPollOrdering", testBurstPoll},
		{"ReadBack", testReadBack},
		{"ReadSyncLeavesCQAlone", testReadSyncLeavesCQ},
		{"MulticastDropWithoutRecv", testMulticastDrop},
		{"GroupDetachReattach", testGroupDetachReattach},
		{"CondSequenceWait", testCondSeq},
		{"RegionNotifyWakesPoller", testRegionNotify},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, newEnv(3))
		})
	}
}

// testWriteOrdering pins RC ordering: N unsignaled writes posted on one
// queue, then one signaled marker write. When the reader observes the
// marker, every earlier write must already be visible.
func testWriteOrdering(t *testing.T, env Env) {
	const n = 64
	mr := env.T.OpenRegion(env.EP[1], (n+1)*8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		// One backing slot per WR: the selective-signaling contract says a
		// source buffer must stay stable until a covering completion.
		src := make([]byte, (n+1)*8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(src[i*8:], uint64(i)+1)
			qa.Write(p, src[i*8:(i+1)*8], transport.Addr{MR: mr, Off: i * 8}, transport.WriteOptions{})
		}
		binary.LittleEndian.PutUint64(src[n*8:], ^uint64(0))
		qa.Write(p, src[n*8:], transport.Addr{MR: mr, Off: n * 8}, transport.WriteOptions{Signaled: true, ID: 7})
		if c, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok || c.ID != 7 {
			t.Errorf("marker write completion: got (%+v,%v), want ID 7", c, ok)
		}
	})
	env.Go("reader", func(p transport.Ctx) {
		buf := make([]byte, 8)
		deadline := p.Now() + waitFor
		for {
			mr.Load(n*8, buf)
			if binary.LittleEndian.Uint64(buf) == ^uint64(0) {
				break
			}
			if p.Now() > deadline {
				t.Errorf("marker write never became visible")
				return
			}
			mr.WaitChange(p, 10*time.Millisecond)
		}
		for i := 0; i < n; i++ {
			mr.Load(i*8, buf)
			if got := binary.LittleEndian.Uint64(buf); got != uint64(i)+1 {
				t.Errorf("slot %d: got %d before marker, want %d (ordering violated)", i, got, i+1)
			}
		}
	})
	env.Run()
}

// testCommitTail pins footer-last commit ordering: a WRITE whose
// CommitTail bytes must never be visible before its body.
func testCommitTail(t *testing.T, env Env) {
	const body, tail, rounds = 1024, 16, 32
	mr := env.T.OpenRegion(env.EP[1], body+tail)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		seg := make([]byte, body+tail)
		for round := 1; round <= rounds; round++ {
			for i := 0; i < body; i++ {
				seg[i] = byte(round)
			}
			binary.LittleEndian.PutUint64(seg[body:], uint64(round))
			qa.Write(p, seg, transport.Addr{MR: mr, Off: 0},
				transport.WriteOptions{CommitTail: tail, Signaled: true, ID: uint64(round)})
			if _, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok {
				t.Errorf("round %d: write completion lost", round)
				return
			}
		}
	})
	env.Go("reader", func(p transport.Ctx) {
		ftr := make([]byte, 8)
		b := make([]byte, body)
		seen := uint64(0)
		deadline := p.Now() + waitFor
		for seen < rounds && p.Now() < deadline {
			since := mr.CommitSeq()
			mr.Load(body, ftr)
			round := binary.LittleEndian.Uint64(ftr)
			if round > seen {
				// Footer visible: the whole body of that round must be too.
				mr.Load(0, b)
				for i := 0; i < body; i++ {
					if uint64(b[i]) < round {
						t.Errorf("round %d: body byte %d is stale (%d) under committed tail", round, i, b[i])
						return
					}
				}
				seen = round
			}
			mr.WaitCommit(p, since, 10*time.Millisecond)
		}
		if seen < rounds {
			t.Errorf("saw only %d/%d rounds", seen, rounds)
		}
	})
	env.Run()
}

// testPayloadWhole pins that verbs move their bytes, all of them: a
// 4 KiB WRITE with a CommitTail lands body and tail, and a 4 KiB SEND
// arrives whole — no backend models a payload by its size alone.
func testPayloadWhole(t *testing.T, env Env) {
	const n, tail = 4096, 16
	pattern := func(salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7) ^ salt
		}
		return b
	}
	mr := env.T.OpenRegion(env.EP[1], n)
	qa, qb := env.T.Dial(env.EP[0], env.EP[1])
	qb.PostRecv(make([]byte, n), 9)

	env.Go("sender", func(p transport.Ctx) {
		qa.Write(p, pattern(0x5a), transport.Addr{MR: mr}, transport.WriteOptions{CommitTail: tail})
		qa.Send(p, pattern(0xa5), true, 2)
		if c, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok || c.Op != transport.OpSend {
			t.Errorf("send completion: got (%+v,%v)", c, ok)
		}
	})
	env.Go("receiver", func(p transport.Ctx) {
		c, ok := qb.RecvCQ().WaitTimeout(p, waitFor)
		if !ok || c.Bytes != n || !bytes.Equal(c.Buf[:c.Bytes], pattern(0xa5)) {
			t.Errorf("4 KiB SEND did not arrive whole: ok=%v bytes=%d", ok, c.Bytes)
		}
		// RC order: the WRITE posted before the SEND has committed.
		got := make([]byte, n)
		mr.Load(0, got)
		if want := pattern(0x5a); !bytes.Equal(got, want) {
			t.Errorf("WRITE with CommitTail: body intact=%v tail intact=%v",
				bytes.Equal(got[:n-tail], want[:n-tail]), bytes.Equal(got[n-tail:], want[n-tail:]))
		}
	})
	env.Run()
}

// testFetchAdd pins atomic serialization: concurrent fetch-adds from two
// endpoints each observe a unique old value, and the counter sums up.
func testFetchAdd(t *testing.T, env Env) {
	const perActor = 50
	mr := env.T.OpenRegion(env.EP[2], 8)
	q0, _ := env.T.Dial(env.EP[0], env.EP[2])
	q1, _ := env.T.Dial(env.EP[1], env.EP[2])

	olds := make(chan uint64, 2*perActor)
	actor := func(q transport.Queue) func(transport.Ctx) {
		return func(p transport.Ctx) {
			for i := 0; i < perActor; i++ {
				old, ok := q.FetchAdd(p, transport.Addr{MR: mr, Off: 0}, 1)
				if !ok {
					t.Errorf("fetch-add reported failure on a healthy endpoint")
					return
				}
				olds <- old
			}
		}
	}
	env.Go("fa-0", actor(q0))
	env.Go("fa-1", actor(q1))
	env.Run()

	close(olds)
	seen := make(map[uint64]bool)
	for v := range olds {
		if seen[v] {
			t.Errorf("old value %d returned twice (atomics not serialized)", v)
		}
		seen[v] = true
	}
	if len(seen) != 2*perActor {
		t.Errorf("got %d distinct old values, want %d", len(seen), 2*perActor)
	}
	final := make([]byte, 8)
	mr.Load(0, final)
	if got := binary.LittleEndian.Uint64(final); got != 2*perActor {
		t.Errorf("final counter %d, want %d", got, 2*perActor)
	}
}

// testSendRecv pins reliable two-sided semantics: a posted receive gets
// the message; a message sent before any receive is posted is queued,
// not dropped.
func testSendRecv(t *testing.T, env Env) {
	qa, qb := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("sender", func(p transport.Ctx) {
		qa.Send(p, []byte("early-bird"), true, 1)
		if c, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok || c.Op != transport.OpSend {
			t.Errorf("send completion: got (%+v,%v)", c, ok)
		}
	})
	env.Go("receiver", func(p transport.Ctx) {
		// Post the receive well after the send has arrived unmatched;
		// reliable queues must have held the message.
		p.Sleep(50 * time.Millisecond)
		buf := make([]byte, 16)
		qb.PostRecv(buf, 5)
		c, ok := qb.RecvCQ().WaitTimeout(p, waitFor)
		if !ok {
			t.Errorf("early send was lost (reliable queues must queue it)")
			return
		}
		if c.ID != 5 || string(c.Buf[:c.Bytes]) != "early-bird" {
			t.Errorf("recv completion: id=%d payload=%q", c.ID, c.Buf[:c.Bytes])
		}
	})
	env.Run()
}

// testEarlySend pins who owns a SEND's bytes: once the signaled
// completion is out the source buffer is the sender's again, so a message
// still waiting for its receive must not alias it. The sender overwrites
// the buffer after the completion and only then lets the receiver post.
func testEarlySend(t *testing.T, env Env) {
	qa, qb := env.T.Dial(env.EP[0], env.EP[1])
	overwritten := env.T.NewCond()

	env.Go("sender", func(p transport.Ctx) {
		msg := []byte("early-bird")
		qa.Send(p, msg, true, 1)
		if _, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok {
			t.Errorf("send completion lost")
		}
		copy(msg, "XXXXXXXXXX")
		overwritten.Broadcast()
	})
	env.Go("receiver", func(p transport.Ctx) {
		overwritten.Wait(p, 0, waitFor)
		buf := make([]byte, 16)
		qb.PostRecv(buf, 5)
		c, ok := qb.RecvCQ().WaitTimeout(p, waitFor)
		if !ok {
			t.Errorf("early send was lost")
			return
		}
		if got := string(c.Buf[:c.Bytes]); got != "early-bird" {
			t.Errorf("queued send delivered %q, want the bytes it was posted with", got)
		}
	})
	env.Run()
}

// testWriteSourceReuse is the same rule for a WRITE: rewriting the source
// after the signaled completion must not change what landed.
func testWriteSourceReuse(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 16)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])
	overwritten := env.T.NewCond()

	env.Go("writer", func(p transport.Ctx) {
		src := []byte("first-generation")
		qa.Write(p, src, transport.Addr{MR: mr, Off: 0}, transport.WriteOptions{Signaled: true, ID: 1})
		if _, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok {
			t.Errorf("write completion lost")
		}
		copy(src, "second-generatio")
		overwritten.Broadcast()
	})
	env.Go("reader", func(p transport.Ctx) {
		overwritten.Wait(p, 0, waitFor)
		got := make([]byte, 16)
		mr.Load(0, got)
		if string(got) != "first-generation" {
			t.Errorf("region holds %q after the source was rewritten, want the bytes the WRITE was posted with", got)
		}
	})
	env.Run()
}

// testTwoPosters pins RC order per poster on a queue end that two actors
// share (sharedring posts on one link queue from many contexts): each
// posts N unsignaled writes to its own half of a region, then its marker.
// A reader that sees a marker must see every write of that actor.
func testTwoPosters(t *testing.T, env Env) {
	const n, stride = 64, (64 + 1) * 8
	mr := env.T.OpenRegion(env.EP[1], 2*stride)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	for a := 0; a < 2; a++ {
		base := a * stride
		env.Go("poster", func(p transport.Ctx) {
			src := make([]byte, stride)
			for i := 0; i <= n; i++ {
				binary.LittleEndian.PutUint64(src[i*8:], uint64(base+i)+1)
				qa.Write(p, src[i*8:(i+1)*8], transport.Addr{MR: mr, Off: base + i*8}, transport.WriteOptions{})
			}
		})
	}
	env.Go("reader", func(p transport.Ctx) {
		buf := make([]byte, 8)
		load := func(off int) uint64 {
			mr.Load(off, buf)
			return binary.LittleEndian.Uint64(buf)
		}
		deadline := p.Now() + waitFor
		for checked := [2]bool{}; !checked[0] || !checked[1]; {
			for a, base := range [2]int{0, stride} {
				if checked[a] || load(base+n*8) == 0 {
					continue
				}
				checked[a] = true
				for i := 0; i < n; i++ {
					if got := load(base + i*8); got != uint64(base+i)+1 {
						t.Errorf("poster %d slot %d: got %d under its marker, want %d", a, i, got, base+i+1)
					}
				}
			}
			if p.Now() > deadline {
				t.Errorf("markers never became visible: %v", checked)
				return
			}
			mr.WaitChange(p, time.Millisecond)
		}
	})
	env.Run()
}

// testSignaledOnly pins selective signaling: unsignaled writes produce
// no completions; the one signaled write produces exactly one.
func testSignaledOnly(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 64)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		buf := []byte("x")
		for i := 0; i < 10; i++ {
			qa.Write(p, buf, transport.Addr{MR: mr, Off: i}, transport.WriteOptions{})
		}
		qa.Write(p, buf, transport.Addr{MR: mr, Off: 10}, transport.WriteOptions{Signaled: true, ID: 77})
		c, ok := qa.SendCQ().WaitTimeout(p, waitFor)
		if !ok || c.ID != 77 {
			t.Errorf("signaled completion: got (%+v,%v), want ID 77", c, ok)
		}
		// Grace period: any spurious completion from the unsignaled writes
		// would land within it.
		p.Sleep(5 * time.Millisecond)
		if n := qa.SendCQ().Len(); n != 0 {
			t.Errorf("%d spurious completions from unsignaled writes", n)
		}
	})
	env.Run()
}

// testBurstPoll pins burst draining: completions drained with PollBatch
// come back in per-queue posting order — across batch boundaries, on
// partial batches (queue shorter than the burst buffer), and when burst
// drains interleave with single Polls. Burst size deliberately does not
// divide the completion count, so the final drain is partial.
func testBurstPoll(t *testing.T, env Env) {
	const n = 45
	mr := env.T.OpenRegion(env.EP[1], n*8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		src := make([]byte, n*8)
		cq := qa.SendCQ()
		burst := make([]transport.Completion, 7)
		got := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(src[i*8:], uint64(i)+1)
			qa.Write(p, src[i*8:(i+1)*8], transport.Addr{MR: mr, Off: i * 8},
				transport.WriteOptions{Signaled: true, ID: uint64(i) + 1})
		}
		deadline := p.Now() + waitFor
		for len(got) < n {
			if p.Now() > deadline {
				t.Errorf("drained only %d/%d completions before deadline", len(got), n)
				return
			}
			k := cq.PollBatch(p, burst)
			if k > len(burst) {
				t.Errorf("PollBatch wrote %d entries into a buffer of %d", k, len(burst))
				return
			}
			for i := 0; i < k; i++ {
				got = append(got, burst[i].ID)
			}
			// Interleave a single poll after each burst: mixing drain
			// styles must not reorder or duplicate.
			if c, ok := cq.Poll(p); ok {
				got = append(got, c.ID)
			}
			if k == 0 && len(got) < n {
				cq.WaitNonEmpty(p, waitFor)
			}
		}
		for i, id := range got {
			if id != uint64(i)+1 {
				t.Errorf("completion %d: got ID %d, want %d (burst drain broke RC order)", i, id, i+1)
				return
			}
		}
		if cq.PollBatch(p, burst) != 0 {
			t.Errorf("PollBatch on a drained CQ returned entries")
		}
	})
	env.Run()
}

// testReadBack pins one-sided READ: the reader sees bytes the region
// owner stored, both via ReadSync and via an async signaled Read.
func testReadBack(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 16)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])
	mr.Store(0, []byte("remote-bytes!!!!"))

	env.Go("reader", func(p transport.Ctx) {
		dst := make([]byte, 16)
		qa.ReadSync(p, dst, transport.Addr{MR: mr, Off: 0})
		if string(dst) != "remote-bytes!!!!" {
			t.Errorf("ReadSync got %q", dst)
		}
		dst2 := make([]byte, 6)
		qa.Read(p, dst2, transport.Addr{MR: mr, Off: 0}, true, 3)
		c, ok := qa.SendCQ().WaitTimeout(p, waitFor)
		if !ok || c.ID != 3 || c.Op != transport.OpRead {
			t.Errorf("read completion: got (%+v,%v)", c, ok)
			return
		}
		if string(dst2) != "remote" {
			t.Errorf("async read got %q", dst2)
		}
	})
	env.Run()
}

// testReadSyncLeavesCQ pins completion order around ReadSync: it produces
// no completion and takes none off the send CQ, so the signaled WRITEs
// around it drain in posting order. A ReadSync that waits for a
// completion of its own has to take the others off the CQ and put them
// back, and an entry that lands meanwhile then overtakes them.
func testReadSyncLeavesCQ(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("poster", func(p transport.Ctx) {
		src := make([]byte, 4*8) // one slot per WR, stable until its completion
		write := func(id uint64) {
			slot := src[(id-1)*8 : id*8]
			binary.LittleEndian.PutUint64(slot, id)
			qa.Write(p, slot, transport.Addr{MR: mr}, transport.WriteOptions{Signaled: true, ID: id})
		}
		write(1)
		write(2)
		write(3)
		dst := make([]byte, 8)
		qa.ReadSync(p, dst, transport.Addr{MR: mr})
		if got := binary.LittleEndian.Uint64(dst); got != 3 {
			t.Errorf("ReadSync read %d, want 3 (the last WRITE posted before it)", got)
		}
		write(4)
		for id := uint64(1); id <= 4; id++ {
			c, ok := qa.SendCQ().WaitTimeout(p, waitFor)
			if !ok || c.ID != id || c.Op != transport.OpWrite {
				t.Errorf("completion %d is (%+v,%v), want WRITE %d", id, c, ok, id)
				return
			}
		}
		if c, ok := qa.SendCQ().Poll(p); ok {
			t.Errorf("extra completion %+v: want the 4 WRITEs and nothing else", c)
		}
	})
	env.Run()
}

// testMulticastDrop pins UD semantics: a member with a posted receive
// delivers; a member without one drops and counts the loss.
func testMulticastDrop(t *testing.T, env Env) {
	g := env.T.Multicast(env.EP[0], env.EP[1])
	ready := g.Member(0)

	env.Go("sender", func(p transport.Ctx) {
		buf := make([]byte, 32)
		ready.PostRecv(buf, 9)
		// Member 1 posts nothing.
		g.Send(p, env.EP[2], []byte("fanout"), false)
		c, ok := ready.RecvCQ().WaitTimeout(p, waitFor)
		if !ok || string(c.Buf[:c.Bytes]) != "fanout" {
			t.Errorf("member 0 delivery: got (%+v,%v)", c, ok)
		}
	})
	env.Run()

	if got := g.Member(1).DropCount(); got != 1 {
		t.Errorf("member 1 drops = %d, want 1 (no posted receive)", got)
	}
	if got := g.Member(1).RecvCQ().Len(); got != 0 {
		t.Errorf("member 1 has %d completions, want 0", got)
	}
}

// testGroupDetachReattach pins group membership changes: a detached
// member gets nothing and counts no drop; Reattach gives the slot a
// fresh endpoint that does not inherit the old one's posted receives;
// the next send reaches the fresh endpoint.
func testGroupDetachReattach(t *testing.T, env Env) {
	g := env.T.Multicast(env.EP[0], env.EP[1])
	stay, old := g.Member(0), g.Member(1)
	old.PostRecv(make([]byte, 32), 1)

	env.Go("sender", func(p transport.Ctx) {
		// send delivers msg and returns once member 0 has it, plus a grace
		// period for any delivery to member 1 to land.
		send := func(msg string) {
			stay.PostRecv(make([]byte, 32), 0)
			g.Send(p, env.EP[2], []byte(msg), false)
			if c, ok := stay.RecvCQ().WaitTimeout(p, waitFor); !ok || string(c.Buf[:c.Bytes]) != msg {
				t.Errorf("member 0 delivery of %q: got (%+v,%v)", msg, c, ok)
			}
			p.Sleep(5 * time.Millisecond)
		}

		g.Detach(1)
		send("detached")
		if n, d := old.RecvCQ().Len(), old.DropCount(); n != 0 || d != 0 {
			t.Errorf("detached member: %d completions, %d drops, want 0 and 0", n, d)
		}

		fresh := g.Reattach(1, env.EP[1])
		if fresh.Owner() != env.EP[1] {
			t.Errorf("reattached endpoint is owned by %v, want endpoint %d", fresh.Owner().ID(), env.EP[1].ID())
		}
		if g.Member(1) != fresh {
			t.Errorf("Member(1) is not the endpoint Reattach returned")
		}
		send("no-recv")
		if d := fresh.DropCount(); d != 1 {
			t.Errorf("fresh endpoint without a posted receive: %d drops, want 1 (the old endpoint's receive is not its own)", d)
		}
		if n := old.RecvCQ().Len(); n != 0 {
			t.Errorf("old endpoint got %d completions after Reattach, want 0", n)
		}

		fresh.PostRecv(make([]byte, 32), 2)
		send("reattached")
		c, ok := fresh.RecvCQ().WaitTimeout(p, waitFor)
		if !ok || c.ID != 2 || string(c.Buf[:c.Bytes]) != "reattached" {
			t.Errorf("reattached member delivery: got (%+v,%v)", c, ok)
		}
	})
	env.Run()
}

// testCondSeq pins the sequence-counted Cond: a Broadcast that lands
// between a waiter's Seq snapshot and its Wait is not lost, a Wait with
// no Broadcast times out, and a parked waiter is woken by Broadcast.
func testCondSeq(t *testing.T, env Env) {
	c := env.T.NewCond()
	ready := env.T.NewCond()
	env.Go("waiter", func(p transport.Ctx) {
		since := c.Seq()
		c.Broadcast()
		start := p.Now()
		if !c.Wait(p, since, waitFor) || p.Now()-start >= waitFor {
			t.Errorf("Wait slept through a Broadcast made after the Seq snapshot")
		}
		if c.Wait(p, c.Seq(), time.Millisecond) {
			t.Errorf("Wait reported a wake-up nobody sent")
		}
		since = c.Seq()
		ready.Broadcast()
		if !c.Wait(p, since, waitFor) || c.Seq() != since+1 {
			t.Errorf("parked waiter not woken by Broadcast (seq %d, snapshot %d)", c.Seq(), since)
		}
	})
	env.Go("waker", func(p transport.Ctx) {
		ready.Wait(p, 0, waitFor)
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	env.Run()
}

// testRegionNotify pins Region.Notify: it counts as a commit, so a
// poller parked in WaitCommit wakes without any remote verb.
func testRegionNotify(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 8)
	env.Go("poller", func(p transport.Ctx) {
		since := mr.CommitSeq()
		start := p.Now()
		if !mr.WaitCommit(p, since, waitFor) || p.Now()-start >= waitFor {
			t.Errorf("WaitCommit slept through Notify")
		}
		if mr.CommitSeq() != since+1 {
			t.Errorf("Notify moved the commit count by %d, want 1", mr.CommitSeq()-since)
		}
	})
	env.Go("owner", func(p transport.Ctx) {
		p.Sleep(time.Millisecond)
		mr.Notify()
	})
	env.Run()
}
