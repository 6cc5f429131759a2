package chanloop_test

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// pair is the fixture of the tests below: two endpoints, a queue pair
// between them and a region on the second.
type pair struct {
	net    *chanloop.Net
	p      transport.Ctx
	qa, qb transport.Queue
	mr     transport.Region
}

func newPair(size int) pair {
	net := chanloop.New()
	a, b := net.NewEndpoint(), net.NewEndpoint()
	qa, qb := net.Dial(a, b)
	return pair{net: net, p: net.NewCtx(), qa: qa, qb: qb, mr: net.OpenRegion(b, size)}
}

// TestDialStartsNoGoroutine pins that a queue pair owns no goroutine:
// the poster executes every verb, so a hundred dialed and used pairs
// leave the goroutine count where it was. There is no Close to reap a
// per-queue worker with, so a backend that starts one fails here.
func TestDialStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		f := newPair(64)
		buf := make([]byte, 16)
		f.qa.Write(f.p, buf, transport.Addr{MR: f.mr}, transport.WriteOptions{Signaled: true, ID: 1})
		f.qa.Read(f.p, buf, transport.Addr{MR: f.mr}, true, 2)
		f.qa.FetchAdd(f.p, transport.Addr{MR: f.mr, Off: 16}, 1)
		f.qb.PostRecv(make([]byte, 16), 3)
		f.qa.Send(f.p, buf, true, 4)
		if n := f.qa.SendCQ().Len(); n != 3 {
			t.Fatalf("pair %d: %d send completions, want 3", i, n)
		}
		if c, ok := f.qb.RecvCQ().Poll(f.p); !ok || c.ID != 3 || c.Value != 4 {
			t.Fatalf("pair %d: recv completion (%+v,%v)", i, c, ok)
		}
	}
	// Fewer is fine: an earlier test's goroutine may have been on its way out.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 100 Dials, %d after", before, after)
	}
}

// TestVerbsAllocateNothing is the allocation gate of the backend: once
// the CQs have their backing arrays, a verb and the poll that takes its
// completion allocate nothing, and neither does a commit, a store or a
// load that finds nobody waiting, or a wait whose context has parked
// before.
func TestVerbsAllocateNothing(t *testing.T) {
	const seg, tail, runs = 8192 + 16, 16, 200
	f := newPair(seg)
	src := make([]byte, seg)
	small := make([]byte, 16)
	out := make([]transport.Completion, 4)
	scq := f.qa.SendCQ()

	// Group with two members and enough posted receives for every run
	// (AllocsPerRun makes one warm-up call on top of runs).
	g := f.net.Multicast(f.net.NewEndpoint(), f.net.NewEndpoint())
	sender := f.net.NewEndpoint()
	for m := 0; m < 2; m++ {
		for i := 0; i <= runs; i++ {
			g.Member(m).PostRecv(make([]byte, 16), uint64(i))
		}
	}

	seq := uint64(0)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Write8K+PollBatch", func() {
			seq++ // fresh bytes every time, as a ring slot gets
			binary.LittleEndian.PutUint64(src, seq)
			binary.LittleEndian.PutUint64(src[seg-8:], seq)
			f.qa.Write(f.p, src, transport.Addr{MR: f.mr}, transport.WriteOptions{CommitTail: tail, Signaled: true, ID: seq})
			if n := scq.PollBatch(f.p, out); n != 1 || out[0].ID != seq {
				t.Fatalf("write %d: polled %d completions %+v", seq, n, out[:n])
			}
		}},
		{"Read16+Poll", func() {
			f.qa.Read(f.p, small, transport.Addr{MR: f.mr}, true, 9)
			if c, ok := scq.Poll(f.p); !ok || c.ID != 9 {
				t.Fatalf("read completion (%+v,%v)", c, ok)
			}
		}},
		{"FetchAdd", func() { f.qa.FetchAdd(f.p, transport.Addr{MR: f.mr, Off: 64}, 1) }},
		{"Store+Load+Notify", func() {
			f.mr.Store(128, small)
			f.mr.Load(128, small)
			f.mr.Notify()
		}},
		{"WaitCommit that parks", func() {
			// Its first park made the context's wake channel and timer.
			f.mr.WaitCommit(f.p, f.mr.CommitSeq(), time.Microsecond)
		}},
		{"GroupSend", func() {
			g.Send(f.p, sender, small, false)
			for m := 0; m < 2; m++ {
				if _, ok := g.Member(m).RecvCQ().Poll(f.p); !ok {
					t.Fatalf("member %d got no message", m)
				}
			}
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(runs, tc.fn); got != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, got)
		}
	}
}
