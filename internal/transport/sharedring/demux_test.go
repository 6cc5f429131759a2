package sharedring_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// Tests of the leader/followers demultiplexer: one commit wakes the
// leader and the owner of the committed slot, not every consumer on the
// link; leadership survives every way a leader can leave; and no
// interleaving of commit, staging check and wait loses a wake-up.

// streamLoad moves segs segments over each of nStreams streams of one
// link, one sender and one consumer context per stream, and returns the
// link. Every stream must end cleanly.
func streamLoad(t testing.TB, e env, pool *sharedring.Pool, nStreams, segs, fill int) *sharedring.Link {
	t.Helper()
	var bad atomic.Int32
	for s := 0; s < nStreams; s++ {
		key := fmt.Sprintf("load%d/0/0", s)
		e.gof("send", func(p transport.Ctx) {
			st, err := pool.OpenStream(e.ep[0], e.ep[1], key, "t", 1, nil)
			if err != nil {
				bad.Add(1)
				return
			}
			buf := make([]byte, fill)
			for k := 0; k < segs; k++ {
				if st.Send(p, buf, false) != nil {
					bad.Add(1)
					return
				}
			}
			if st.Close(p) != nil {
				bad.Add(1)
			}
		})
		e.gof("recv", func(p transport.Ctx) {
			rcv := pool.Receiver(e.ep[0], e.ep[1])
			tag := pool.Tag(key)
			got := 0
			for {
				_, stc := rcv.Recv(p, tag, waitFor)
				if stc == sharedring.RecvSeg {
					got++
					continue
				}
				if stc != sharedring.RecvEnd || got != segs {
					bad.Add(1)
				}
				return
			}
		})
	}
	e.run()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d of %d streams failed to send, receive or end", n, nStreams)
	}
	return pool.Receiver(e.ep[0], e.ep[1]).Link()
}

// TestSharedRingWakeScaling pins the point of the demultiplexer on the
// DES, where every wake-up is a kernel event: the events (and consumer
// wake-ups) spent per delivered segment with 64 streams sharing a link
// stay within a quarter of what 2 streams cost. With a broadcast per
// commit they grow with the stream count — 64 streams cost nearly
// eight times what 2 do.
func TestSharedRingWakeScaling(t *testing.T) {
	const total = 4096
	perSegment := func(nStreams int) (events, wakeups float64) {
		k := sim.New(1)
		c := fabric.NewCluster(k, 2, fabric.DefaultConfig())
		e := env{
			t:   c,
			ep:  []transport.Endpoint{c.Node(0), c.Node(1)},
			gof: func(name string, fn func(transport.Ctx)) { k.Spawn(name, func(p *sim.Proc) { fn(p) }) },
			run: func() { k.Run() },
		}
		pool := sharedring.PoolOf(c, sharedring.Config{SlotPayload: 256})
		defer sharedring.DropPool(c)
		link := streamLoad(t, e, pool, nStreams, total/nStreams, 256)
		return float64(k.Events()) / total, float64(link.Wakeups()) / total
	}
	ev2, wk2 := perSegment(2)
	ev64, wk64 := perSegment(64)
	t.Logf("per segment: 2 streams %.2f events %.2f wake-ups; 64 streams %.2f events %.2f wake-ups", ev2, wk2, ev64, wk64)
	if ev64 > 1.25*ev2 {
		t.Errorf("kernel events per segment grow with streams per link: %.2f at 64 streams, %.2f at 2", ev64, ev2)
	}
	if wk64 > 1.25*wk2 {
		t.Errorf("consumer wake-ups per segment grow with streams per link: %.2f at 64 streams, %.2f at 2", wk64, wk2)
	}
}

// TestSharedRingLeaderHandoff parks one leader and several followers on
// an idle link, makes the leader leave — by receiving its own segment,
// by having its tag dropped under it, by timing out — and then commits
// one segment per follower, oldest waiter last. Each must arrive as fast
// as a segment reaches a lone consumer polling its own ring (flight
// time plus one DetectDelay on the DES; well inside a second on
// chanloop), never a poll interval late: every departure has to hand
// the ring to a follower that re-arms the commit wait. A dropped leader
// must itself return at once.
func TestSharedRingLeaderHandoff(t *testing.T) {
	const (
		followers = 5
		poll      = 10 * time.Second // every waiter's budget; nothing may take this long
	)
	detect := fabric.DefaultConfig().DetectDelay
	for name, mk := range backends(2) {
		// gap spaces the script's steps so that each has settled before
		// the next (wall-clock on chanloop, hence the wider spacing);
		// limit is the yardstick: on the DES, the send→receive latency of
		// one consumer alone on a link, measured here, plus one
		// DetectDelay.
		gap, limit := 2*time.Millisecond, time.Second
		if name == "fabric" {
			gap = 20 * time.Microsecond
			e := mk()
			pool := sharedring.PoolOf(e.t, sharedring.Config{SlotPayload: 64, Slots: 8})
			var sent, got time.Duration
			e.gof("send", func(p transport.Ctx) {
				st, _ := pool.OpenStream(e.ep[0], e.ep[1], "lone/0/0", "t", 1, nil)
				p.Sleep(gap)
				sent = p.Now()
				st.Send(p, make([]byte, 64), false)
			})
			e.gof("recv", func(p transport.Ctx) {
				pool.Receiver(e.ep[0], e.ep[1]).Recv(p, pool.Tag("lone/0/0"), poll)
				got = p.Now()
			})
			e.run()
			sharedring.DropPool(e.t)
			limit = got - sent + detect
		}
		for _, exit := range []string{"segment", "dropped", "timeout"} {
			t.Run(name+"/"+exit, func(t *testing.T) {
				e := mk()
				pool := sharedring.PoolOf(e.t, sharedring.Config{SlotPayload: 64, Slots: 8})
				defer sharedring.DropPool(e.t)
				rcv := pool.Receiver(e.ep[0], e.ep[1])
				key := func(i int) string { return fmt.Sprintf("h%d/0/0", i) } // 0 is the leader
				var (
					parked     atomic.Int32
					sentAt     [followers + 1]time.Duration
					gotAt      [followers + 1]time.Duration
					status     [followers + 1]sharedring.RecvStatus
					leaderWait = poll
				)
				if exit == "timeout" {
					leaderWait = 3 * gap
				}
				for i := 0; i <= followers; i++ {
					i := i
					e.gof("recv", func(p transport.Ctx) {
						// Park in index order: 0 leads, 1 is the oldest follower.
						for int(parked.Load()) != i {
							p.Sleep(time.Microsecond)
						}
						parked.Add(1)
						w := poll
						if i == 0 {
							w = leaderWait
						}
						_, status[i] = rcv.Recv(p, pool.Tag(key(i)), w)
						gotAt[i] = p.Now()
					})
				}
				e.gof("send", func(p transport.Ctx) {
					streams := make([]*sharedring.Stream, followers+1)
					for i := range streams {
						streams[i], _ = pool.OpenStream(e.ep[0], e.ep[1], key(i), "t", 1, nil)
					}
					for int(parked.Load()) <= followers {
						p.Sleep(time.Microsecond)
					}
					p.Sleep(gap) // the last consumer is inside Recv by now
					buf := make([]byte, 64)
					sentAt[0] = p.Now()
					switch exit {
					case "segment":
						streams[0].Send(p, buf, false)
					case "dropped":
						rcv.Drop(pool.Tag(key(0)))
					}
					p.Sleep(4 * gap)
					for i := followers; i >= 1; i-- {
						sentAt[i] = p.Now()
						streams[i].Send(p, buf, false)
						p.Sleep(gap)
					}
				})
				e.run()

				want := map[string]sharedring.RecvStatus{
					"segment": sharedring.RecvSeg, "dropped": sharedring.RecvDropped, "timeout": sharedring.RecvIdle,
				}[exit]
				if status[0] != want {
					t.Errorf("leader left with status %d, want %d", status[0], want)
				}
				if exit != "timeout" && gotAt[0]-sentAt[0] > limit {
					t.Errorf("leader learned of its %s after %v, want within %v", exit, gotAt[0]-sentAt[0], limit)
				}
				for i := 1; i <= followers; i++ {
					if status[i] != sharedring.RecvSeg {
						t.Errorf("follower %d: status %d, want a segment", i, status[i])
					}
					if lat := gotAt[i] - sentAt[i]; lat > limit {
						t.Errorf("follower %d waited %v for its segment after the leader left (%s), want within %v", i, lat, exit, limit)
					}
				}
			})
		}
	}
}

// TestSharedRingNoLostWakeup is the lost-wake-up hunt, meant for
// chanloop under -race -count=10 (the DES leg pins the same schedule
// deterministically). Each stream's sender commits one segment and then
// waits for its consumer to take it before committing the next, so a
// consumer that misses a wake-up — because the commit or the hand-off
// landed between its look at staging and its wait — can be rescued by
// nothing but its timeout, which the test reports. Consumers spend as
// long as they can between look and wait: they re-enter Recv the moment
// a segment is acknowledged.
func TestSharedRingNoLostWakeup(t *testing.T) {
	const nStreams, segs = 8, 300
	for name, mk := range backends(2) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			pool := sharedring.PoolOf(e.t, sharedring.Config{SlotPayload: 32, Slots: 8})
			defer sharedring.DropPool(e.t)
			var taken [nStreams]atomic.Int32
			var idle, short atomic.Int32
			for s := 0; s < nStreams; s++ {
				s := s
				key := fmt.Sprintf("w%d/0/0", s)
				e.gof("send", func(p transport.Ctx) {
					st, err := pool.OpenStream(e.ep[0], e.ep[1], key, "t", 1, nil)
					if err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 8)
					for k := 0; k < segs; k++ {
						if err := st.Send(p, buf, false); err != nil {
							t.Error(err)
							return
						}
						for deadline := p.Now() + 2*waitFor; int(taken[s].Load()) <= k && p.Now() < deadline; {
							p.Sleep(time.Microsecond)
						}
					}
					st.Close(p)
				})
				e.gof("recv", func(p transport.Ctx) {
					rcv := pool.Receiver(e.ep[0], e.ep[1])
					tag := pool.Tag(key)
					for {
						switch _, stc := rcv.Recv(p, tag, waitFor); stc {
						case sharedring.RecvSeg:
							taken[s].Add(1)
						case sharedring.RecvIdle:
							idle.Add(1)
							taken[s].Add(1) // let the sender move on; the failure is recorded
						default:
							if int(taken[s].Load()) < segs {
								short.Add(1)
							}
							return
						}
					}
				})
			}
			e.run()
			if n := idle.Load(); n != 0 {
				t.Errorf("%d Recv calls waited out their timeout with a segment committed: lost wake-up", n)
			}
			if n := short.Load(); n != 0 {
				t.Errorf("%d streams ended short of %d segments", n, segs)
			}
		})
	}
}

// BenchmarkSharedRingDemux is the ledger's sharedring layer benchmark:
// b.N segments cross one link split over 1, 10 or 1000 streams, each
// with its own sender and consumer context, on both backends. slots/s
// is host throughput of the whole send→demultiplex→receive loop (on the
// DES: how fast the simulation of it runs); wakeups/slot is how many
// times a consumer came back from a wait per delivered slot, which must
// not grow with the stream count.
func BenchmarkSharedRingDemux(b *testing.B) {
	for _, nStreams := range []int{1, 10, 1000} {
		for _, name := range []string{"fabric", "chanloop"} {
			b.Run(fmt.Sprintf("%s/streams=%d", name, nStreams), func(b *testing.B) {
				e := backends(2)[name]()
				pool := sharedring.PoolOf(e.t, sharedring.Config{SlotPayload: 256})
				defer sharedring.DropPool(e.t)
				segs := (b.N + nStreams - 1) / nStreams
				b.ResetTimer()
				link := streamLoad(b, e, pool, nStreams, segs, 256)
				slots := float64(segs * nStreams)
				b.ReportMetric(slots/b.Elapsed().Seconds(), "slots/s")
				b.ReportMetric(float64(link.Wakeups())/slots, "wakeups/slot")
			})
		}
	}
}
