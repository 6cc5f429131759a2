package fabric

import (
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// pingPong runs rounds round trips between two nodes: each side WRITEs 8
// bytes into the other's region and learns of the answer through
// WaitCommit, the way a latency-mode target learns of a segment. Every
// wake is followed by the region's detection delay (80 ns). A third
// process ticks every 50 ns until both sides are done, standing in for
// the rest of a busy node: its timer is always pending inside that delay,
// so the woken side cannot advance the clock in place and has to park on
// a timer.
func pingPong(t *testing.T, rounds int) *sim.Kernel {
	t.Helper()
	k, c := testCluster(t, 2)
	qa, qb := c.Dial(c.Node(0), c.Node(1))
	ma := c.OpenRegion(c.Node(0), 8)
	mb := c.OpenRegion(c.Node(1), 8)
	live := 2
	side := func(q transport.Queue, in, out transport.Region, serve bool) func(*sim.Proc) {
		return func(p *sim.Proc) {
			defer func() { live-- }()
			var msg [8]byte
			for i := 0; i < rounds; i++ {
				seen := in.CommitSeq()
				if !serve {
					q.Write(p, msg[:], transport.Addr{MR: out}, transport.WriteOptions{})
				}
				if !in.WaitCommit(p, seen, time.Millisecond) {
					t.Errorf("round %d: no answer within 1ms", i)
					return
				}
				if serve {
					q.Write(p, msg[:], transport.Addr{MR: out}, transport.WriteOptions{})
				}
			}
		}
	}
	k.Spawn("ping", side(qa, ma, mb, false))
	k.Spawn("pong", side(qb, mb, ma, true))
	k.Spawn("ticker", func(p *sim.Proc) {
		for live > 0 {
			p.Sleep(50 * time.Nanosecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWaitCommitPingPongPinned pins what the kernel-run detection delay
// (Cond.WaitTimeoutThen in WaitCommit) may and may not move. The final
// instant is the one the build that resumed each woken poller only to
// Sleep(DetectDelay) produced, and must not move. The process switches
// fall from that build's 1203 to 803, two fewer per wake: the woken side
// is no longer resumed to park on its timer, so neither that hand-off nor
// the one away from it happens. The events fall from that build's 5795
// to 5595, one fewer per WRITE: its commit copies straight from the
// source, so the stage step that snapshotted it at txEnd is gone.
func TestWaitCommitPingPongPinned(t *testing.T) {
	const (
		rounds   = 100
		events   = 5595
		now      = 109800 * time.Nanosecond
		switches = 803
	)
	k := pingPong(t, rounds)
	if k.Events() != events || k.Now() != now || k.Switches() != switches {
		t.Errorf("Events() = %d, Now() = %v, Switches() = %d; want %d, %v, %d",
			k.Events(), k.Now(), k.Switches(), events, now, switches)
	}
}
