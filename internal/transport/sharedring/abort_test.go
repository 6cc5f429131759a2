package sharedring

import (
	"errors"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
)

// TestSendGivesUpOnAbort holds a ring full — the receiver never pumps —
// and flips the stream's abort at a known virtual time. The blocked Send
// must stay blocked until then, return ErrStreamClosed within one
// creditPoll after it (a lone sender re-reads the release counter once
// per READ round trip, shorter than creditPoll on the default fabric),
// and acquire no slot; Close, which goes through Send, gives up at once.
// The books stay balanced throughout. A Send that never gives up runs
// into MaxEvents.
func TestSendGivesUpOnAbort(t *testing.T) {
	const slots = 4
	const flipAt = 50 * time.Microsecond
	k := sim.New(1)
	k.MaxEvents = 100_000
	c := fabric.NewCluster(k, 2, fabric.DefaultConfig())
	pool := PoolOf(c, Config{SlotPayload: 64, Slots: slots})
	defer DropPool(c)

	aborted := false
	var flipped, returned time.Duration
	var sendErr, closeErr error
	var st *Stream
	k.Spawn("send", func(p *sim.Proc) {
		var err error
		st, err = pool.OpenStream(c.Node(0), c.Node(1), "full/0/0", "t", 1, func() bool { return aborted })
		if err != nil {
			sendErr = err
			return
		}
		for i := 0; i < slots; i++ {
			if err := st.Send(p, []byte{byte(i)}, false); err != nil {
				sendErr = err
				return
			}
		}
		sendErr = st.Send(p, []byte{slots}, false) // the ring is full
		returned = p.Now()
		closeErr = st.Close(p)
		if p.Now() != returned {
			t.Errorf("Close after abort took %v", p.Now()-returned)
		}
	})
	k.Spawn("abort", func(p *sim.Proc) {
		p.Sleep(flipAt)
		aborted = true
		flipped = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	if !errors.Is(sendErr, ErrStreamClosed) || !errors.Is(closeErr, ErrStreamClosed) {
		t.Fatalf("Send = %v, Close = %v; want ErrStreamClosed from both", sendErr, closeErr)
	}
	if returned < flipped || returned-flipped > creditPoll {
		t.Errorf("Send returned at %v, abort flipped at %v: want within %v after the flip", returned, flipped, creditPoll)
	}
	if got := pool.Tenant("t").Acquired.Load(); got != slots {
		t.Errorf("tenant acquired %d slots, want %d: an aborted Send must acquire none", got, slots)
	}
	if st.Inflight() != slots {
		t.Errorf("stream holds %d slots, want %d", st.Inflight(), slots)
	}
	if err := pool.link(c.Node(0), c.Node(1)).CheckConservation(); err != nil {
		t.Error(err)
	}
}
