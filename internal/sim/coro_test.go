package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests for what the coroutine hand-off has to keep true: a switch
// allocates nothing, runtime.Goexit in a process ends Run's caller, and an
// exited process hosting the loop can hand on to a process it never met.

// switchLoad spawns seven independent groups on k, each doing n blocking
// operations: a Cond ping-pong (n process switches), a pair of sleepers
// whose timers interleave so every Sleep parks and mostly pops on an
// otherwise quiet instant (the wake is dispatched directly), a waiter
// whose timed waits end alternately by a scheduled Signal and by the
// deadline, a burst that wakes three waiters and schedules two ops at one
// instant (five entries through the current-instant FIFO at once), two
// processes yielding to each other, so that the FIFO never drains while
// they run, and the same ping-pong and timed waiter with a post-wake
// sleep run by the kernel (WaitThen, WaitTimeoutThen).
func switchLoad(k *Kernel, n int) {
	pp := NewCond(k)
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < n/2; i++ {
				pp.Signal()
				pp.Wait(p)
			}
			pp.Signal() // release the peer's last Wait
		})
	}
	for j, name := range []string{"even", "odd"} {
		d := Time(100+j) * time.Nanosecond
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < n/2; i++ {
				p.Sleep(d)
			}
		})
	}
	tc := NewCond(k)
	signal := tc.Signal
	k.Spawn("timed", func(p *Proc) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				k.After(50*time.Nanosecond, signal)
			}
			tc.WaitTimeout(p, 70*time.Nanosecond)
		}
	})
	bc, done := NewCond(k), false
	op := nopOp{}
	k.Spawn("burst", func(p *Proc) {
		for i := 0; i < n/2; i++ {
			k.AtOp(k.Now(), op, 0)
			bc.Broadcast()
			k.AtOp(k.Now(), op, 1)
			p.Sleep(103 * time.Nanosecond)
		}
		done = true
		bc.Broadcast()
	})
	for _, name := range []string{"b0", "b1", "b2"} {
		k.Spawn(name, func(p *Proc) {
			for !done {
				bc.Wait(p)
			}
		})
	}
	for _, name := range []string{"y0", "y1"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < n/2; i++ {
				p.Yield()
			}
		})
	}
	tp := NewCond(k)
	for _, name := range []string{"then-ping", "then-pong"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < n/2; i++ {
				tp.Signal()
				tp.WaitThen(p, 20*time.Nanosecond)
			}
			tp.Signal() // release the peer's last Wait
		})
	}
	ttc := NewCond(k)
	tsignal := ttc.Signal
	k.Spawn("timed-then", func(p *Proc) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				k.After(50*time.Nanosecond, tsignal)
			}
			ttc.WaitTimeoutThen(p, 70*time.Nanosecond, 30*time.Nanosecond)
		}
	})
}

// nopOp is a pooled-op callback that does nothing.
type nopOp struct{}

func (nopOp) RunOp(uint64) {}

// TestSwitchesAllocateNothing is the allocation gate for what
// BenchmarkProcSwitch, SleepPark, WaitTimeoutWake, WaitThenWake and
// SwitchBehindDeepHeap time: once the queues and waiter lists have grown,
// a Run of 70 000 blocking operations mallocs no more than a Run of 700 —
// a constant that does not depend on the count — and the current-instant
// FIFO keeps the backing array the small Run left it.
func TestSwitchesAllocateNothing(t *testing.T) {
	k := New(1)
	mallocs := func(n int) uint64 {
		switchLoad(k, n) // spawning allocates (the coroutines); outside the measurement
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(100) // warm-up
	small := mallocs(100)
	fifo := cap(k.cur)
	large := mallocs(10_000)
	t.Logf("mallocs during Run: %d for 7×100 operations, %d for 7×10 000", small, large)
	const slack = 32 // the test binary's other goroutines
	if large > small+slack {
		t.Errorf("Run of 7×10 000 blocking operations did %d mallocs (7×100: %d): a switch allocates", large, small)
	}
	if c := cap(k.cur); c != fifo {
		t.Errorf("current-instant FIFO grew from %d to %d slots: it must be rewound or compacted, not re-grown", fifo, c)
	}
}

// TestGoexitInProcessEndsRunsCaller pins the Goexit rule documented on
// Spawn: the process's deferred calls run, the kernel's failure names it,
// and the goroutine that called Run ends without Run returning.
func TestGoexitInProcessEndsRunsCaller(t *testing.T) {
	const want = `sim: process "quitter" called runtime.Goexit`
	quitter := func(deferred *bool) func(*Proc) {
		return func(p *Proc) {
			defer func() { *deferred = true }()
			p.Sleep(us) // parks: the Goexit happens after a switch, not on first start
			runtime.Goexit()
		}
	}
	t.Run("kernel", func(t *testing.T) {
		k := New(1)
		deferred, returned := false, false
		k.Spawn("quitter", quitter(&deferred))
		k.Spawn("bystander", func(p *Proc) { p.Sleep(10 * us) })
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = k.Run() // never returns
			returned = true
		}()
		<-done
		if returned {
			t.Error("Run returned to a goroutine whose process called runtime.Goexit")
		}
		if !deferred {
			t.Error("the process's deferred call did not run")
		}
		if k.failure == nil || k.failure.Error() != want {
			t.Errorf("kernel failure = %v, want %q", k.failure, want)
		}
	})
}

// TestExitedHostHandsOnToThirdProcess: a process returns while others are
// parked, so its exit path hosts the loop; the next wake-ups it pops belong
// to processes it did not start and that Run's goroutine last resumed long
// ago. Each hand-off goes exit path → k.to → trampoline, and each of those
// processes in turn exits as host and hands on to the next.
func TestExitedHostHandsOnToThirdProcess(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var log []string
	note := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%v %s %s", p.Now(), p.Name(), what)) }
	for i, name := range []string{"b", "c", "d"} {
		turn := i + 1
		k.Spawn(name, func(p *Proc) {
			for len(log) < turn {
				c.Wait(p)
			}
			p.Sleep(us)
			note(p, "woke and returns")
			c.Broadcast()
		})
	}
	k.Spawn("a", func(p *Proc) {
		p.Sleep(us)
		note(p, "returns")
		c.Broadcast() // b, c and d are parked; a's exit path pops their wakes
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1µs a returns", "2µs b woke and returns", "3µs c woke and returns", "4µs d woke and returns"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("got  %q\nwant %q", log, want)
	}
}
