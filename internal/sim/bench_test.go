package sim

import (
	"fmt"
	"testing"
	"time"
)

// The sim line of the performance ledger: what one process switch, one
// parked sleep, one timed wait and one wake with a post-wake sleep cost on
// the host, alone and behind a deep heap of far-future events. One op is
// one of those, so ns/op compares directly across commits. Run with
// -cpu 1,2: a coroutine switch never wakes an idle core, so the two
// readings agreeing is the check (the channel hand-off this replaced cost
// more on two Ps than on one). `make bench-smoke` keeps these running;
// TestSwitchesAllocateNothing gates their allocations.

// BenchmarkProcSwitch: two processes ping-pong through one Cond. Every
// Signal+Wait is one wake event and one process switch, nothing else.
func BenchmarkProcSwitch(b *testing.B) {
	k := New(1)
	c := NewCond(k)
	rounds := (b.N + 1) / 2
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < rounds; i++ {
				c.Signal()
				c.Wait(p)
			}
			c.Signal() // release the peer's last Wait
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(2*rounds)/b.Elapsed().Seconds(), "switches/s")
}

// BenchmarkSleepPark: 64 processes with staggered periods, so nearly every
// Sleep finds another process's timer ahead of its own and has to park.
// One op is one Sleep (a timer event, a wake event and a switch).
func BenchmarkSleepPark(b *testing.B) {
	const procs = 64
	k := New(1)
	each := (b.N + procs - 1) / procs
	for i := 0; i < procs; i++ {
		d := Time(100+i) * time.Nanosecond
		k.Spawn(fmt.Sprint("s", i), func(p *Proc) {
			for n := 0; n < each; n++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkWaitTimeoutWake: one timed wait per op, ended by a scheduled
// Signal (the deadline is cancelled) or by the deadline itself.
func BenchmarkWaitTimeoutWake(b *testing.B) {
	for _, signalled := range []bool{true, false} {
		name := "timeout"
		if signalled {
			name = "signal"
		}
		b.Run(name, func(b *testing.B) {
			k := New(1)
			c := NewCond(k)
			signal := c.Signal
			k.Spawn("waiter", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					if signalled {
						k.After(100*time.Nanosecond, signal)
					}
					if c.WaitTimeout(p, 200*time.Nanosecond) != signalled {
						b.Error("wrong side won the race")
						return
					}
				}
			})
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWaitThenWake: a Cond ping-pong in which each side sleeps 40 ns
// after its wake — a fabric poller's detection or poll cost — beside a
// ticker whose 30 ns timer is always pending ahead of that sleep, so the
// sleep cannot advance the clock in place. "wait+sleep" resumes the woken
// side and parks it again on its timer (Wait, then Sleep); "waitthen"
// leaves the sleep to the kernel (WaitThen), which queues the timer when
// the wake pops. One op is one wake and its sleep; switches/op reads
// Kernel.Switches per op (ticker hand-offs included).
func BenchmarkWaitThenWake(b *testing.B) {
	for _, kernelThen := range []bool{false, true} {
		name := "wait+sleep"
		if kernelThen {
			name = "waitthen"
		}
		b.Run(name, func(b *testing.B) {
			const d = 40 * time.Nanosecond
			k := New(1)
			c := NewCond(k)
			rounds := (b.N + 1) / 2
			live := 2
			for _, name := range []string{"ping", "pong"} {
				k.Spawn(name, func(p *Proc) {
					defer func() { live-- }()
					for i := 0; i < rounds; i++ {
						c.Signal()
						if kernelThen {
							c.WaitThen(p, d)
						} else {
							c.Wait(p)
							p.Sleep(d)
						}
					}
					c.Signal() // release the peer's last Wait
				})
			}
			k.Spawn("ticker", func(p *Proc) {
				for live > 0 {
					p.Sleep(30 * time.Nanosecond)
				}
			})
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(k.Switches())/float64(2*rounds), "switches/op")
		})
	}
}

// farOp stands in for a fabric op step: each firing reschedules it one
// horizon ahead, so the heap keeps its depth for as long as the load runs.
type farOp struct {
	k       *Kernel
	horizon Time
	stop    *bool
}

func (f *farOp) RunOp(arg uint64) {
	if !*f.stop {
		f.k.AtOp(f.k.Now()+f.horizon, f, arg)
	}
}

// BenchmarkSwitchBehindDeepHeap: the shape of a 256-flow fleet's kernel,
// where about 16 k far-future fabric op steps sit in the heap while
// processes wake each other at the present instant. A Cond ping-pong
// (one side sleeping between rounds) and eight staggered sleepers run
// under 16 384 pending AtOp events spread over a 16 ms horizon, so one
// of them fires and reschedules itself every microsecond of virtual
// time. One op is one blocking call — a Wait or a Sleep — and each one
// pushes the wake or timer of a present or near instant; the heap's
// depth is what it costs to reach.
func BenchmarkSwitchBehindDeepHeap(b *testing.B) {
	const (
		pending  = 16384
		spacing  = time.Microsecond
		sleepers = 8
	)
	k := New(1)
	stop := false
	op := &farOp{k: k, horizon: pending * spacing, stop: &stop}
	for i := 0; i < pending; i++ {
		k.AtOp(Time(i+1)*spacing, op, uint64(i))
	}
	live := 2 + sleepers
	exit := func() {
		if live--; live == 0 {
			b.StopTimer() // the far-future events drain untimed
			stop = true
		}
	}
	c := NewCond(k)
	rounds := (b.N + 3) / 4
	for i, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			defer exit()
			for r := 0; r < rounds; r++ {
				if i == 0 {
					p.Sleep(50 * time.Nanosecond)
				}
				c.Signal()
				c.Wait(p)
			}
			c.Signal() // release the peer's last Wait
		})
	}
	each := (rounds + sleepers - 1) / sleepers
	for i := 0; i < sleepers; i++ {
		d := Time(100+7*i) * time.Nanosecond
		k.Spawn(fmt.Sprint("s", i), func(p *Proc) {
			defer exit()
			for n := 0; n < each; n++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
