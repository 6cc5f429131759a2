package sim

import (
	"fmt"
	"testing"
	"time"
)

// The sim line of the performance ledger: what one process switch, one
// parked sleep and one timed wait cost on the host. One op is one of
// those, so ns/op compares directly across commits. Run with -cpu 1,2: a
// coroutine switch never wakes an idle core, so the two readings agreeing
// is the check (the channel hand-off this replaced cost more on two Ps
// than on one). `make bench-smoke` keeps these running;
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
