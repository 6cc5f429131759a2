package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests for where the baton can be when the event loop stops or a callback
// panics: on Run's own goroutine, on the stack of a parked process, of a
// sleeping process (the inline fast path), or of a process that has
// already exited.

const us = time.Microsecond

// TestCallbackPanicIsReportedAsCallbackPanic: whichever stack hosts the
// loop, Run returns the same error, never hangs, and blames no process.
func TestCallbackPanicIsReportedAsCallbackPanic(t *testing.T) {
	const want = "sim: event callback panicked at t=1µs: boom"
	boom := func() { panic("boom") }
	cases := []struct {
		name  string
		setup func(k *Kernel, unwound *bool)
	}{
		{"run-goroutine", func(k *Kernel, _ *bool) {
			k.After(us, boom)
		}},
		{"pooled-op", func(k *Kernel, _ *bool) {
			k.AtOp(us, panicOp{}, 0)
		}},
		{"parked-process", func(k *Kernel, unwound *bool) {
			c := NewCond(k)
			k.Spawn("bystander", func(p *Proc) {
				defer func() { *unwound = true }()
				c.WaitTimeout(p, 10*us)
			})
			k.After(us, boom)
		}},
		{"sleep-inline", func(k *Kernel, _ *bool) {
			k.Spawn("sleeper", func(p *Proc) {
				k.After(us, boom)
				p.Sleep(10 * us) // only a callback is pending: dispatched inline
			})
		}},
		{"exited-process", func(k *Kernel, _ *bool) {
			k.Spawn("gone", func(p *Proc) {})
			k.After(us, boom)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New(1)
			unwound := false
			tc.setup(k, &unwound)
			if err := k.Run(); err == nil || err.Error() != want {
				t.Fatalf("Run() = %v, want %q", err, want)
			}
			if unwound {
				t.Error("the process that hosted the callback was unwound")
			}
		})
	}
}

type panicOp struct{}

func (panicOp) RunOp(uint64) { panic("boom") }

// TestProcessPanicStillNamesTheProcess: the callback label must not leak
// onto an ordinary process panic, even after callbacks ran on its stack.
func TestProcessPanicStillNamesTheProcess(t *testing.T) {
	k := New(1)
	k.Spawn("culprit", func(p *Proc) {
		k.After(us, func() {})
		p.Sleep(2 * us)
		panic("kaput")
	})
	const want = `sim: process "culprit" panicked: kaput`
	if err := k.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

// TestGuardsTripOnAProcessStack: MaxEvents and Deadline are met while a
// parked process hosts the loop; the error text is what Run always returned.
func TestGuardsTripOnAProcessStack(t *testing.T) {
	k := New(1)
	k.MaxEvents = 100
	k.Spawn("spin", func(p *Proc) {
		for {
			p.Yield() // always parks, always wakes itself
		}
	})
	want := "sim: exceeded MaxEvents=100 at t=0s (possible livelock)"
	if err := k.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
	if k.Events() != 100 {
		t.Fatalf("stopped after %d events, want 100", k.Events())
	}

	k = New(1)
	k.Deadline = time.Second
	k.Spawn("long", func(p *Proc) { p.Sleep(time.Hour) })
	want = "sim: deadline 1s exceeded (t=1h0m0s)"
	if err := k.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

// TestDeadlockReportListsSortedParkedNames: the live list is unordered
// (swap-remove); the report is not.
func TestDeadlockReportListsSortedParkedNames(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	for _, name := range []string{"zeta", "early", "alpha", "mid"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			if name == "early" {
				return // leaves a hole in the live list
			}
			p.Sleep(us)
			c.Wait(p)
		})
	}
	want := "sim: deadlock at t=1µs: 3 live processes, parked: [alpha mid zeta]"
	if err := k.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

// TestNoGoroutineLeftAfterCleanRun: every process goroutine ends, including
// those that kept hosting the loop after their function returned and the
// one that found the heaps empty.
func TestNoGoroutineLeftAfterCleanRun(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(1)
	c := NewCond(k)
	for i := 0; i < 32; i++ {
		i := i
		k.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			p.Sleep(Time(i%7) * us)
			if i%3 == 0 {
				c.WaitTimeout(p, Time(i)*us)
			}
			c.Broadcast()
			if i%5 == 0 {
				p.Spawn(fmt.Sprint("child", i), func(c *Proc) { c.Yield() })
			}
		})
	}
	k.After(40*us, func() {}) // the last exited process hosts this callback
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Nothing to wait for: an ended coroutine's goroutine is destroyed in the
	// very switch that returns to the trampoline.
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
