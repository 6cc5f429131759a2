package registry

import (
	"sync"
	"time"

	"dfi/internal/transport"
)

// clock is everything the registry needs from the backend it runs on:
// the time, a one-shot timer, and a way to park a caller until the
// registry's state changes. Every method is called with the monitor
// (Registry.mu) held; wait returns with it held again but parks with it
// released. Two implementations exist: desClock (des.go) on the
// discrete-event kernel and wallClock below on the host's clock.
type clock interface {
	// now is the time since the start of the run.
	now() time.Duration
	// after runs op.RunOp(arg) once, d from now, on nobody's Ctx. The op
	// takes the monitor itself.
	after(d time.Duration, op timerOp, arg uint64)
	// wait parks the caller until the next broadcast.
	wait(p transport.Ctx)
	// broadcast wakes every parked waiter.
	broadcast()
}

// timerOp is a clock callback that one object serves for many arms: arg
// tells the arms apart (see leaseTimer). RunOp is the kernel's
// pooled-event interface, so desClock schedules it without a closure.
// wallClock re-arms the op's one wallTimer.
type timerOp interface {
	RunOp(arg uint64)
	wallTimer() *wallTimer
}

// wallTimer is a timerOp's host timer, made on its first arm and reset
// by every later one; arg and deadline, under the monitor, are the
// latest arm's.
type wallTimer struct {
	t        *time.Timer
	arg      uint64
	deadline time.Duration
}

// wallClock is the clock of a registry shared by real goroutines.
type wallClock struct {
	start time.Time
	cond  *sync.Cond // on the monitor's mutex
}

func (c *wallClock) now() time.Duration { return time.Since(c.start) }
func (c *wallClock) wait(transport.Ctx) { c.cond.Wait() }
func (c *wallClock) broadcast()         { c.cond.Broadcast() }

func (c *wallClock) after(d time.Duration, op timerOp, arg uint64) {
	w := op.wallTimer()
	w.arg, w.deadline = arg, c.now()+d
	if w.t == nil {
		w.t = time.AfterFunc(d, func() { c.fire(w, op) })
		return
	}
	w.t.Reset(d)
}

// fire runs w's latest arm. A fire meant for an earlier arm, racing the
// re-arm that reset the timer, finds the deadline still ahead and leaves
// the run to the timer's next fire.
func (c *wallClock) fire(w *wallTimer, op timerOp) {
	c.cond.L.Lock()
	arg, due := w.arg, c.now() >= w.deadline
	c.cond.L.Unlock()
	if due {
		op.RunOp(arg)
	}
}

// NewLocal creates an empty standalone registry on the wall clock, for
// transports whose contexts are real goroutines
// (dfi/internal/transport/chanloop). It is the same registry New builds —
// leases expire, evictions bump epochs, Status and events work — with
// lease TTLs measured in host time.
func NewLocal() *Registry {
	r := newRegistry()
	r.clk = &wallClock{start: time.Now(), cond: sync.NewCond(&r.mu)}
	return r
}

// sleep charges the caller d of registry latency with the monitor
// released. It and clock.wait are the only places a registry call lets
// go of the monitor, so every stretch of registry code between two of
// them is atomic on either backend.
func (r *Registry) sleep(p transport.Ctx, d time.Duration) {
	if d <= 0 {
		return
	}
	r.mu.Unlock()
	defer r.mu.Lock() // even if Sleep panics: callers unlock on the way out
	p.Sleep(d)
}
