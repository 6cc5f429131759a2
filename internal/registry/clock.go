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
// tells the arms apart (see leaseTimer). Its method set is the kernel's
// pooled-event interface, so desClock schedules it without a closure.
type timerOp interface{ RunOp(arg uint64) }

// wallClock is the clock of a registry shared by real goroutines.
type wallClock struct {
	start time.Time
	cond  *sync.Cond // on the monitor's mutex
}

func (c *wallClock) now() time.Duration { return time.Since(c.start) }
func (c *wallClock) wait(transport.Ctx) { c.cond.Wait() }
func (c *wallClock) broadcast()         { c.cond.Broadcast() }

func (c *wallClock) after(d time.Duration, op timerOp, arg uint64) {
	time.AfterFunc(d, func() { op.RunOp(arg) })
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
