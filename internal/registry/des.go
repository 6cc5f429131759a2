package registry

import (
	"sync"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// desClock is the clock of a registry on the discrete-event kernel:
// virtual time, pooled kernel ops for timers, a sim.Cond for waiters —
// the kernel sees exactly the events it would see without the seam.
type desClock struct {
	k    *sim.Kernel
	cond *sim.Cond
	mu   *sync.Mutex // the monitor, released around a park
}

func (c *desClock) now() time.Duration { return c.k.Now() }
func (c *desClock) broadcast()         { c.cond.Broadcast() }

func (c *desClock) after(d time.Duration, op timerOp, arg uint64) {
	c.k.AtOp(c.k.Now()+d, op, arg)
}

// wait parks the calling sim process. A process parked holding the
// monitor would hang the kernel on the next registry call, so it is let
// go first; nothing else can run between the unlock and the park.
func (c *desClock) wait(p transport.Ctx) {
	c.mu.Unlock()
	defer c.mu.Lock()
	c.cond.Wait(p.(*sim.Proc))
}

// New creates an empty standalone registry bound to k; its callers'
// contexts must be k's processes.
func New(k *sim.Kernel) *Registry {
	r := newRegistry()
	r.clk = &desClock{k: k, cond: sim.NewCond(k), mu: &r.mu}
	return r
}

// NewSharded builds n standalone shards on k (n clamps to at least 1).
func NewSharded(k *sim.Kernel, n int) *Sharded {
	s, _ := ShardedOf(n, func() (*Registry, error) { return New(k), nil })
	return s
}
