package sim

// This file provides the blocking primitives simulated processes use to
// coordinate: conditions, counting resources, wait groups, and barriers.
// Each is bound to one kernel and used only from that kernel's process or
// scheduler context; none is locked (one stack runs at a time, see Kernel).

// Cond is a condition variable for simulated processes. Unlike sync.Cond it
// needs no external mutex: the simulation is single-threaded, so check-then-
// wait sequences are atomic with respect to other processes.
type Cond struct {
	k       *Kernel
	waiters []condWaiter
}

// condWaiter records a parked process and the park generation its wake must
// target; storing the pair (rather than a wake closure) keeps Wait
// allocation-free.
type condWaiter struct {
	p   *Proc
	gen uint64
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks p until Signal or Broadcast wakes it. As with any condition
// variable, callers must re-check their predicate after waking.
func (c *Cond) Wait(p *Proc) { c.WaitThen(p, 0) }

// WaitThen is Wait followed by p.Sleep(d): p resumes d after the wake
// pops. The kernel runs that sleep when the wake pops, without resuming
// p in between, so a wake-then-delay costs one process switch instead of
// two; the dispatch order, Events() and the clock are those of Wait and
// Sleep. It fits a caller whose code between the wake and the sleep reads
// nothing that the sleep could change the outcome of — a fixed detection
// or poll cost charged on every wake.
func (c *Cond) WaitThen(p *Proc, d Time) {
	p.checkRunning()
	c.waiters = append(c.waiters, condWaiter{p: p, gen: p.nextGen()})
	p.then = d
	p.park()
}

// WaitTimeout parks p until a wake-up or until d elapses, whichever comes
// first. It reports whether the process was woken by Signal/Broadcast
// (true) rather than by the timeout (false).
func (c *Cond) WaitTimeout(p *Proc, d Time) bool { return c.WaitTimeoutThen(p, d, 0) }

// WaitTimeoutThen is WaitTimeout whose signalled wake is followed by
// p.Sleep(then), run by the kernel as in WaitThen. A wait that times out
// returns false at once, with no sleep.
func (c *Cond) WaitTimeoutThen(p *Proc, d, then Time) bool {
	p.checkRunning()
	gen := p.nextGen()
	c.waiters = append(c.waiters, condWaiter{p: p, gen: gen})
	p.k.tmoPush(timeout{at: p.k.now + d, gen: gen, p: p})
	p.timedOut = false
	p.then = then
	p.park()
	if p.timedOut {
		p.timedOut = false
		c.remove(p)
		return false
	}
	if p.tmoIdx >= 0 {
		// Signal won the race: cancel the pending deadline so it does not
		// linger in the heap until it would have expired. (A post-wake
		// sleep already cancelled it when the wake popped.)
		p.k.tmoRemove(p.tmoIdx)
	}
	return true
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w.p == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes one waiting process, if any. The waiter slice keeps its
// capacity (copy-down rather than reslice) so wait/wake cycles in steady
// state never reallocate it.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = condWaiter{}
	c.waiters = c.waiters[:n]
	c.k.ready(w.p, w.gen)
}

// Broadcast wakes all waiting processes. The waiter slice is truncated in
// place, keeping its capacity for the next wait cycle. Safe to iterate
// while waking: ready only queues an event, it cannot re-enter the
// condition.
func (c *Cond) Broadcast() {
	ws := c.waiters
	for i := range ws {
		c.k.ready(ws[i].p, ws[i].gen)
		ws[i] = condWaiter{}
	}
	c.waiters = ws[:0]
}

// Waiters returns the number of processes currently blocked on the
// condition.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Resource models a server with fixed capacity and a FIFO queue, e.g. a
// latch (capacity 1) or a pool of service slots. Acquire blocks until a
// unit is free.
type Resource struct {
	k     *Kernel
	cap   int
	inUse int
	queue *Cond
	name  string
}

// NewResource returns a resource with the given capacity.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, cap: capacity, queue: NewCond(k), name: name}
}

// Acquire claims one unit, blocking FIFO while none is free.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.cap {
		r.queue.Wait(p)
	}
	r.inUse++
}

// TryAcquire claims a unit without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.cap {
		return false
	}
	r.inUse++
	return true
}

// Release returns one unit and wakes the next waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	r.queue.Signal()
}

// Use acquires a unit, holds it for d of virtual time, and releases it.
// This models serialized service (e.g. a latch held for a critical
// section).
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// WaitGroup mirrors sync.WaitGroup for simulated processes.
type WaitGroup struct {
	k     *Kernel
	count int
	cond  *Cond
}

// NewWaitGroup returns a wait group bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k, cond: NewCond(k)} }

// Add adjusts the counter by delta; a negative result panics.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.cond.Wait(p)
	}
}

// Barrier blocks n processes until all have arrived, then releases them
// together — the bulk-synchronous primitive used by the mini-MPI substrate.
type Barrier struct {
	k       *Kernel
	n       int
	arrived int
	gen     uint64
	cond    *Cond
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier requires at least one party")
	}
	return &Barrier{k: k, n: n, cond: NewCond(k)}
}

// Await blocks until all n parties have called Await, then all proceed.
// The barrier is reusable (generation-counted).
func (b *Barrier) Await(p *Proc) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for b.gen == gen {
		b.cond.Wait(p)
	}
}
