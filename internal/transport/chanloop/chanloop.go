// Package chanloop is an in-process transport backend: goroutines,
// mutexes and real []byte movement under wall-clock time, with no
// discrete-event kernel. It implements dfi/internal/transport so the DFI
// data path (core.Source/core.Target) runs on it unmodified — proving
// the flow API is backend-agnostic and rehearsing the concurrency a
// socket or verbs backend will face.
//
// Semantics mirror the DES fabric where the conformance suite
// (dfi/internal/transport/transporttest) pins them:
//
//   - Work requests on one queue execute in posting order (RC ordering):
//     the posting goroutine executes each verb itself, start to finish,
//     under the queue's mutex, so that mutex is the posting order. No
//     goroutine, channel or buffer stands between a poster and the memory
//     it writes; a work request has completed when the posting call
//     returns.
//   - WRITE bodies commit strictly before their CommitTail bytes, the
//     whole segment applied under one region-lock hold; the region's
//     commit counter advances under the same lock, so a consumer that
//     observed a commit (WaitCommit/Load) reads the payload race-free
//     without copying.
//   - Source buffers are snapshotted synchronously at post time — copied
//     straight into their destination. That is valid under the
//     selective-signaling contract (callers must keep a WR's buffer
//     stable until a covering completion) and means local ring reuse
//     needs no extra synchronization.
//   - Atomics are a read-modify-write under the target region's lock,
//     which serializes concurrent fetch-adds from any number of queues.
//   - Multicast is unreliable: a send finding no posted receive at a
//     member is dropped and counted, exactly like UD multicast.
//
// What chanloop does not model: virtual time, fault injection, crashes,
// link bandwidth or CPU cost (Compute is a no-op). Those stay DES-only;
// leases and eviction are the registry's and run on either clock. See
// docs/ARCHITECTURE.md for the backend matrix.
package chanloop

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/transport"
)

// Net is the chanloop backend: a factory for endpoints, queues, regions
// and multicast groups that share the process's memory.
type Net struct {
	start    time.Time
	mu       sync.Mutex
	nextID   int
	nextSeed int64
	tracer   atomic.Pointer[tracerBox]
}

type tracerBox struct{ t transport.Tracer }

// New creates an empty chanloop network.
func New() *Net {
	return &Net{start: time.Now()}
}

// NewEndpoint adds an endpoint (one per simulated node).
func (n *Net) NewEndpoint() *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &Endpoint{net: n, id: n.nextID}
	n.nextID++
	return ep
}

// NewCtx returns a fresh execution context owned by the calling
// goroutine — the wall-clock analogue of a root sim process.
func (n *Net) NewCtx() transport.Ctx {
	n.mu.Lock()
	seed := n.nextSeed
	n.nextSeed++
	n.mu.Unlock()
	return &ctx{net: n, seed: seed}
}

// SetTracer installs t to observe every verb (nil disables).
func (n *Net) SetTracer(t transport.Tracer) {
	if t == nil {
		n.tracer.Store(nil)
		return
	}
	n.tracer.Store(&tracerBox{t: t})
}

// trace reports a verb posted at posted and executed by now to the
// installed tracer. Posting goroutines call it concurrently; the bundled
// Recorder is mutex-guarded.
func (n *Net) trace(kind transport.OpKind, from, to int, bytes int, posted time.Duration) {
	box := n.tracer.Load()
	if box == nil || box.t == nil {
		return
	}
	box.t.Trace(transport.TraceOp{
		Kind: kind, From: from, To: to, Bytes: bytes,
		Posted: posted, Arrived: n.now(), Disposition: transport.Delivered,
	})
}

func (n *Net) now() time.Duration { return time.Since(n.start) }

// stamp is the posting time a verb hands to trace: the clock when
// somebody traces, zero — and no clock read — when nobody does.
func (n *Net) stamp() time.Duration {
	if n.tracer.Load() == nil {
		return 0
	}
	return n.now()
}

// Spawn starts fn on a new goroutine with its own context.
func (n *Net) Spawn(parent transport.Ctx, name string, fn func(transport.Ctx)) {
	c := n.NewCtx()
	go fn(c)
}

// NewCond returns a condition variable for goroutine contexts.
func (n *Net) NewCond() transport.Cond { return &cond{} }

// ctx is a wall-clock execution context owned by one goroutine, which is
// why its lazily built parts need no lock.
type ctx struct {
	net   *Net
	seed  int64
	rnd   *rand.Rand    // built on the first Rand: seeding costs ~10µs and 5 KB
	wake  chan struct{} // what a parked wait sleeps on: one token wakes it
	timer *time.Timer   // bounds this context's parked waits, one at a time
}

func (c *ctx) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (c *ctx) Now() time.Duration { return c.net.now() }

func (c *ctx) Rand() *rand.Rand {
	if c.rnd == nil {
		c.rnd = rand.New(rand.NewSource(c.seed))
	}
	return c.rnd
}

// arm returns the context's timer set to fire in d.
func (c *ctx) arm(d time.Duration) *time.Timer {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	return c.timer
}

// Endpoint is one chanloop attachment point.
type Endpoint struct {
	net *Net
	id  int
}

// ID returns the endpoint's numeric identity.
func (ep *Endpoint) ID() int { return ep.id }

// Compute is a no-op: chanloop does not model CPU cost.
func (ep *Endpoint) Compute(p transport.Ctx, d time.Duration) {}

// Crashed reports false: chanloop has no fault injection.
func (ep *Endpoint) Crashed(at time.Duration) bool { return false }

func asEndpoint(ep transport.Endpoint) *Endpoint {
	e, ok := ep.(*Endpoint)
	if !ok {
		panic(fmt.Sprintf("chanloop: endpoint %T is not a chanloop endpoint", ep))
	}
	return e
}

// seqWait is a mutex-guarded event counter that wakes whoever waits for
// its next event: the wait primitive behind Region commits, cond and CQ.
// A waiter's predicate runs in the critical section that enlists it, so a
// bump between the caller's snapshot and the wait cannot be missed.
type seqWait struct {
	mu  sync.Mutex
	seq uint64
	// parked holds the wake channel (ctx.wake) of every context to wake at
	// the next bump. A context that timed out stays listed until then, and
	// the token it gets costs its next wait one extra look at its predicate.
	parked []chan struct{}
}

func (s *seqWait) load() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// bumpLocked counts one event and wakes every waiter. Caller holds mu.
func (s *seqWait) bumpLocked() {
	s.seq++
	for _, wake := range s.parked {
		select {
		case wake <- struct{}{}:
		default: // holds a token already: its context is waking up anyway
		}
	}
	s.parked = s.parked[:0]
}

func (s *seqWait) bump() {
	s.mu.Lock()
	s.bumpLocked()
	s.mu.Unlock()
}

// forever is the bound of a wait that has none.
const forever = time.Duration(math.MaxInt64)

// park blocks until ready, called with mu held, reports true or d
// elapses (forever: no bound and no timer). It is the one wait loop of
// the backend, and once p has parked a first time it allocates nothing:
// neither does a bump, whether or not it finds somebody parked.
func (s *seqWait) park(p transport.Ctx, d time.Duration, ready func() bool) bool {
	c := p.(*ctx)
	var deadline time.Time // set on the first miss: a hit reads no clock
	for {
		s.mu.Lock()
		if ready() {
			s.mu.Unlock()
			return true
		}
		if c.wake == nil {
			c.wake = make(chan struct{}, 1)
		}
		if !slices.Contains(s.parked, c.wake) {
			s.parked = append(s.parked, c.wake)
		}
		s.mu.Unlock()
		if d == forever {
			<-c.wake
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(d)
		} else {
			d = time.Until(deadline)
		}
		if d <= 0 {
			return false
		}
		t := c.arm(d)
		select {
		case <-c.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// wait blocks until the counter differs from since or d elapses.
func (s *seqWait) wait(p transport.Ctx, since uint64, d time.Duration) bool {
	return s.park(p, d, func() bool { return s.seq != since })
}

// Region is a registered memory region. The embedded mutex orders
// remote verb commits against local Store/Load and the commit counter:
// a consumer that observed a commit under the lock may then read the
// committed payload through Bytes without further synchronization. A
// later WRITE over bytes such a consumer still reads would race with it
// under the Go memory model even if it changed nothing, so a WRITE whose
// bytes already equal its destination moves none (Queue.write): a
// writer may retransmit a segment its consumer has not released yet, and
// may put different bytes in a slot only after the consumer released it.
type Region struct {
	owner *Endpoint
	seqWait
	buf []byte
}

// OpenRegion registers a memory region of the given size on ep.
func (n *Net) OpenRegion(ep transport.Endpoint, size int) transport.Region {
	return &Region{owner: asEndpoint(ep), buf: make([]byte, size)}
}

// Bytes exposes the backing buffer (see the type comment for the rules).
func (r *Region) Bytes() []byte { return r.buf }

// Len returns the region size.
func (r *Region) Len() int { return len(r.buf) }

// Owner returns the owning endpoint.
func (r *Region) Owner() transport.Endpoint { return r.owner }

// Deregister is a no-op (the garbage collector owns the buffer).
func (r *Region) Deregister() {}

// Store copies src into the region at off, ordered against remote
// commits.
func (r *Region) Store(off int, src []byte) {
	r.mu.Lock()
	copy(r.buf[off:off+len(src)], src)
	r.mu.Unlock()
}

// Load copies region bytes at off into dst, ordered against remote
// commits.
func (r *Region) Load(off int, dst []byte) {
	r.mu.Lock()
	copy(dst, r.buf[off:off+len(dst)])
	r.mu.Unlock()
}

// CommitSeq returns the count of remote commits applied so far.
func (r *Region) CommitSeq() uint64 { return r.load() }

// Notify counts a commit that moves no bytes (see transport.Region).
func (r *Region) Notify() { r.bump() }

// WaitCommit blocks until the commit counter passes since or d elapses.
func (r *Region) WaitCommit(p transport.Ctx, since uint64, d time.Duration) bool {
	return r.wait(p, since, d)
}

// WaitChange blocks until the next commit or d elapses.
func (r *Region) WaitChange(p transport.Ctx, d time.Duration) bool {
	return r.wait(p, r.load(), d)
}

func asRegion(a transport.Addr) *Region {
	r, ok := a.MR.(*Region)
	if !ok {
		panic(fmt.Sprintf("chanloop: Addr region %T is not a chanloop region", a.MR))
	}
	return r
}

// cond is a bare seqWait: the same sequence pattern as a Region's
// commit counter, with no memory behind it.
type cond struct{ seqWait }

func (c *cond) Seq() uint64 { return c.load() }

func (c *cond) Wait(p transport.Ctx, since uint64, d time.Duration) bool {
	return c.wait(p, since, d)
}

func (c *cond) Broadcast() { c.bump() }

// CQ is a completion queue: entries[head:] are pending, a push is a
// sequence bump, and every blocking call is a seqWait.park on "an entry
// is pending".
type CQ struct {
	seqWait
	entries []transport.Completion
	head    int
}

func newCQ() *CQ { return &CQ{} }

func (cq *CQ) push(e transport.Completion) {
	cq.mu.Lock()
	if cq.head > 0 && len(cq.entries) == cap(cq.entries) {
		// Reuse the consumed prefix before append would grow past it.
		n := copy(cq.entries, cq.entries[cq.head:])
		clear(cq.entries[n:])
		cq.entries, cq.head = cq.entries[:n], 0
	}
	cq.entries = append(cq.entries, e)
	cq.bumpLocked()
	cq.mu.Unlock()
}

// takeLocked moves up to len(out) pending completions into out, clearing
// their slots so no Completion.Buf stays reachable, and rewinds a drained
// queue to the front of its backing array. Caller holds mu.
func (cq *CQ) takeLocked(out []transport.Completion) int {
	n := copy(out, cq.entries[cq.head:])
	clear(cq.entries[cq.head : cq.head+n])
	if cq.head += n; cq.head == len(cq.entries) {
		cq.entries, cq.head = cq.entries[:0], 0
	}
	return n
}

// Poll removes one completion without blocking.
func (cq *CQ) Poll(p transport.Ctx) (transport.Completion, bool) {
	var e [1]transport.Completion
	n := cq.PollBatch(p, e[:])
	return e[0], n > 0
}

// PollBatch drains up to len(out) completions in one lock hold — the
// burst win on this backend: one acquisition per batch instead of one
// per entry, with completion order preserved.
func (cq *CQ) PollBatch(p transport.Ctx, out []transport.Completion) int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.takeLocked(out)
}

// Wait blocks until a completion is available and removes it.
func (cq *CQ) Wait(p transport.Ctx) transport.Completion {
	e, _ := cq.WaitTimeout(p, forever)
	return e
}

// WaitTimeout is Wait bounded by d.
func (cq *CQ) WaitTimeout(p transport.Ctx, d time.Duration) (transport.Completion, bool) {
	var e [1]transport.Completion
	ok := cq.park(p, d, func() bool { return cq.takeLocked(e[:]) > 0 })
	return e[0], ok
}

// WaitNonEmpty blocks until the queue is non-empty or d elapses.
func (cq *CQ) WaitNonEmpty(p transport.Ctx, d time.Duration) bool {
	return cq.park(p, d, func() bool { return cq.head < len(cq.entries) })
}

// Len returns the number of pending completions.
func (cq *CQ) Len() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return len(cq.entries) - cq.head
}
