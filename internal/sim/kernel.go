// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with cooperatively scheduled processes.
//
// The kernel maintains a virtual clock and three queues of pending entries
// under one (at, seq) order: a FIFO of events due at the present instant,
// a binary min-heap of events scheduled for a later instant, and an
// indexed heap of WaitTimeout deadlines. Every process is
// a coroutine (iter.Pull) of the goroutine that called Run, so exactly one
// stack at a time holds the baton: it runs either process code or the event
// loop (Kernel.drive). There is no scheduler goroutine. A process that parks
// runs the loop on its own stack — event callbacks inline, in (at, seq)
// order — until it pops a wake-up: its own, and it simply returns, or
// another process's, and it names that process and yields to Run's
// goroutine, whose trampoline (Kernel.await) resumes it. A simulated process
// switch is therefore two coroutine switches — the thread is handed over
// directly, the Go scheduler is never entered — and costs the same whether
// the host has one core or many; Kernel.Switches counts them. A wake that
// the woken process would only follow with a fixed Sleep (Cond.WaitThen,
// WaitTimeoutThen) is not resumed at all: the loop runs that sleep in its
// place and resumes the process once, when the sleep ends, in exactly the
// (at, seq) order and event count of the wait-then-Sleep it replaces.
// Because one stack runs at a time, the simulation is deterministic for a
// given seed and spawn order, and event callbacks can mutate shared
// simulation state (e.g. simulated RDMA memory regions) without locks.
//
// Processes are ordinary functions of the form func(*Proc). Inside a
// process, blocking operations (Sleep, resource acquisition, condition
// waits) advance virtual time; plain Go code runs instantaneously in
// virtual time. Event callbacks (After, At, AtOp) run "in scheduler
// context": on whichever stack hosts the loop at that moment, with no
// process identity, and must not block.
//
// The kernel is the substrate for the simulated RDMA fabric
// (dfi/internal/fabric) on which the DFI flow implementation runs.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"time"
)

// Time is a point on the virtual clock, expressed as the duration since the
// start of the simulation.
type Time = time.Duration

// Event kinds. The hot kinds (timers, wake-ups, process starts) carry their
// target process and park generation in the event itself, so scheduling a
// sleep or a wake allocates nothing; only a callback scheduled by After or
// At carries a closure.
const (
	evOp      uint8 = iota // run op.RunOp(arg) in scheduler context (arg rides in gen)
	evStart                // first scheduling of p
	evTimer                // park timer fired: request a wake at the current instant
	evWake                 // resume p if still parked in generation gen
	evTimeout              // WaitTimeout deadline: mark p timed out, then request a wake
)

// Op is a pooled event payload. RunOp fires in scheduler context with the
// 64-bit argument the event was scheduled under (see Kernel.AtOp). The
// argument is the op's to interpret: backends use one Op value to drive a
// multi-step pipeline — stage, deliver, commit, ack — with the step as the
// argument, and a lease timer packs its generation and step into it. No
// closure is allocated per event, which is what makes the steady-state
// data path and a leased fleet's heartbeats alloc-free.
type Op interface{ RunOp(arg uint64) }

// fnOp carries an After or At callback as an evOp event. A func value is
// one pointer, so the conversion to Op allocates nothing and the event
// needs no field of its own for it.
type fnOp func()

func (f fnOp) RunOp(uint64) { f() }

// event is a scheduled callback or process transition. Events with equal
// timestamps fire in the order they were scheduled (seq breaks ties), which
// keeps runs reproducible. Events are stored by value in the FIFO and heap
// slices so the event loop allocates nothing in steady state.
type event struct {
	at   Time
	seq  uint64
	gen  uint64
	p    *Proc
	op   Op
	kind uint8
}

// before orders events by (at, seq). seq is unique, so the order is total
// and pop order does not depend on heap internals.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timeout is a pending WaitTimeout deadline. Timeouts live in their own
// indexed min-heap — ordered by the same (at, seq) keys as events, so
// firing order is exactly what a shared heap would give — because a wake
// that wins the race can then delete its timeout in O(log n). Leaving
// dead timeouts to lazy-expire in the main heap (the old scheme) kept
// ~one stale entry per in-flight timed wait, inflating every heap
// operation on the hot path.
type timeout struct {
	at  Time
	seq uint64
	gen uint64
	p   *Proc
}

// Kernel is a discrete-event simulation instance. Create one with New, spawn
// processes with Spawn, then call Run. Nothing in it is locked: the kernel,
// its processes and every primitive bound to it are used only from its own
// process or scheduler context, on the goroutine that called Run.
// Independent kernels share no state and may run on concurrent goroutines.
type Kernel struct {
	now     Time
	cur     []event   // FIFO of events due at now, in seq order; cur[head:] are pending
	head    int       // index of the FIFO's front
	events  []event   // binary min-heap, ordered by (at, seq), of events scheduled for a later instant
	tmos    []timeout // indexed min-heap of pending WaitTimeout deadlines
	seq     uint64
	to      *Proc // the process await's trampoline resumes next; nil: the loop stopped
	result  error // what a loop that stopped on a process stack leaves for Run
	running *Proc // the process running its own code; nil while the loop runs
	rng     *rand.Rand

	procs      []*Proc // live (spawned, not exited) processes; Proc.idx indexes it
	failure    error   // first panic, surfaced by Run
	inCallback bool    // an event callback is on the stack (labels a panic)

	// MaxEvents aborts Run with an error after this many events, guarding
	// against livelocks (e.g. an unbounded poll loop). Zero means no limit.
	MaxEvents uint64
	// Deadline aborts Run once the virtual clock passes it. Zero means no
	// limit.
	Deadline Time

	nevents  uint64
	switches uint64
}

// New returns a kernel whose random source is seeded with seed. Two kernels
// constructed with the same seed and driven by the same program execute
// identically.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:       rand.New(rand.NewSource(seed)),
		MaxEvents: 2_000_000_000,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events processed so far.
func (k *Kernel) Events() uint64 { return k.nevents }

// Switches returns the number of process switches so far: each time the
// event loop handed the baton to a process other than the one hosting it.
// Resuming the process that hosts the loop is not a switch.
func (k *Kernel) Switches() uint64 { return k.switches }

// Rand returns the kernel's deterministic random source. It must only be
// used from scheduler or process context (never from other goroutines).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// push assigns the next sequence number and queues e (timestamps are
// clamped to now). An event due now joins the tail of the current-instant
// FIFO: every entry there has the same at and a smaller seq, so the FIFO
// stays in (at, seq) order without a comparison, and the wakes, starts and
// yields that make up most of a run never sift through a heap whose depth
// is set by far-future events. Anything later goes into the heap.
func (k *Kernel) push(e event) {
	k.seq++
	e.seq = k.seq
	if e.at <= k.now {
		e.at = k.now
		k.pushNow(e)
		return
	}
	h := append(k.events, e)
	// Bubble a hole from the tail toward the root: parents shift down and
	// e is written once at its final slot. Events are 56 bytes, so doing
	// one copy per level instead of a swap halves the memory traffic of
	// the hottest function in the scheduler.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.events = h
}

// pushNow appends e, due at the present instant, to the FIFO. The FIFO
// drains before the clock moves, and popNow rewinds it to the start of its
// backing array whenever it drains, so a run reuses one array sized by its
// largest same-instant burst. A burst that never drains (processes that
// keep yielding to each other at one instant) is compacted instead of
// re-grown once the consumed prefix is more than half of the array.
func (k *Kernel) pushNow(e event) {
	if len(k.cur) == cap(k.cur) && k.head > len(k.cur)/2 {
		n := copy(k.cur, k.cur[k.head:])
		clear(k.cur[n:])
		k.cur = k.cur[:n]
		k.head = 0
	}
	k.cur = append(k.cur, e)
}

// popNow removes and returns the FIFO's front, zeroing its slot like pop.
func (k *Kernel) popNow() event {
	e := k.cur[k.head]
	k.cur[k.head] = event{}
	k.head++
	if k.head == len(k.cur) {
		k.cur = k.cur[:0]
		k.head = 0
	}
	return e
}

// pop removes and returns the heap's earliest event. The vacated slot is
// zeroed so it retains no closure or process reference while it waits for
// reuse.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	k.events = h
	if n == 0 {
		return top
	}
	// Walk a hole from the root down to a leaf, shifting the smaller child
	// up at each level, then sift the displaced tail element up from there
	// (one copy per level, the same trick as push). The tail element came
	// from the bottom, so it rarely climbs more than a level or two, and
	// the walk down needs one comparison per level instead of two.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		h[i] = h[l]
		i = l
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !last.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = last
	return top
}

// tmoPush registers a WaitTimeout deadline for t.p, assigning the next
// sequence number from the shared counter (so cross-heap ordering is the
// total (at, seq) order a single heap would produce).
func (k *Kernel) tmoPush(t timeout) {
	if t.at < k.now {
		t.at = k.now
	}
	k.seq++
	t.seq = k.seq
	k.tmos = append(k.tmos, t)
	k.tmoUp(len(k.tmos) - 1)
}

func (k *Kernel) tmoUp(i int) {
	h := k.tmos
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].at > h[parent].at || (h[i].at == h[parent].at && h[i].seq > h[parent].seq) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].p.tmoIdx = i
		i = parent
	}
	h[i].p.tmoIdx = i
}

func (k *Kernel) tmoDown(i int) {
	h := k.tmos
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (h[l].at < h[s].at || (h[l].at == h[s].at && h[l].seq < h[s].seq)) {
			s = l
		}
		if r < n && (h[r].at < h[s].at || (h[r].at == h[s].at && h[r].seq < h[s].seq)) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		h[i].p.tmoIdx = i
		i = s
	}
	h[i].p.tmoIdx = i
}

// tmoRemove deletes the timeout at heap index i (a wake won the race, or
// the deadline just popped).
func (k *Kernel) tmoRemove(i int) {
	h := k.tmos
	n := len(h) - 1
	h[i].p.tmoIdx = -1
	if i != n {
		h[i] = h[n]
	}
	h[n] = timeout{}
	k.tmos = h[:n]
	if i < n {
		k.tmoDown(i)
		k.tmoUp(i)
	}
}

// at schedules fn to run in scheduler context at time t (clamped to now).
func (k *Kernel) at(t Time, fn func()) {
	k.push(event{at: t, kind: evOp, op: fnOp(fn)})
}

// After schedules fn to run in scheduler context after d has elapsed on the
// virtual clock. fn must not block; it may resume processes, fire
// conditions, and mutate simulation state.
func (k *Kernel) After(d Time, fn func()) {
	k.at(k.now+d, fn)
}

// At schedules fn to run in scheduler context at absolute virtual time t
// (clamped to the present). Like After, fn must not block.
func (k *Kernel) At(t Time, fn func()) {
	k.at(t, fn)
}

// AtOp schedules op.RunOp(arg) to run in scheduler context at absolute
// virtual time t (clamped to the present). Like At, the callback must not
// block. arg rides in the event's gen word, so scheduling allocates
// nothing beyond heap growth; one op may have many events pending, each
// with its own arg.
func (k *Kernel) AtOp(t Time, op Op, arg uint64) {
	k.push(event{at: t, kind: evOp, op: op, gen: arg})
}

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run or from a running
// process or event callback. The process is a coroutine; its body does not
// run until its start event pops. If fn calls runtime.Goexit (t.FailNow,
// t.Fatal, t.Skip), the process's deferred calls run, the kernel fails with
// "process %q called runtime.Goexit", and the Goexit is re-raised on the
// goroutine that called Run, which therefore never returns.
func (k *Kernel) Spawn(name string, fn func(*Proc)) {
	p := &Proc{k: k, name: name, tmoIdx: -1, idx: len(k.procs)}
	k.procs = append(k.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() {
			if r := recover(); r != nil {
				k.fail(p, r)
			} else if !returned && k.failure == nil {
				k.failure = fmt.Errorf("sim: process %q called runtime.Goexit", p.name)
			}
			p.exited = true
			last := len(k.procs) - 1
			k.procs[p.idx] = k.procs[last]
			k.procs[p.idx].idx = p.idx
			k.procs[last] = nil
			k.procs = k.procs[:last]
			k.running = nil
			// The exiting process still holds the baton: run the loop until
			// it is handed on or stops, then let the coroutine end.
			k.drive(p)
		}()
		fn(p)
		returned = true
	})
	k.push(event{at: k.now, kind: evStart, p: p})
}

// fail records r, a recovered panic, as the run's failure unless one is
// already recorded. A panic inside an event callback is reported as such
// whichever stack hosted the callback; on a process stack anything else is
// that process's panic; on the stack of Run's caller it is a kernel bug and
// panics on.
func (k *Kernel) fail(p *Proc, r any) {
	switch {
	case k.failure != nil:
	case k.inCallback:
		k.failure = fmt.Errorf("sim: event callback panicked at t=%v: %v", k.now, r)
	case p != nil:
		k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	default:
		panic(r)
	}
}

// ready schedules p to resume at the current virtual time. gen guards
// against stale wake-ups: the wake is dropped unless p is still parked in
// the same park generation.
func (k *Kernel) ready(p *Proc, gen uint64) {
	k.push(event{at: k.now, kind: evWake, p: p, gen: gen})
}

// callback fires a popped evOp event in scheduler context. inCallback
// is a plain flag rather than a deferred recover per event: a panic leaves
// it set, and the recover that catches it (drive's, or Spawn's when Sleep
// dispatched inline) reads it to report a callback panic.
func (k *Kernel) callback(e *event) {
	k.inCallback = true
	e.op.RunOp(e.gen)
	k.inCallback = false
}

// The queues a pending entry can wait in; peek names the one whose front
// is earliest.
const (
	qNone uint8 = iota // nothing is pending
	qNow               // the current-instant FIFO, Kernel.cur
	qHeap              // the event heap, Kernel.events
	qTmo               // the timeout heap, Kernel.tmos
)

// peek finds the earliest pending (at, seq) entry across the three queues
// without removing it: its instant and its queue (qNone when all are
// empty). An entry of the heap due now was scheduled before the clock
// reached now, so it precedes the whole FIFO; a zero-length timeout can
// fall between two FIFO entries.
func (k *Kernel) peek() (at Time, q uint8) {
	var seq uint64
	if k.head < len(k.cur) {
		e := &k.cur[k.head]
		at, seq, q = e.at, e.seq, qNow
	}
	if len(k.events) > 0 {
		if e := &k.events[0]; q == qNone || e.at < at || (e.at == at && e.seq < seq) {
			at, seq, q = e.at, e.seq, qHeap
		}
	}
	if len(k.tmos) > 0 {
		if t := &k.tmos[0]; q == qNone || t.at < at || (t.at == at && t.seq < seq) {
			at, q = t.at, qTmo
		}
	}
	return at, q
}

// front returns the front entry of q, which is qNow or qHeap and not empty.
func (k *Kernel) front(q uint8) *event {
	if q == qNow {
		return &k.cur[k.head]
	}
	return &k.events[0]
}

// take removes the front entry of q, which peek named. A timeout becomes an
// evTimeout event, exactly as if it had lived in the event heap.
func (k *Kernel) take(q uint8) event {
	switch q {
	case qNow:
		return k.popNow()
	case qHeap:
		return k.pop()
	}
	t := &k.tmos[0]
	e := event{at: t.at, seq: t.seq, gen: t.gen, p: t.p, kind: evTimeout}
	k.tmoRemove(0)
	return e
}

// quietNow reports whether nothing is pending at the present instant in any
// of the three queues: an event scheduled now would be the next to pop.
func (k *Kernel) quietNow() bool {
	return k.head == len(k.cur) &&
		(len(k.events) == 0 || k.events[0].at > k.now) &&
		(len(k.tmos) == 0 || k.tmos[0].at > k.now)
}

// drive is the event loop. Whoever holds the baton runs it on its own
// stack: Run (self == nil), a parking process, or an exiting one. It
// pops events in (at, seq) order and fires callbacks, timers and timeouts
// inline until one of three things happens:
//
//   - a signalled wake for a process with a post-wake sleep (Proc.then)
//     pops: run that sleep here (sleepAfterWake) and go on, unless its
//     fast paths reach the wake-up time, which resumes it as below;
//   - a valid start/wake for self pops: return, self runs on (no switch);
//   - a valid start/wake for another process pops: name it in k.to and
//     await the baton — the trampoline resumes it (two coroutine switches,
//     one when the host is Run itself);
//   - a stop condition holds (failure, queues drained, MaxEvents,
//     Deadline): Run's own drive returns the result, any other leaves it
//     in k.result and awaits the baton with k.to nil.
//
// The error result is meaningful to Run only.
func (k *Kernel) drive(self *Proc) (err error) {
	defer func() {
		// Only a callback can panic in here; the stack that hosted it is not
		// at fault, so it is not unwound any further: the loop just stops.
		if r := recover(); r != nil {
			k.fail(nil, r)
			err = k.stopped(self, k.failure)
		}
	}()
	for {
		at, q := k.peek()
		switch {
		case k.failure != nil:
			return k.stopped(self, k.failure)
		case q == qNone:
			return k.stopped(self, nil)
		case k.MaxEvents > 0 && k.nevents >= k.MaxEvents:
			return k.stopped(self, fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v (possible livelock)", k.MaxEvents, k.now))
		case k.Deadline > 0 && at > k.Deadline:
			return k.stopped(self, fmt.Errorf("sim: deadline %v exceeded (t=%v)", k.Deadline, at))
		}
		e := k.take(q)
		k.now = e.at
		k.nevents++
		switch e.kind {
		case evOp:
			k.callback(&e)
			continue
		case evTimeout:
			if !e.p.parkedFlag || e.p.parkGen != e.gen {
				continue
			}
			e.p.timedOut = true
			fallthrough
		case evTimer:
			// A timer (or a deadline that fired) requests a wake with a fresh
			// sequence number, so the switch happens after everything already
			// due at this instant. When nothing is, that wake would be the
			// very next event: count it and dispatch it here, unless the
			// budget check the loop would make before popping it stops the
			// run. Either way the (at, seq) order and Events() are those of
			// the two-event path.
			if !k.quietNow() || (k.MaxEvents > 0 && k.nevents >= k.MaxEvents) {
				k.ready(e.p, e.gen)
				continue
			}
			k.nevents++
			e.kind = evWake
		}
		p := e.p
		if e.kind == evWake {
			if p.exited || !p.parkedFlag || p.parkGen != e.gen {
				continue // stale: p was woken (or exited) since this was scheduled
			}
			if p.then > 0 && k.sleepAfterWake(p) {
				continue // p sleeps on, parked on its post-wake timer
			}
			p.parkedFlag = false
		}
		k.running = p
		if p == self {
			return nil
		}
		k.to = p
		k.switches++
		return k.await(self)
	}
}

// stopped ends a drive whose loop met a stop condition with result err: on a
// process stack the result is left for the trampoline to return.
func (k *Kernel) stopped(self *Proc, err error) error {
	if self == nil {
		return err
	}
	k.result = err
	return k.await(self)
}

// await gives the baton away. A live process yields to the trampoline and
// returns into its own code when a start/wake for it pops; an exited
// process just returns and its coroutine ends. Run (self == nil) is the
// trampoline: it resumes whichever process drive named until the loop
// stops, and returns the stored result. It is the only caller of next: on a
// process's stack next would nest the coroutines, and a park would return
// to that process instead of to Run's goroutine.
func (k *Kernel) await(self *Proc) error {
	if self != nil {
		if !self.exited {
			self.yield(struct{}{})
		}
		return nil
	}
	for k.to != nil {
		p := k.to
		k.to = nil
		p.next()
	}
	return k.result
}

// Run processes events until none remain, a process or event callback
// panics, MaxEvents is exceeded, or the Deadline passes. It returns an error
// describing abnormal termination; a deadlock (live processes parked with no
// pending events) is reported with the parked process names. The loop
// starts on the caller's stack and moves from coroutine to coroutine (see
// drive); Run returns once it has stopped, wherever that was.
func (k *Kernel) Run() error {
	if err := k.drive(nil); err != nil {
		return err
	}
	if len(k.procs) > 0 {
		return k.deadlockErr()
	}
	return nil
}

// deadlockErr describes live-but-parked processes once the queues drained.
func (k *Kernel) deadlockErr() error {
	names := make([]string, 0, len(k.procs))
	for _, p := range k.procs {
		if p.parkedFlag {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%v: %d live processes, parked: %v", k.now, len(k.procs), names)
}

// Proc is a simulated process (the unit of thread-centric execution). All
// methods must be called from the process's own stack while it is the
// running process.
type Proc struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool) // resumes the coroutine; called by await's trampoline only
	yield func(struct{}) bool     // suspends it, returning into that next call

	parkedFlag bool
	parkGen    uint64
	exited     bool
	timedOut   bool // set by an evTimeout event matching the current park
	then       Time // post-wake sleep of the current Cond.WaitThen park; run by the kernel
	tmoIdx     int  // index of the pending timeout in Kernel.tmos, -1 if none
	idx        int  // index in Kernel.procs while live
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Rand returns the kernel's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.k.rng }

// Spawn starts a child process at the current virtual time.
func (p *Proc) Spawn(name string, fn func(*Proc)) { p.k.Spawn(name, fn) }

// checkRunning panics if p is not the currently executing process; calling
// kernel primitives from the wrong goroutine would corrupt the simulation.
func (p *Proc) checkRunning() {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: process %q invoked a blocking primitive while not running", p.name))
	}
}

// park blocks the process until woken via Kernel.ready with the returned
// generation. Callers must have registered themselves with a waker first.
// The parking process runs the event loop itself until that wake pops.
func (p *Proc) park() {
	p.checkRunning()
	p.parkedFlag = true
	p.parkGen++
	p.k.running = nil
	p.k.drive(p)
}

// nextGen returns the park generation the upcoming park will use; wakers
// registered before parking must target this generation.
func (p *Proc) nextGen() uint64 { return p.parkGen + 1 }

// Sleep advances the process's virtual time by d. Negative or zero d is a
// no-op (the process keeps running without yielding the clock).
func (p *Proc) Sleep(d Time) {
	p.checkRunning()
	if d <= 0 {
		return
	}
	k := p.k
	t := k.now + d
	if k.advance(t) {
		return
	}
	k.push(event{at: t, kind: evTimer, p: p, gen: p.nextGen()})
	p.park()
}

// advance runs the run-to-completion fast paths of a sleep until t on
// whichever stack holds the baton, and reports whether the clock reached t
// in place (the sleeper runs on) rather than the sleeper having to park on
// a timer at t. Parking counts two events (the timer, and the wake it
// requests, which drive dispatches directly when nothing else is due at the
// timer's instant) and usually costs a process switch, so it is avoided
// whenever doing so is observably identical to the park/dispatch/resume
// dance:
//
//  1. If nothing can run before the wake-up time, advance the clock in
//     place (the timer and wake would have been the next two events in
//     (at, seq) order anyway). The current-instant FIFO must be empty:
//     its entries are due now, before t.
//  2. If the globally next pending item is a scheduler callback (an
//     evOp — code that never blocks and has no process identity),
//     dispatch it inline and loop. This is what lets a writer's flush
//     absorb the commit/ack pipeline of prior segments without a single
//     process switch.
//
// Anything else — a process transition (start/timer/wake/timeout), a
// tie at exactly t, the deadline, the event budget — parks, so drive
// keeps control of termination and (at, seq) dispatch order stays
// byte-identical.
func (k *Kernel) advance(t Time) bool {
	for {
		if k.head == len(k.cur) &&
			(len(k.events) == 0 || t < k.events[0].at) &&
			(len(k.tmos) == 0 || t < k.tmos[0].at) &&
			(k.Deadline <= 0 || t <= k.Deadline) &&
			(k.MaxEvents <= 0 || k.nevents+2 < k.MaxEvents) {
			k.now = t
			k.nevents += 2 // the timer+wake pair this replaces
			return true
		}
		at, q := k.peek()
		if q == qNone || q == qTmo || at > t {
			return false
		}
		if k.front(q).kind != evOp {
			return false
		}
		if (k.Deadline > 0 && at > k.Deadline) ||
			(k.MaxEvents > 0 && k.nevents >= k.MaxEvents) {
			return false
		}
		ev := k.take(q)
		k.now = ev.at
		k.nevents++
		k.callback(&ev)
	}
}

// sleepAfterWake runs, in the kernel, the Sleep(p.then) that a process
// woken out of Cond.WaitThen or WaitTimeoutThen would run the moment it
// resumed, and reports whether p stays parked. A signalled wake cancels
// the pending deadline, takes Sleep's fast paths (advance) and, when they
// do not reach the wake-up time, starts a fresh park generation on a timer
// at now+then: exactly the kernel state a resumed process would leave, in
// the same order, without the two process switches that resuming it
// would cost. A timed-out wait resumes at once with no sleep.
func (k *Kernel) sleepAfterWake(p *Proc) bool {
	d := p.then
	p.then = 0
	if p.timedOut {
		return false
	}
	if p.tmoIdx >= 0 {
		k.tmoRemove(p.tmoIdx)
	}
	t := k.now + d
	if k.advance(t) {
		return false
	}
	p.parkGen++
	k.push(event{at: t, kind: evTimer, p: p, gen: p.parkGen})
	return true
}

// Yield reschedules the process at the current time, letting other events
// scheduled for this instant run first.
func (p *Proc) Yield() {
	p.checkRunning()
	p.k.push(event{at: p.k.now, kind: evTimer, p: p, gen: p.nextGen()})
	p.park()
}
