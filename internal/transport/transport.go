// Package transport defines the verb surface the DFI data path runs on:
// one-sided WRITE/WRITE-batch/READ, FETCH-ADD, two-sided
// SEND/RECV with completion-queue polling, unreliable multicast, and
// memory-region registration — the RDMA-shaped operations of the paper,
// abstracted so backends are interchangeable.
//
// Two backends implement it today: dfi/internal/fabric, the deterministic
// discrete-event-simulation fabric (the reference backend — every chaos,
// property and bench suite runs on it), and
// dfi/internal/transport/chanloop, an in-process goroutine/channel backend
// that moves real []byte payloads under wall-clock time with no sim
// kernel. The conformance suite in dfi/internal/transport/transporttest
// pins the semantics both must share.
//
// The execution-context abstraction is Ctx: the DES backend passes
// *sim.Proc (which satisfies Ctx structurally), real backends pass a
// wall-clock context owned by a goroutine. Code written against Ctx and
// the interfaces below runs unmodified on either.
package transport

import (
	"math/rand"
	"time"
)

// Ctx is the execution context verbs and flow logic run under: virtual
// time and cooperative sleeps on the DES backend, wall-clock time and
// real sleeps on goroutine backends. *sim.Proc satisfies Ctx.
//
// Blocking verbs park the Ctx that posted them; a Ctx must therefore be
// owned by exactly one logical thread (one sim process or one goroutine).
type Ctx interface {
	// Sleep suspends the caller for d (virtual or wall-clock time).
	Sleep(d time.Duration)
	// Now returns the current time since the start of the run.
	Now() time.Duration
	// Rand returns this context's deterministic random source (used for
	// randomized backoff).
	Rand() *rand.Rand
}

// Endpoint is one node-level attachment point of the transport: memory
// regions are registered on it, queues connect pairs of them, and
// per-tuple CPU cost is charged to it.
type Endpoint interface {
	// ID returns the endpoint's stable numeric identity.
	ID() int
	// Compute charges d of CPU work to the endpoint (scaled virtual time
	// on the DES backend; a no-op or real delay on others).
	Compute(p Ctx, d time.Duration)
	// Crashed reports whether the endpoint is crashed at time at
	// (fault-injection backends only; always false elsewhere).
	Crashed(at time.Duration) bool
}

// Region is a registered memory region remote queues can WRITE into,
// READ from, and apply atomics to.
//
// Bytes returns the backing buffer for zero-copy local access. On
// concurrent backends, plain access through Bytes is only safe under the
// transport's commit ordering: payload bytes may be read after the
// commit that published them was observed (CommitSeq/WaitCommit), and
// written while no remote op can touch them. Bytes that a remote peer
// polls or overwrites concurrently — ring header counters, segment
// footer flags — must go through Store/Load, which synchronize with
// remote verbs.
type Region interface {
	Bytes() []byte
	Len() int
	// Owner returns the endpoint the region is registered on.
	Owner() Endpoint
	// Deregister releases the region's registration.
	Deregister()
	// Store copies src into the region at off, synchronized with remote
	// verbs (a local store on the owning endpoint — free on RDMA).
	Store(off int, src []byte)
	// Load copies region bytes at off into dst, synchronized with remote
	// verbs.
	Load(off int, dst []byte)
	// CommitSeq returns the count of remote commits applied so far.
	CommitSeq() uint64
	// WaitCommit blocks until the commit count exceeds since or d
	// elapses, reporting whether it advanced.
	WaitCommit(p Ctx, since uint64, d time.Duration) bool
	// WaitChange blocks until any remote commit lands or d elapses.
	WaitChange(p Ctx, d time.Duration) bool
	// Notify counts one commit made by the owning endpoint itself — a
	// plain store into memory a local poller watches — so contexts
	// parked in WaitCommit wake and re-scan. It is how a poller is told
	// about state that no remote verb wrote (an eviction, a hand-off).
	Notify()
}

// Addr names a byte offset inside a registered region.
type Addr struct {
	MR  Region
	Off int
}

// OpKind identifies a verb in completions and traces.
type OpKind uint8

// Verb kinds.
const (
	OpWrite OpKind = iota
	OpRead
	OpSend
	OpRecv
	OpFetchAdd
	// OpCompareSwap is issued by no backend; the ledger's atomic counter still names it.
	OpCompareSwap
)

// String renders the op kind in verbs-spec spelling (WRITE, READ, ...).
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpCompareSwap:
		return "CMP_SWAP"
	}
	return "UNKNOWN"
}

// Completion is one completion-queue entry.
type Completion struct {
	ID    uint64
	Op    OpKind
	Bytes int
	// Value carries the old value of an atomic op.
	Value uint64
	// Buf is the receive buffer of a RECV completion.
	Buf []byte
}

// WriteOptions control one WRITE work request.
type WriteOptions struct {
	// Signaled requests a completion on the send CQ (selective
	// signaling: unsignaled writes complete silently).
	Signaled bool
	// ID tags the completion.
	ID uint64
	// CommitTail, when non-zero, is the length of the trailing commit
	// unit (a segment footer): the backend guarantees the tail becomes
	// visible strictly after the body, and counts one region commit per
	// tail landed.
	CommitTail int
}

// WriteWR is one entry of a doorbell-batched WRITE post.
type WriteWR struct {
	Src  []byte
	Dst  Addr
	Opts WriteOptions
}

// RecvWR is a posted receive buffer.
type RecvWR struct {
	Buf []byte
	ID  uint64
}

// CompletionQueue delivers verb completions in completion order.
type CompletionQueue interface {
	// Poll removes one completion without blocking (ok=false when empty).
	Poll(p Ctx) (Completion, bool)
	// PollBatch drains up to len(out) available completions into out
	// without blocking and returns how many it wrote. Completion order is
	// preserved. Backends charge the same per-completion poll cost as
	// repeated Poll calls, so burst draining never alters simulated
	// timing; it only removes per-entry wakeups and interface churn.
	PollBatch(p Ctx, out []Completion) int
	// Wait blocks until a completion is available and removes it.
	Wait(p Ctx) Completion
	// WaitTimeout is Wait bounded by d.
	WaitTimeout(p Ctx, d time.Duration) (Completion, bool)
	// WaitNonEmpty blocks until the queue is non-empty or d elapses,
	// without removing anything.
	WaitNonEmpty(p Ctx, d time.Duration) bool
	// Len returns the number of pending completions.
	Len() int
}

// Queue is one end of a reliable connected queue pair. Work requests on
// one queue execute in posting order (RC ordering); completions appear
// on the owning CQ in execution order. A backend may execute a work
// request, and push its completion, before the posting call returns:
// nothing may depend on a posted WR still being in flight.
type Queue interface {
	// Write posts a one-sided WRITE of src into dst.
	Write(p Ctx, src []byte, dst Addr, opts WriteOptions)
	// WriteBatch posts several WRITEs with one doorbell.
	WriteBatch(p Ctx, wrs []WriteWR)
	// Read posts a one-sided READ of len(dst) bytes from src into dst;
	// the completion (when signaled) carries id.
	Read(p Ctx, dst []byte, src Addr, signaled bool, id uint64)
	// ReadSync performs a READ and blocks until it completes, returning
	// the elapsed time.
	ReadSync(p Ctx, dst []byte, src Addr) time.Duration
	// FetchAdd atomically adds delta to the 8-byte counter at dst and
	// returns the previous value; ok is false when the remote endpoint is
	// unreachable (crashed), so the caller does not block forever.
	FetchAdd(p Ctx, dst Addr, delta uint64) (old uint64, ok bool)
	// Send posts a two-sided SEND consumed by a posted receive at the
	// peer; unmatched sends are queued (reliable delivery).
	Send(p Ctx, src []byte, signaled bool, id uint64)
	// PostRecv posts a receive buffer for incoming SENDs.
	PostRecv(buf []byte, id uint64)
	// PostedRecvs returns the number of posted, unconsumed receives.
	PostedRecvs() int
	// SendCQ returns the completion queue of sends, writes, reads and
	// atomics posted on this queue.
	SendCQ() CompletionQueue
	// RecvCQ returns the completion queue of consumed receives.
	RecvCQ() CompletionQueue
}

// GroupEndpoint is one member's receive side of a multicast group.
type GroupEndpoint interface {
	// PostRecv posts a receive buffer for group sends.
	PostRecv(buf []byte, id uint64)
	// RecvCQ returns the member's receive completion queue.
	RecvCQ() CompletionQueue
	// Owner returns the endpoint this member receives on.
	Owner() Endpoint
	// DropCount returns sends dropped at this member for lack of a
	// posted receive (unreliable datagram semantics).
	DropCount() int64
}

// Group is an unreliable multicast group: Send delivers to every
// attached member with a posted receive and silently drops at members
// without one.
type Group interface {
	// Send multicasts src from the given endpoint to all attached
	// members; excludeSelf skips the sender's own membership.
	Send(p Ctx, from Endpoint, src []byte, excludeSelf bool)
	// Member returns slot i's current endpoint, detached or not.
	Member(i int) GroupEndpoint
	// Detach removes member i from delivery.
	Detach(i int)
	// Reattach re-adds slot i with a fresh receive queue on ep.
	Reattach(i int, ep Endpoint) GroupEndpoint
}

// Cond is a sequence-counted wake-up between contexts on one endpoint:
// the local-memory counterpart of Region.CommitSeq/WaitCommit. A waiter
// snapshots Seq, checks its predicate and hands the snapshot to Wait; a
// Broadcast landing in between makes Wait return at once, so the
// check-then-wait sequence loses no wake-up even on backends whose
// contexts run concurrently and whose Cond has no mutex of its own.
// Waking models a hand-off through local memory and charges no polling
// delay.
type Cond interface {
	// Seq returns the count of Broadcasts so far.
	Seq() uint64
	// Wait blocks until the count exceeds since or d elapses, reporting
	// whether it advanced.
	Wait(p Ctx, since uint64, d time.Duration) bool
	// Broadcast bumps the count and wakes every waiter.
	Broadcast()
}

// Transport is a backend: a factory for endpoints' queues, regions and
// groups plus the execution-context services flow code needs.
type Transport interface {
	// Dial connects endpoints a and b with a reliable queue pair,
	// returning a's end and b's end.
	Dial(a, b Endpoint) (Queue, Queue)
	// OpenRegion registers a memory region of the given size on ep.
	OpenRegion(ep Endpoint, size int) Region
	// Multicast creates an unreliable multicast group over members.
	Multicast(members ...Endpoint) Group
	// NewCond returns a condition variable for this backend's contexts.
	NewCond() Cond
	// Spawn starts fn on a new execution context named name (a sim
	// process or a goroutine). parent is the spawning context.
	Spawn(parent Ctx, name string, fn func(Ctx))
	// SetTracer installs t to observe every verb (nil disables).
	SetTracer(t Tracer)
}
