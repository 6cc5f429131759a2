package fabric

import (
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// Fault injection: a FaultPlan makes the simulated fabric misbehave so the
// recovery machinery of the layers above (DFI ring retransmission, NACK
// recovery, lease eviction of a crashed node's endpoints) is actually
// exercised. The paper names fault tolerance as future work (§8); this
// file is the substrate for this repo's implementation of it.
//
// Semantics, chosen to mirror what each layer of a real deployment can and
// cannot observe:
//
//   - Probabilistic drops model silent loss above the verb layer (a lossy
//     fabric, a gray failure, a misbehaving switch). The remote effect of
//     the verb is lost, but the sender's signaled completion still fires
//     for WRITE/SEND — like an unreliable-connection QP, the completion
//     only proves the message left the NIC. A dropped READ produces no
//     completion at all (the completion *is* the response); a dropped
//     ReadSync, which waits without a timeout, is retried like an RC
//     SEND and only pays an extra round trip.
//   - Dropped atomics are modelled as transport-level retries: the atomic
//     executes exactly once but the caller pays an extra retry penalty.
//     (Duplicating an atomic would silently corrupt sequencers.)
//   - Delay/jitter/reordering shift the *delivery* instant of a message;
//     link serialization is unaffected. Commit ordering within one WRITE
//     (payload body before footer tail) is always preserved.
//   - Duplication re-applies a WRITE's remote commit (or delivers a SEND
//     twice) after DuplicateDelay — the classic at-least-once hazard.
//   - A link flap drops everything crossing the link inside the window.
//   - A crashed node neither transmits nor receives from its crash time
//     on, and generates no further completions: a peer blocked on its
//     completions must time out (which is exactly what the DFI writer's
//     bounded waits are for). Atomics addressed to a crashed node return
//     zero after crashAtomicPenalty.
//
// All randomness is drawn from the kernel's seeded source, so a chaos run
// is exactly as reproducible as a healthy one.

// FaultPlan configures fault injection for a cluster. The zero value (and
// a nil plan) injects nothing. The cluster reads it from kernel context
// without locks, so it must not change once the kernel runs — except
// that a simulated process may schedule a crash through CrashNode (at
// its own instant or later: a node that crashes "now").
type FaultPlan struct {
	// Per-verb probabilistic drop. DropWrite loses the remote effect
	// while keeping the sender's completion; DropRead loses an async
	// READ's response (and with it the completion) but only delays a
	// ReadSync, which has no timeout to recover with (the NIC retries:
	// one extra round trip); DropSend loses UD multicast deliveries
	// outright but only delays RC SENDs (the NIC retransmits); DropAtomic
	// charges a transport-retry penalty instead of losing the op.
	DropWrite  float64
	DropRead   float64
	DropSend   float64
	DropAtomic float64

	// Delay is added to every delivery; DelayJitter adds a uniformly
	// distributed extra in [0, DelayJitter).
	Delay       time.Duration
	DelayJitter time.Duration

	// Duplicate is the probability that a WRITE's remote commit is applied
	// twice (or a SEND delivered twice), the second time DuplicateDelay
	// after the first (default 2µs when unset).
	Duplicate      float64
	DuplicateDelay time.Duration

	// Reorder is the probability that a delivery is additionally delayed
	// by ReorderDelay (default 5µs when unset), letting later messages
	// overtake it.
	Reorder      float64
	ReorderDelay time.Duration

	// Links adds per-link faults on top of the cluster-wide settings.
	Links []LinkFault

	// Crashes maps a node id to its crash time: from that instant the node
	// neither transmits nor receives, and produces no completions.
	Crashes map[int]time.Duration
}

// LinkFault scopes extra faults to one directed link. From/To are node
// ids; -1 matches any node.
type LinkFault struct {
	From, To int

	// Drop adds to the per-verb drop probability on this link.
	Drop float64

	// Delay/DelayJitter add to the cluster-wide delivery delay.
	Delay       time.Duration
	DelayJitter time.Duration

	// Flaps are windows of virtual time during which the link drops
	// every delivery.
	Flaps []FlapWindow
}

// FlapWindow is one link-down interval [Start, End).
type FlapWindow struct {
	Start, End time.Duration
}

// contains reports whether t falls inside the window.
func (w FlapWindow) contains(t sim.Time) bool {
	return t >= w.Start && t < w.End
}

// CrashNode schedules a whole-node crash at time t (convenience).
func (fp *FaultPlan) CrashNode(id int, t time.Duration) *FaultPlan {
	if fp.Crashes == nil {
		fp.Crashes = make(map[int]time.Duration)
	}
	fp.Crashes[id] = t
	return fp
}

// crashAtomicPenalty is how long a remote atomic addressed to a crashed
// node blocks before returning zero (the QP error-completion path of real
// verbs, collapsed into a fixed delay because atomics have no error
// return here).
const crashAtomicPenalty = 100 * time.Microsecond

// Crashed reports whether the node is crashed at time t under the
// cluster's fault plan.
func (n *Node) Crashed(t sim.Time) bool {
	fp := n.cluster.cfg.Faults
	if fp == nil || fp.Crashes == nil {
		return false
	}
	at, ok := fp.Crashes[n.id]
	return ok && t >= at
}

// verdict is one fault decision for one message.
type verdict struct {
	drop           bool
	dropCompletion bool // crash: suppress the sender-side completion too
	delay          time.Duration
	duplicate      bool
}

// dropProb returns the plan's drop probability for the verb kind.
func (fp *FaultPlan) dropProb(kind transport.OpKind) float64 {
	switch kind {
	case transport.OpWrite:
		return fp.DropWrite
	case transport.OpRead:
		return fp.DropRead
	case transport.OpSend, transport.OpRecv:
		return fp.DropSend
	case transport.OpFetchAdd:
		return fp.DropAtomic
	}
	return 0
}

// fault draws the fault verdict for one message of the given kind posted
// now on the from→to link, delivered no earlier than deliverAt (used for
// flap-window checks). Must run in process or scheduler context (it
// consumes kernel randomness).
func (c *Cluster) fault(kind transport.OpKind, from, to *Node, deliverAt sim.Time) verdict {
	fp := c.cfg.Faults
	if fp == nil {
		return verdict{}
	}
	var v verdict
	now := c.K.Now()
	if from.Crashed(now) || to.Crashed(deliverAt) {
		v.drop = true
		v.dropCompletion = true
		return v
	}
	rng := c.K.Rand()
	p := fp.dropProb(kind)
	v.delay = fp.Delay
	if fp.DelayJitter > 0 {
		v.delay += time.Duration(rng.Int63n(int64(fp.DelayJitter)))
	}
	for i := range fp.Links {
		lf := &fp.Links[i]
		if (lf.From != -1 && lf.From != from.id) || (lf.To != -1 && lf.To != to.id) {
			continue
		}
		p += lf.Drop
		v.delay += lf.Delay
		if lf.DelayJitter > 0 {
			v.delay += time.Duration(rng.Int63n(int64(lf.DelayJitter)))
		}
		for _, w := range lf.Flaps {
			if w.contains(deliverAt + v.delay) {
				v.drop = true
				return v
			}
		}
	}
	if p > 0 && rng.Float64() < p {
		v.drop = true
		return v
	}
	if fp.Reorder > 0 && rng.Float64() < fp.Reorder {
		d := fp.ReorderDelay
		if d == 0 {
			d = 5 * time.Microsecond
		}
		v.delay += d
	}
	if fp.Duplicate > 0 && (kind == transport.OpWrite || kind == transport.OpSend) && rng.Float64() < fp.Duplicate {
		v.duplicate = true
	}
	return v
}

// dupDelay returns the lag of a duplicated delivery.
func (fp *FaultPlan) dupDelay() time.Duration {
	if fp == nil || fp.DuplicateDelay == 0 {
		return 2 * time.Microsecond
	}
	return fp.DuplicateDelay
}
