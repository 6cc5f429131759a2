// Package registry implements DFI's central flow-metadata registry
// (paper §3.2): flows publish their metadata on initialization, and
// sources/targets retrieve it before use. In a deployment this service runs
// on a master node; lookups happen only at flow setup, never on the data
// path, so the registry charges an optional fixed RPC delay rather than
// modelling full network messages.
//
// Beyond the paper, the registry carries the control-plane failure model
// (see lease.go): every flow has an epoch-versioned membership record
// whose leases detect crashed endpoints, and the registry itself can run
// replicated over a Multi-Paxos log with master failover (replicated.go).
// Registry RPCs can be delayed or dropped via Faults; a dropped RPC costs
// the client a retry timeout.
//
// There is one registry type, Registry, and it does not know which
// backend it runs on: it is a monitor over a small clock seam (clock.go)
// — the time, a one-shot timer, a wait/broadcast pair. The constructors
// that take a *sim.Kernel (des.go, the only file importing sim) give it
// the discrete-event kernel's clock; NewLocal gives it the host's, for
// transports whose contexts are goroutines. Leases, eviction, rejoin,
// sequencer state, status and events are the same code on both.
//
// The monitor invariant: Registry.mu is held by every exported method and
// every timer callback while it runs, and released in exactly two places
// — Registry.sleep (the modelled RPC latency) and the clock's wait — so
// nothing parks holding it. On the kernel, processes only ever
// interleaved at those two points: the mutex is uncontended and the
// schedule unchanged (a process parked with the monitor held would hang
// the kernel, not race). On the wall clock the same rule gives goroutines
// the same atomic-between-sleeps semantics, which is all the replicated
// log relies on. LeaseRenewRPCs and Membership.Epoch are atomic loads and
// take nothing; Status always takes the monitor, so it must never be
// called inside it.
package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// Registry is the client handle to the metadata store. One instance
// serves a cluster; New and NewLocal build a standalone (single-master,
// non-fault-tolerant) registry, Replicate puts a replicated log behind
// one.
type Registry struct {
	mu       sync.Mutex // the monitor (see the package comment)
	clk      clock
	flows    map[string]*entry
	RPCDelay time.Duration // charged to every remote lookup/publish

	faults *Faults
	repl   *replGroup // nil for a standalone registry

	// events receives structured protocol events (nil when tracing is
	// off); endpoints pick the sink up via EventSink() at open. changed
	// is the clock time of the last change the registry applied, the T
	// of every Status (see status.go).
	events  metrics.EventSink
	changed time.Duration

	// renewRPCs counts lease-renewal round trips (batched renewals count
	// once) — the lease-traffic measure the connection-scaling tests
	// assert stays sublinear in flow count.
	renewRPCs atomic.Uint64
}

// Faults are the registry's RPC fault knobs. Drop is the probability
// that a client↔registry (or master↔replica) message leg is lost, costing
// the sender its retry timeout; Delay and Jitter stretch every leg (the
// jitter drawn from the caller's Ctx.Rand, so a seeded run reproduces).
// CrashMaster crashes the current master of a replicated registry once
// the run is that old (0 = never).
type Faults struct {
	Drop        float64
	Delay       time.Duration
	Jitter      time.Duration
	CrashMaster time.Duration
}

// legDelay is one message leg's latency under the fault knobs.
func (f *Faults) legDelay(p transport.Ctx, base time.Duration) time.Duration {
	if f == nil {
		return base
	}
	base += f.Delay
	if f.Jitter > 0 {
		base += time.Duration(p.Rand().Int63n(int64(f.Jitter)))
	}
	return base
}

// dropLeg draws whether one message leg is lost.
func (f *Faults) dropLeg(p transport.Ctx) bool {
	return f != nil && f.Drop > 0 && p.Rand().Float64() < f.Drop
}

func newRegistry() *Registry {
	return &Registry{flows: make(map[string]*entry)}
}

// LeaseRenewRPCs returns the number of lease-renewal round trips served
// so far (a RenewLeaseBatch counts one whatever it carries).
func (r *Registry) LeaseRenewRPCs() uint64 { return r.renewRPCs.Load() }

type entry struct {
	meta    any
	targets map[int]any
	mem     *Membership

	// seq holds the flow's sequencer recovery state — high-water,
	// per-source delivery counts and the agreed-skip set — maintained by
	// ordered multicast replicate flows (see seqsnap.go). Nil until the
	// first RecordSeqProgress/RecordSeqSkips.
	seq *seqState
}

// UseFaults subjects the registry's RPCs to the fault knobs (nil clears
// them). Replicated registries take them through their ReplicaConfig
// instead.
func (r *Registry) UseFaults(f *Faults) {
	r.mu.Lock()
	r.faults = f
	r.mu.Unlock()
}

// retryTimeout is how long a client waits before retrying a registry
// RPC whose reply was lost (fault injection / replica crash):
// max(4·RPCDelay, 2µs).
func (r *Registry) retryTimeout() time.Duration {
	return max(4*r.RPCDelay, 2*time.Microsecond)
}

// rpc charges one client↔registry round trip, honoring the fault knobs:
// extra delay and jitter stretch the trip, and a dropped leg costs the
// client a retry timeout before it tries again.
func (r *Registry) rpc(p transport.Ctx) {
	if r.repl != nil {
		r.repl.maybeCrashMaster(p)
		if r.repl.crashed[r.repl.master] {
			// Any client RPC that finds the master dead promotes the
			// standby; non-logged calls (lease renewals, reads routed to
			// the master) then proceed against the new one.
			r.repl.elect(p)
		}
	}
	for {
		r.sleep(p, r.faults.legDelay(p, r.RPCDelay))
		if !r.faults.dropLeg(p) {
			return
		}
		r.sleep(p, r.retryTimeout())
	}
}

// invoke runs one mutating registry command and stamps the change.
func (r *Registry) invoke(p transport.Ctx, op func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.run(p, op)
	r.changed = r.clk.now()
	return err
}

// run executes one command. Standalone it is a plain RPC against the
// in-memory map; replicated, the command is first committed to the
// Multi-Paxos log by the current master (electing a new one when the
// master crashed), and retried idempotently when a reply is lost.
func (r *Registry) run(p transport.Ctx, op func() error) error {
	if r.repl == nil {
		r.rpc(p)
		return op()
	}
	return r.repl.invoke(p, op)
}

// update runs one mutating command against the named flow's entry.
func (r *Registry) update(p transport.Ctx, flow string, op func(e *entry) error) error {
	return r.invoke(p, func() error {
		e, ok := r.flows[flow]
		if !ok {
			return fmt.Errorf("registry: flow %q not published", flow)
		}
		return op(e)
	})
}

// Publish registers flow metadata under a unique name. Publishing a name
// twice is an error (flow names identify flows cluster-wide). The flow's
// membership record (see lease.go) is created here, at epoch 0.
func (r *Registry) Publish(p transport.Ctx, name string, meta any) error {
	return r.invoke(p, func() error {
		if _, dup := r.flows[name]; dup {
			return fmt.Errorf("registry: flow %q already published", name)
		}
		r.flows[name] = &entry{meta: meta, targets: make(map[int]any), mem: newMembership(r, name)}
		r.clk.broadcast()
		return nil
	})
}

// Lookup returns the metadata for name without blocking.
func (r *Registry) Lookup(p transport.Ctx, name string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rpc(p)
	e, ok := r.flows[name]
	if !ok {
		return nil, false
	}
	return e.meta, true
}

// WaitFlow blocks until the named flow has been published and returns its
// metadata.
func (r *Registry) WaitFlow(p transport.Ctx, name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rpc(p)
	for {
		if e, ok := r.flows[name]; ok {
			return e.meta
		}
		r.clk.wait(p)
	}
}

// PublishTarget registers per-target connection info (e.g. ring-buffer
// addresses) for target idx of the named flow. The flow must exist.
func (r *Registry) PublishTarget(p transport.Ctx, name string, idx int, info any) error {
	return r.update(p, name, func(e *entry) error {
		if _, dup := e.targets[idx]; dup {
			return fmt.Errorf("registry: flow %q target %d already published", name, idx)
		}
		e.targets[idx] = info
		r.clk.broadcast()
		return nil
	})
}

// RepublishTarget replaces the connection info of a target slot that is
// awaiting rejoin — a re-attaching target allocates fresh rings and must
// publish them *before* Rejoin bumps the epoch, so every source that
// folds the rejoin epoch finds the new rings. Only evicted slots may
// republish: live info must never be clobbered from under connected
// sources.
func (r *Registry) RepublishTarget(p transport.Ctx, name string, idx int, info any) error {
	return r.update(p, name, func(e *entry) error {
		if e.mem.peek(RoleTarget, idx).state != StateEvicted {
			return fmt.Errorf("registry: flow %q target %d is not evicted; republish refused", name, idx)
		}
		e.targets[idx] = info
		r.clk.broadcast()
		return nil
	})
}

// TargetInfo returns target idx's currently published info without
// blocking — sources use it to reconnect to a rejoined target whose
// info was republished.
func (r *Registry) TargetInfo(p transport.Ctx, name string, idx int) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rpc(p)
	e, ok := r.flows[name]
	if !ok {
		return nil, false
	}
	info, ok := e.targets[idx]
	return info, ok
}

// WaitTargetLive blocks until target idx of the named flow has published
// its info (info, false) or was evicted from the flow membership
// (nil, true) — a source must not wait forever on a target that will
// never come up.
func (r *Registry) WaitTargetLive(p transport.Ctx, name string, idx int) (info any, evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rpc(p)
	for {
		if e, ok := r.flows[name]; ok {
			if e.mem.peek(RoleTarget, idx).state == StateEvicted {
				return nil, true
			}
			if info, ok := e.targets[idx]; ok {
				return info, false
			}
		}
		r.clk.wait(p)
	}
}

// Remove deletes a flow's metadata so the name can be reused (flow
// teardown). Like every registry mutation it is a remote RPC: it charges
// the RPC cost and wakes waiters, so a WaitFlow racing a remove-then-
// republish observes the republished flow rather than blocking forever.
func (r *Registry) Remove(p transport.Ctx, name string) {
	_ = r.invoke(p, func() error {
		delete(r.flows, name)
		r.clk.broadcast()
		return nil
	})
}

// Flows returns the number of published flows.
func (r *Registry) Flows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.flows)
}
