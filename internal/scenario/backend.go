package scenario

import (
	"fmt"
	"sync"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// Deadline is the virtual time after which a run on the fabric backend
// is abandoned with the kernel's error. No healthy run comes close.
const Deadline = time.Hour

// Backend is everything Run needs to know about the transport under a
// flow: a cluster, a registry on the same clock, and a way to run a set
// of named bodies to completion. Nothing above it knows which one it is.
// A Backend runs one Run; its fields are set by Fabric and Chan and read
// only afterwards.
type Backend struct {
	Transport transport.Transport
	Registry  Registry
	// Node returns the cluster's i-th node (a *fabric.Node on the fabric).
	Node func(i int) transport.Endpoint

	// Spawn starts body on a context of its own; Wait runs every spawned
	// body to completion and returns the kernel's error when the
	// simulation cannot go on (deadlock, deadline). Abort ends Wait
	// although bodies are still blocked — on a flow that will never be
	// published.
	Spawn func(name string, body func(transport.Ctx))
	Wait  func() error
	Abort func()

	// Clock, Via and Rate word a summary of the run.
	Clock string // "virtual" | "wall"
	Via   string // "" | " over chan transport"
	Rate  string // what the sender bandwidth is measured against

	// WireOverhead is the per-message framing the fabric charges, in
	// bytes (0 on chan).
	WireOverhead int

	standalone func() *registry.Registry // a fresh registry on this clock
	faulted    bool                      // a fault plan is installed: endpoint errors are expected
}

// Registry is the registry surface a backend carries: core's, plus
// administrative eviction, ops-plane wiring and the lease-traffic
// counter. *registry.Registry (on either clock, standalone or
// replicated) and *registry.Sharded satisfy it; both are safe for
// concurrent use.
type Registry interface {
	core.Registry
	Evict(p transport.Ctx, flow string, role registry.Role, idx int) error
	SetEventSink(metrics.EventSink)
	PublishMetrics(*metrics.Registry)
	Status() *registry.ClusterStatus
	LeaseRenewRPCs() uint64
}

// RegistryConfig chooses the registry a backend builds on its clock:
// standalone (the zero value), replicated (Replicas > 0), sharded by
// flow name (Shards > 1), or sharded over replicated groups. Faults
// applies in every case.
type RegistryConfig struct {
	Shards int
	registry.ReplicaConfig
}

// UseRegistry replaces b's standalone registry, before Run, with the one
// rc asks for on the same clock. Only Replicate can fail, on the replica
// count.
func (b *Backend) UseRegistry(rc RegistryConfig) error {
	one := func() (*registry.Registry, error) {
		r := b.standalone()
		if rc.Replicas > 0 {
			return r.Replicate(rc.ReplicaConfig)
		}
		r.UseFaults(rc.Faults)
		return r, nil
	}
	var err error
	if rc.Shards > 1 {
		b.Registry, err = registry.ShardedOf(rc.Shards, one)
	} else {
		b.Registry, err = one()
	}
	b.faulted = b.faulted || rc.Faults != nil
	return err
}

// Fabric builds the deterministic simulation: a kernel seeded with seed
// under Deadline, a cluster of nodes configured by cfg (its loss model
// and fault plan included), and a standalone registry on the kernel's
// clock.
func Fabric(nodes int, seed int64, cfg fabric.Config) *Backend {
	k := sim.New(seed)
	k.Deadline = Deadline
	cluster := fabric.NewCluster(k, nodes, cfg)
	standalone := func() *registry.Registry { return registry.New(k) }
	return &Backend{
		Transport: cluster,
		Registry:  standalone(),
		Node:      func(i int) transport.Endpoint { return cluster.Node(i) },
		Spawn: func(name string, body func(transport.Ctx)) {
			k.Spawn(name, func(p *sim.Proc) { body(p) })
		},
		Wait:  k.Run,
		Abort: func() {}, // the kernel sees for itself that what is left is stuck
		Clock: "virtual",
		Rate:  fmt.Sprintf("link speed %.2f GiB/s", cfg.LinkBandwidth/(1<<30)),

		WireOverhead: cfg.WireOverheadBytes,
		standalone:   standalone,
		faulted:      cfg.Faults != nil,
	}
}

// Chan builds the wall-clock backend: nodes chanloop endpoints, real
// goroutines and real bytes, and a standalone registry on the wall clock.
// Lease, eviction and rejoin times are wall-clock there.
func Chan(nodes int) *Backend {
	net := chanloop.New()
	eps := make([]transport.Endpoint, nodes)
	for i := range eps {
		eps[i] = net.NewEndpoint()
	}
	var wg sync.WaitGroup
	aborted := make(chan struct{})
	return &Backend{
		Transport: net,
		Registry:  registry.NewLocal(),
		Node:      func(i int) transport.Endpoint { return eps[i] },
		Spawn: func(name string, body func(transport.Ctx)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(net.NewCtx())
			}()
		},
		// An aborted run leaves its blocked goroutines (and the one
		// waiting for them) to the process exit that follows.
		Wait: func() error {
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-aborted:
			}
			return nil
		},
		Abort: func() { close(aborted) },
		Clock: "wall",
		Via:   " over chan transport",
		Rate:  "in-process memory copies",

		standalone: registry.NewLocal,
	}
}
