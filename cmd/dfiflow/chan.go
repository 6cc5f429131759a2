package main

import (
	"io"
	"sync"

	"dfi/internal/registry"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// desOnlyFlags maps the dfiflow flags -transport=chan cannot honour —
// each is what is being simulated — to the reason. Everything else —
// fleets, partitioning, leases, evictions, rejoins, recovery timeouts,
// combiner, multicast and ordered flows, the registry variants, the ops
// plane — is the same program on either clock. Each flag is rejected by
// name instead of being silently ignored.
var desOnlyFlags = map[string]string{
	"faults": "fault injection hooks into the simulated fabric",
	"seed":   "the chan backend runs on wall clock, not a seeded DES",
	"loss":   "multicast loss is injected by the simulated switch",
}

// lockedWriter serializes writes from concurrent goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// newChanBackend builds the wall-clock backend: chanloop endpoints, real
// goroutines and real bytes, the registry on the wall clock. -lease,
// -evict and -rejoin times are wall-clock there.
func newChanBackend(nodes, shards int, rcfg registry.ReplicaConfig) (*backend, error) {
	reg, err := newRegistry(registry.NewLocal, shards, rcfg)
	if err != nil {
		return nil, err
	}
	net := chanloop.New()
	eps := make([]transport.Endpoint, nodes)
	for i := range eps {
		eps[i] = net.NewEndpoint()
	}
	var wg sync.WaitGroup
	aborted := make(chan struct{})
	return &backend{
		tpt:  net,
		reg:  reg,
		node: func(i int) transport.Endpoint { return eps[i] },
		spawn: func(name string, body func(transport.Ctx)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(net.NewCtx())
			}()
		},
		// An aborted run leaves its blocked goroutines (and the one
		// waiting for them) to the process exit that follows.
		wait: func() error {
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
		abort: func() { close(aborted) },
		clock: "wall",
		via:   " over chan transport",
		rate:  "in-process memory copies",
	}, nil
}
