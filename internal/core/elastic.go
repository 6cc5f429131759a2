package core

import (
	"errors"
	"fmt"

	"dfi/internal/transport"
)

// Elastic flows implement the paper's second stated avenue of future work
// (§7): "elasticity of flows to add/remove nodes at runtime".
//
// A flow initialized with Options.Elastic pre-provisions ring buffers for
// up to Options.MaxSources source threads; sources then join a *running*
// flow with AttachSource and leave it with the ordinary Close. Targets
// keep consuming across membership changes: a closed slot stops
// contributing, a newly attached slot starts being polled, and the flow
// only ends once it has been Sealed (no further attaches) and every
// attached source has closed.
//
// Like the SHARP combiner, this is an extension beyond the paper's
// implementation; none of the figure reproductions use it.

// elasticState is the registry-shared mutable membership of an elastic
// flow. The simulation is single-threaded, so plain fields suffice; the
// condition wakes targets waiting for membership changes.
type elasticState struct {
	attached int
	sealed   bool
	cond     transport.Cond
}

// validateElastic finishes spec validation for elastic flows.
func (s *FlowSpec) validateElastic() error {
	if !s.Options.Elastic {
		return nil
	}
	if s.Options.Multicast {
		return errors.New("dfi: elastic flows do not support multicast replicate transport")
	}
	if s.Options.MaxSources == 0 {
		s.Options.MaxSources = 2 * len(s.Sources)
	}
	if s.Options.MaxSources < len(s.Sources) {
		return fmt.Errorf("dfi: MaxSources %d below initial source count %d", s.Options.MaxSources, len(s.Sources))
	}
	return nil
}

// AttachSource joins a running elastic flow from the given endpoint and
// returns a Source bound to a fresh slot. Slots are not recycled: the
// total number of attachments over the flow's lifetime (initial sources
// included) is bounded by Options.MaxSources.
func AttachSource(p transport.Ctx, reg Registry, name string, ep Endpoint) (*Source, error) {
	meta := lookupFlow(p, reg, name)
	spec := &meta.spec
	if !spec.Options.Elastic {
		return nil, fmt.Errorf("dfi: flow %q is not elastic", name)
	}
	es := meta.elastic
	if es.sealed {
		return nil, fmt.Errorf("dfi: flow %q is sealed", name)
	}
	if es.attached >= spec.Options.MaxSources {
		return nil, fmt.Errorf("dfi: flow %q at MaxSources=%d", name, spec.Options.MaxSources)
	}
	idx := es.attached
	es.attached++
	spec.Sources = append(spec.Sources, ep)
	es.cond.Broadcast() // wake targets polling membership

	s := &Source{meta: meta, spec: spec, idx: idx, node: ep.Node, reg: reg}
	if err := s.acquireSourceLease(p, reg, name); err != nil {
		return nil, err
	}
	return s, s.connectAll(p, name)
}

// Seal forbids further attaches; targets reach FLOW_END once every
// attached source has closed. Sealing an already sealed flow is a no-op.
func Seal(p transport.Ctx, reg Registry, name string) error {
	meta := lookupFlow(p, reg, name)
	if !meta.spec.Options.Elastic {
		return fmt.Errorf("dfi: flow %q is not elastic", name)
	}
	meta.elastic.sealed = true
	meta.elastic.cond.Broadcast()
	return nil
}

// Attached returns the number of sources that have joined the elastic
// flow so far (including initial sources).
func Attached(p transport.Ctx, reg Registry, name string) (int, error) {
	meta := lookupFlow(p, reg, name)
	if !meta.spec.Options.Elastic {
		return 0, fmt.Errorf("dfi: flow %q is not elastic", name)
	}
	return meta.elastic.attached, nil
}
