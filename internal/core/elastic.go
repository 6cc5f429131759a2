package core

import (
	"fmt"

	"dfi/internal/transport"
)

// Elastic flows implement the paper's second stated avenue of future work
// (§7): "elasticity of flows to add/remove nodes at runtime".
//
// A flow initialized with a positive Options.MaxSources pre-provisions
// ring buffers for that many source threads; sources then join a *running*
// flow with AttachSource and leave it with the ordinary Close. As on every
// flow, membership is the registry record: an attach claims its next
// source slot, Seal sets its flag, each bumps the epoch, and targets fold
// both in (Target.syncMembership) — a claimed slot starts being polled,
// and the flow ends once sealed and every claimed slot has closed.
//
// This is an extension beyond the paper's implementation; none of the
// figure reproductions use it.

// elasticFlow looks the named flow up and checks that it is elastic.
func elasticFlow(p transport.Ctx, reg Registry, name string) (*flowMeta, error) {
	meta := lookupFlow(p, reg, name)
	if !meta.spec.Options.elastic() {
		return nil, fmt.Errorf("dfi: flow %q is not elastic", name)
	}
	return meta, nil
}

// AttachSource joins a running elastic flow from the given endpoint and
// returns a Source bound to a fresh slot. Slots are not recycled: the
// total number of attachments over the flow's lifetime (initial sources
// included) is bounded by Options.MaxSources.
func AttachSource(p transport.Ctx, reg Registry, name string, ep Endpoint) (*Source, error) {
	meta, err := elasticFlow(p, reg, name)
	if err != nil {
		return nil, err
	}
	spec := &meta.spec
	idx, err := reg.AttachSource(p, name, len(spec.Sources), spec.Options.MaxSources)
	if err != nil {
		return nil, err
	}
	s := &Source{meta: meta, spec: spec, idx: idx, node: ep.Node, reg: reg}
	if err := s.acquireSourceLease(p, reg, name); err != nil {
		return nil, err
	}
	return s, s.connectAll(p, name)
}

// Seal forbids further attaches; targets reach FLOW_END once every
// attached source has closed. Sealing an already sealed flow is a no-op.
func Seal(p transport.Ctx, reg Registry, name string) error {
	if _, err := elasticFlow(p, reg, name); err != nil {
		return err
	}
	return reg.Seal(p, name)
}

// Attached returns the number of sources that have joined the elastic
// flow so far (including initial sources).
func Attached(p transport.Ctx, reg Registry, name string) (int, error) {
	meta, err := elasticFlow(p, reg, name)
	if err != nil {
		return 0, err
	}
	mem, err := membershipOf(reg, name)
	if err != nil {
		return 0, err
	}
	return len(meta.spec.Sources) + mem.Attached(), nil
}
