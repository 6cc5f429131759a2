package core

import (
	"fmt"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/transport"
)

// Registry is the flow-metadata surface core needs from a registry
// implementation: publish/wait for flow and target metadata, the
// lease/membership control plane, and sequencer recovery state.
// *registry.Registry implements all of it on either backend — on the
// simulation kernel's clock (registry.New) or the host's
// (registry.NewLocal), standalone or replicated — and *registry.Sharded
// routes it by flow name.
type Registry interface {
	// Flow metadata.
	Publish(p transport.Ctx, name string, meta any) error
	Lookup(p transport.Ctx, name string) (any, bool)
	WaitFlow(p transport.Ctx, name string) any
	PublishTarget(p transport.Ctx, name string, idx int, info any) error
	RepublishTarget(p transport.Ctx, name string, idx int, info any) error
	TargetInfo(p transport.Ctx, name string, idx int) (any, bool)
	WaitTargetLive(p transport.Ctx, name string, idx int) (info any, evicted bool)

	// Lease-based membership. MembershipOf is nil only for a name that
	// is not published.
	MembershipOf(name string) *registry.Membership
	AcquireLease(p transport.Ctx, flow string, role registry.Role, idx int, ttl, grace time.Duration) error
	RenewLease(p transport.Ctx, flow string, role registry.Role, idx int) error
	// RenewLeaseBatch renews many slots in one round trip (the batched
	// heartbeat path); it returns the refs that could not be renewed.
	RenewLeaseBatch(p transport.Ctx, refs []registry.LeaseRef) []registry.LeaseRef
	ReleaseLease(p transport.Ctx, flow string, role registry.Role, idx int)
	Rejoin(p transport.Ctx, flow string, role registry.Role, idx, newIdx int) (registry.Rejoined, error)
	SetWatermark(p transport.Ctx, flow string, role registry.Role, idx int, watermark uint64) error
	// Elastic membership (see elastic.go).
	AttachSource(p transport.Ctx, flow string, first, max int) (int, error)
	Seal(p transport.Ctx, flow string) error

	// Sequencer recovery state (ordered multicast).
	RecordSeqProgress(p transport.Ctx, flow string, tgt int, highWater uint64, perSource []uint64) error
	RecordSeqSkips(p transport.Ctx, flow string, epoch uint64, seqs ...uint64) error
	SeqSnapshot(p transport.Ctx, flow string) (registry.SeqSnapshot, bool)

	// Structured protocol events (nil when tracing is off).
	EventSink() metrics.EventSink
}

var (
	_ Registry = (*registry.Registry)(nil)
	_ Registry = (*registry.Sharded)(nil)
)

// membershipOf returns the membership record of a flow the caller has
// already looked up. Every published flow has one; none means the flow
// was Removed between that lookup and now, and the open fails.
func membershipOf(reg Registry, name string) (*registry.Membership, error) {
	if mem := reg.MembershipOf(name); mem != nil {
		return mem, nil
	}
	return nil, fmt.Errorf("dfi: flow %q was removed from the registry during open", name)
}
