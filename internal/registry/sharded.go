package registry

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// Sharded partitions the registry's flow table across N independent
// shards by FNV-1a hash of the flow name. Every flow-scoped operation —
// publish, lookup, lease traffic, sequencer state — touches exactly one
// shard, so control-plane load per shard stays bounded as the flow
// count grows: with O(1000) flows over 16 shards each consensus group
// sees ~1/16 of the lease and publish traffic, and shards can be grown
// independently of data-plane topology. Replicated shards are N
// disjoint Multi-Paxos groups; there is no cross-shard transaction —
// nothing in the flow protocol needs one, because no registry operation
// spans two flows.
//
// Sharded implements core.Registry and the operational surface dfiflow
// drives (Evict, Status, SetEventSink, PublishMetrics), routing each by
// flow name and merging the answers where an aggregate makes sense.
type Sharded struct {
	shards []*Registry
}

// ShardedOf builds n shards with mk (n clamps to at least 1), on
// whatever clock mk's registries run on. With a maker that Replicates,
// every shard is its own replication group: disjoint Multi-Paxos logs,
// so a master failover in one shard leaves the others untouched.
func ShardedOf(n int, mk func() (*Registry, error)) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Registry, n)}
	for i := range s.shards {
		r, err := mk()
		if err != nil {
			return nil, fmt.Errorf("registry shard %d: %w", i, err)
		}
		s.shards[i] = r
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns the shard that owns flow — exported so tests and tools
// can assert placement and read per-shard counters.
func (s *Sharded) Shard(flow string) *Registry { return s.shards[s.index(flow)] }

// ShardAt returns shard i directly.
func (s *Sharded) ShardAt(i int) *Registry { return s.shards[i] }

// index is the FNV-1a hash of flow modulo the shard count, computed in
// place: a batched renewal hashes every ref it carries.
func (s *Sharded) index(flow string) int {
	h := uint32(2166136261)
	for i := 0; i < len(flow); i++ {
		h ^= uint32(flow[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// UseFaults installs the fault knobs on every standalone shard
// (replicated shards take faults via ReplicaConfig).
func (s *Sharded) UseFaults(fp *Faults) {
	for _, r := range s.shards {
		r.UseFaults(fp)
	}
}

// Publish routes to the owning shard.
func (s *Sharded) Publish(p transport.Ctx, name string, meta any) error {
	return s.Shard(name).Publish(p, name, meta)
}

// Lookup routes to the owning shard.
func (s *Sharded) Lookup(p transport.Ctx, name string) (any, bool) {
	return s.Shard(name).Lookup(p, name)
}

// WaitFlow routes to the owning shard.
func (s *Sharded) WaitFlow(p transport.Ctx, name string) any {
	return s.Shard(name).WaitFlow(p, name)
}

// PublishTarget routes to the owning shard.
func (s *Sharded) PublishTarget(p transport.Ctx, flow string, idx int, info any) error {
	return s.Shard(flow).PublishTarget(p, flow, idx, info)
}

// RepublishTarget routes to the owning shard.
func (s *Sharded) RepublishTarget(p transport.Ctx, flow string, idx int, info any) error {
	return s.Shard(flow).RepublishTarget(p, flow, idx, info)
}

// TargetInfo routes to the owning shard.
func (s *Sharded) TargetInfo(p transport.Ctx, flow string, idx int) (any, bool) {
	return s.Shard(flow).TargetInfo(p, flow, idx)
}

// WaitTargetLive routes to the owning shard.
func (s *Sharded) WaitTargetLive(p transport.Ctx, flow string, idx int) (any, bool) {
	return s.Shard(flow).WaitTargetLive(p, flow, idx)
}

// Remove routes to the owning shard.
func (s *Sharded) Remove(p transport.Ctx, name string) {
	s.Shard(name).Remove(p, name)
}

// MembershipOf routes to the owning shard.
func (s *Sharded) MembershipOf(name string) *Membership {
	return s.Shard(name).MembershipOf(name)
}

// AcquireLease routes to the owning shard.
func (s *Sharded) AcquireLease(p transport.Ctx, flow string, role Role, idx int, ttl, grace time.Duration) error {
	return s.Shard(flow).AcquireLease(p, flow, role, idx, ttl, grace)
}

// RenewLease routes to the owning shard.
func (s *Sharded) RenewLease(p transport.Ctx, flow string, role Role, idx int) error {
	return s.Shard(flow).RenewLease(p, flow, role, idx)
}

// RenewLeaseBatch issues one batched renewal RPC per shard that owns
// any of refs, in ascending shard order — lease traffic stays O(shards)
// per heartbeat tick, not O(flows). Each shard's batch keeps the order
// refs had, and refs itself is left as it was. Failed refs from every
// shard are concatenated.
func (s *Sharded) RenewLeaseBatch(p transport.Ctx, refs []LeaseRef) []LeaseRef {
	if len(s.shards) == 1 {
		return s.shards[0].RenewLeaseBatch(p, refs)
	}
	var failed []LeaseRef
	batch := make([]LeaseRef, 0, len(refs))
	for i, r := range s.shards {
		batch = batch[:0]
		for _, ref := range refs {
			if s.index(ref.Flow) == i {
				batch = append(batch, ref)
			}
		}
		if len(batch) > 0 {
			failed = append(failed, r.RenewLeaseBatch(p, batch)...)
		}
	}
	return failed
}

// ReleaseLease routes to the owning shard.
func (s *Sharded) ReleaseLease(p transport.Ctx, flow string, role Role, idx int) {
	s.Shard(flow).ReleaseLease(p, flow, role, idx)
}

// Evict routes to the owning shard.
func (s *Sharded) Evict(p transport.Ctx, flow string, role Role, idx int) error {
	return s.Shard(flow).Evict(p, flow, role, idx)
}

// Rejoin routes to the owning shard.
func (s *Sharded) Rejoin(p transport.Ctx, flow string, role Role, idx, newIdx int) (Rejoined, error) {
	return s.Shard(flow).Rejoin(p, flow, role, idx, newIdx)
}

// SetWatermark routes to the owning shard.
func (s *Sharded) SetWatermark(p transport.Ctx, flow string, role Role, idx int, watermark uint64) error {
	return s.Shard(flow).SetWatermark(p, flow, role, idx, watermark)
}

// AttachSource routes to the owning shard.
func (s *Sharded) AttachSource(p transport.Ctx, flow string, first, max int) (int, error) {
	return s.Shard(flow).AttachSource(p, flow, first, max)
}

// Seal routes to the owning shard.
func (s *Sharded) Seal(p transport.Ctx, flow string) error {
	return s.Shard(flow).Seal(p, flow)
}

// RecordSeqProgress routes to the owning shard.
func (s *Sharded) RecordSeqProgress(p transport.Ctx, flow string, tgt int, highWater uint64, perSource []uint64) error {
	return s.Shard(flow).RecordSeqProgress(p, flow, tgt, highWater, perSource)
}

// RecordSeqSkips routes to the owning shard.
func (s *Sharded) RecordSeqSkips(p transport.Ctx, flow string, epoch uint64, seqs ...uint64) error {
	return s.Shard(flow).RecordSeqSkips(p, flow, epoch, seqs...)
}

// SeqSnapshot routes to the owning shard.
func (s *Sharded) SeqSnapshot(p transport.Ctx, flow string) (SeqSnapshot, bool) {
	return s.Shard(flow).SeqSnapshot(p, flow)
}

// SetEventSink installs sink on every shard (events carry the flow
// name, so a merged stream stays attributable).
func (s *Sharded) SetEventSink(sink metrics.EventSink) {
	for _, r := range s.shards {
		r.SetEventSink(sink)
	}
}

// EventSink returns the sink shared by the shards (the first shard's —
// SetEventSink installs the same one everywhere).
func (s *Sharded) EventSink() metrics.EventSink { return s.shards[0].EventSink() }

// LeaseRenewRPCs sums the renewal round trips across shards.
func (s *Sharded) LeaseRenewRPCs() uint64 {
	var n uint64
	for _, r := range s.shards {
		n += r.LeaseRenewRPCs()
	}
	return n
}

// Status merges the shards' cluster snapshots: flows concatenated and
// re-sorted by name; the replication block is shard 0's, representative
// because every shard runs an identical group configuration (per-shard
// consensus detail is available via ShardAt(i).Status()).
func (s *Sharded) Status() *ClusterStatus {
	merged := &ClusterStatus{}
	for _, r := range s.shards {
		st := r.Status()
		merged.Flows = append(merged.Flows, st.Flows...)
		if merged.Replication == nil {
			merged.Replication = st.Replication
		}
		if st.T > merged.T {
			merged.T = st.T
		}
	}
	slices.SortFunc(merged.Flows, func(a, b FlowStatus) int { return strings.Compare(a.Name, b.Name) })
	return merged
}

// PublishMetrics registers every shard's series on m labeled by shard
// index, plus the aggregate lease-renewal counter.
func (s *Sharded) PublishMetrics(m *metrics.Registry) {
	for i, r := range s.shards {
		r.PublishMetricsLabeled(m, metrics.Labels{"shard": fmt.Sprintf("%d", i)})
	}
	m.RegisterCounterFunc("dfi_registry_lease_renew_rpcs_all_shards_total",
		"Lease-renewal round trips summed over registry shards.", nil,
		func() float64 { return float64(s.LeaseRenewRPCs()) })
}
