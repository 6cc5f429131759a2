// Package core implements DFI — the Data Flow Interface (SIGMOD 2021) —
// on top of the simulated RDMA fabric in dfi/internal/fabric.
//
// Flows encapsulate data movement between thread-level end-points. A flow
// is created once with FlowInit (publishing its metadata in the central
// registry), after which source threads attach with SourceOpen and push
// tuples, and target threads attach with TargetOpen and consume tuples:
//
//	spec := core.FlowSpec{
//	    Name:    "shuffle",
//	    Sources: []core.Endpoint{{Node: n0, Thread: 0}},
//	    Targets: []core.Endpoint{{Node: n1, Thread: 0}, {Node: n2, Thread: 0}},
//	    Schema:  sch,
//	    ShuffleKey: 0,
//	}
//	core.FlowInit(p, reg, cluster, spec)
//	// on a source thread:           // on a target thread:
//	src, _ := core.SourceOpen(...)   tgt, _ := core.TargetOpen(...)
//	src.Push(p, tuple)               for { t, ok := tgt.Consume(p); ... }
//	src.Close(p)
//
// Three flow types are provided (paper Table 1): shuffle flows
// (1:1, N:1, 1:N, N:M) with key-based, function-based or direct routing;
// replicate flows (1:N, N:M) with optional switch multicast and global
// ordering; and combiner flows (N:1) with target-side aggregation.
// Flows are either bandwidth-optimized (segment batching) or
// latency-optimized (tuple-sized segments with credit-based flow control).
package core

import (
	"errors"
	"fmt"
	"time"

	"dfi/internal/core/partition"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// FlowType selects one of DFI's three flow types.
type FlowType uint8

// Flow types (paper Table 1).
const (
	ShuffleFlow FlowType = iota
	ReplicateFlow
	CombinerFlow
)

// String names the flow type in lower case (shuffle, replicate,
// combiner). A pure function of the value: safe from any goroutine.
func (t FlowType) String() string {
	switch t {
	case ShuffleFlow:
		return "shuffle"
	case ReplicateFlow:
		return "replicate"
	case CombinerFlow:
		return "combiner"
	}
	return "unknown"
}

// Optimization selects the declared optimization goal of a flow.
type Optimization uint8

// Optimization goals (paper §3.1: declarative optimization).
const (
	// OptimizeBandwidth batches tuples into large segments for maximal
	// link utilization.
	OptimizeBandwidth Optimization = iota
	// OptimizeLatency transfers each tuple immediately in a tuple-sized
	// segment under credit-based flow control.
	OptimizeLatency
)

// String names the optimization goal (bandwidth, latency). A pure
// function of the value: safe from any goroutine.
func (o Optimization) String() string {
	if o == OptimizeLatency {
		return "latency"
	}
	return "bandwidth"
}

// AggFunc enumerates combiner-flow aggregations.
type AggFunc uint8

// Combiner aggregation functions (paper §4.2.3).
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
)

// String names the aggregation in SQL spelling (SUM, COUNT, MIN, MAX).
// A pure function of the value: safe from any goroutine.
func (a AggFunc) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return "unknown"
}

// Endpoint identifies one flow end-point: a worker thread on a node
// (the paper's "address|threadID" notation).
type Endpoint struct {
	Node   transport.Endpoint
	Thread int
}

// String renders the endpoint in the paper's "node|thread" notation.
// It reads only the immutable node ID: safe from any goroutine.
func (e Endpoint) String() string {
	return fmt.Sprintf("%d|%d", e.Node.ID(), e.Thread)
}

// RoutingFunc maps a tuple to a target index, enabling application-defined
// partition functions (range partitioning, radix partitioning, ...).
type RoutingFunc func(t schema.Tuple) int

// Options carries the declarative per-flow settings of Table 1 plus the
// tuning knobs the paper exposes (segment size and count, credit
// threshold).
type Options struct {
	Optimization Optimization

	// SegmentSize is the payload capacity of one ring segment in bytes.
	// Bandwidth-optimized flows default to 8 KiB (the paper's batch size);
	// latency-optimized flows default to one tuple.
	SegmentSize int

	// SegmentsPerRing is the number of segments in each target-side ring
	// (default 32, the paper's default configuration) and in each
	// source-side ring, plus one when RetransmitTimeout is set.
	SegmentsPerRing int

	// Multicast enables switch-side replication for replicate flows: a
	// source's legs, one ring per target, become one leg to a multicast
	// group, and a target consumes in sequence order instead of ring by
	// ring. It is a kind of leg, not another endpoint: every Source and
	// Target operation runs on it, Target.Reattach only on an ordered,
	// leased flow (see ErrUnsupportedOnMulticast). At most 256 sources.
	Multicast bool

	// GlobalOrdering makes all targets of a replicate flow consume tuples
	// in the same global order (ordered unreliable multicast), using a
	// tuple sequencer.
	GlobalOrdering bool

	// GapTimeout is how long a target waits on a missing multicast segment
	// before it NACKs (and between NACK rounds). Default 20µs.
	GapTimeout time.Duration

	// GapNackLimit is how many unanswered NACK rounds a target of a
	// globally ordered flow sends for one missing segment before it
	// escalates to gap agreement, once a source is declared failed.
	// Default 3; negative is invalid.
	GapNackLimit int

	// Aggregation configures a combiner flow: AggFunc applied to ValueCol,
	// grouped by GroupCol.
	Aggregation AggFunc
	GroupCol    int
	ValueCol    int

	// CreditThreshold is the remaining window — ring slots not yet
	// written into, as far as the source knows — at which a
	// latency-optimized source reads the target's consumed counter ahead
	// of need (default SegmentsPerRing/4).
	CreditThreshold int

	// MaxSources, when positive, makes the flow elastic: sources join
	// the running flow with AttachSource and leave with Close, and the
	// flow ends once Sealed and all attached sources closed (extension
	// beyond the paper, see elastic.go). It bounds the total attachments,
	// initial sources included; rings are pre-provisioned per slot.
	MaxSources int

	// Partitioning selects how key-routed tuples map onto targets (see
	// dfi/internal/core/partition). Modulo (the default) is the paper's
	// Hash(key) % targets. Ring routes over a consistent-hash ring with
	// virtual nodes: an eviction then moves only the dead target's arcs
	// (~1/N of the key space) instead of re-indexing the survivor list,
	// and a target that re-attaches (Target.Reattach) reclaims exactly
	// its old arcs. The scheme also governs the deterministic fold of
	// PushTo/RoutingFunc tuples around evicted targets. Replicate flows
	// copy to every live target regardless of scheme.
	Partitioning partition.Scheme

	// RetransmitTimeout enables source-side loss recovery (extension
	// beyond the paper): a writer blocked for this long on remote ring
	// space or delivery confirmation resynchronizes against the
	// ring-header consumed counter and retransmits every written but
	// unconsumed segment still resident in its local ring. Zero (the
	// default) keeps the writer's waits unbounded, which is correct on a
	// fault-free fabric. When set, a source-side ring holds
	// SegmentsPerRing+1 segments so the retransmit window never leaves
	// the local ring, and Close only returns once every segment was
	// confirmed consumed (or the flow is declared broken). On a
	// lease-less multicast flow it also sets the silence bound,
	// RetransmitTimeout·(MaxRetransmits+1): a source waiting on a target
	// it has heard nothing from (no credit, NACK or agreement message) for
	// that long breaks the flow with ErrFlowBroken naming the target, and
	// ends its stream at every target where it stands.
	RetransmitTimeout time.Duration

	// MaxRetransmits bounds consecutive recovery rounds that make no
	// progress before the writer gives up with ErrFlowBroken (default 8
	// when RetransmitTimeout is set), and with RetransmitTimeout the
	// silence bound after which a lease-less multicast source breaks the
	// flow.
	MaxRetransmits int

	// LeaseTTL enables lease-based membership (control-plane failure
	// model, see docs/PROTOCOL.md): every endpoint acquires a registry
	// lease at open and renews it on a background tick (TTL/3). A lease
	// unrenewed for LeaseTTL moves the endpoint to Suspect, and after a
	// further LeaseTTL to Evicted, bumping the flow epoch. Sources
	// re-route an evicted target's key range over the survivors (shuffle/
	// combiner) or drop the dead leg (replicate); targets close the rings
	// of evicted sources and report them in Target.FailedSources. On
	// multicast replicate flows, segment headers carry the membership
	// epoch, an evicted source's gaps go to gap agreement, a target
	// eviction detaches the dead leg from the multicast group, and an
	// evicted target may rejoin via a sequencer snapshot (see
	// docs/PROTOCOL.md, "Ordered replicate failure model"). The lease is
	// the one failure verdict (extension beyond the paper, which names
	// fault tolerance as future work): no endpoint declares a peer dead
	// on its own, so a slow peer is not a failed one, and a flow survives
	// a crashed peer only with it. Target.Reattach, the one way back into
	// a flow, requires it too. Zero (the default) disables leases.
	// Setting LeaseTTL defaults RetransmitTimeout to LeaseTTL/2 —
	// rerouting drains the dead writer's unconsumed window from its
	// local ring, so the resident retransmit window is required.
	LeaseTTL time.Duration

	// SharedRings multiplexes the flow over the cluster's shared
	// per-node-pair rings (dfi/internal/transport/sharedring) instead of
	// private per-(source,target) rings: all shared flows between two
	// nodes ride one fixed-size ring, with per-flow credit accounting and
	// flow-tagged segments demultiplexed at the target. Memory and queue
	// pairs then scale with node pairs, not with flows — the knob for
	// O(1000) concurrent flows (docs/ARCHITECTURE.md, "Flow multiplexing
	// and QoS"). Shared flows are bandwidth-optimized shuffle, replicate
	// or combiner flows and run the same endpoint engine as private
	// rings; latency optimization, multicast, global ordering, elastic
	// membership and per-flow retransmission need a private ring per pair
	// and are rejected by FlowInit. With LeaseTTL set, evictions re-route
	// staged tuples over the survivors, but the in-flight shared-ring
	// window is lost (at-most-once across an eviction — see
	// docs/PROTOCOL.md, "Connection scaling").
	SharedRings bool

	// Tenant attributes the flow's shared-ring credit usage to a named
	// tenant for the ops plane (default "default"). Requires SharedRings.
	Tenant string

	// TenantWeight is the flow's scheduling weight on its shared rings
	// (default 1): each ring's slots divide among its open streams in
	// proportion to weight, so one hot flow cannot starve its neighbors
	// below their share. Requires SharedRings.
	TenantWeight int
}

// Settings no caller has ever set differently, hence not Options: the
// per-tuple CPU cost charged at the source, the per-tuple cost charged at
// a target as a segment is handed out, the additional per-tuple
// aggregation cost at a combiner target (DESIGN.md §6), and — in
// enrollLease — a Suspect endpoint's grace before eviction, one more
// LeaseTTL.
const (
	pushCost    = 12 * time.Nanosecond
	consumeCost = 10 * time.Nanosecond
	aggCost     = 10 * time.Nanosecond
)

// ErrFlowBroken reports that a flow endpoint gave up after bounded
// recovery: the peer is unreachable (e.g. crashed) or made no progress
// through MaxRetransmits consecutive recovery rounds. Returned wrapped,
// so test with errors.Is.
var ErrFlowBroken = errors.New("dfi: flow broken")

// ErrUnsupportedOnMulticast reports an operation that has no meaning on
// a multicast replicate flow: Target.Reattach on a flow that is not both
// ordered and leased (no sequencer snapshot to resume from). Returned
// wrapped, so test with errors.Is.
var ErrUnsupportedOnMulticast = errors.New("dfi: operation not supported on multicast replicate flows")

// ErrUnsupportedOnShared reports an operation that has no meaning on a
// shared-ring flow (Options.SharedRings): Target.Reattach (no per-flow
// window to replay — an evicted target's in-flight segments are gone;
// evictions re-route over the survivors instead). Returned wrapped, so
// test with errors.Is.
var ErrUnsupportedOnShared = errors.New("dfi: operation not supported on shared-ring flows")

// FlowSpec declares a flow: its unique name, participating source and
// target threads, tuple schema, routing, and options.
type FlowSpec struct {
	Name string

	// Type selects shuffle (default), replicate, or combiner semantics.
	Type FlowType

	Sources []Endpoint
	Targets []Endpoint
	Schema  *schema.Schema

	// ShuffleKey is the column index whose hashed value routes each tuple
	// (shuffle flows). Set to -1 when Routing is supplied or when pushes
	// name targets directly.
	ShuffleKey int

	// Routing, when non-nil, overrides key-based routing with an
	// application partition function.
	Routing RoutingFunc

	Options Options

	// part is the flow's routing table, built by normalize from
	// Options.Partitioning and the target count; every endpoint routes
	// through it (directly on the Push hot path, via a liveness View in
	// the eviction/remap paths).
	part *partition.Table
}

// legCount is the number of legs a source routes over, which is what the
// routing table spans: one per target, or the one group leg of a
// multicast flow.
func (s *FlowSpec) legCount() int {
	if s.Options.Multicast {
		return 1
	}
	return len(s.Targets)
}

// table returns the flow's routing table, building the declared one
// lazily for specs that never went through normalize (direct test use).
func (s *FlowSpec) table() *partition.Table {
	if s.part == nil {
		s.part, _ = partition.NewTable(s.Options.Partitioning, s.legCount(), 0)
	}
	return s.part
}

// flowMeta is the registry entry for an initialized flow.
type flowMeta struct {
	spec    FlowSpec
	cluster transport.Transport

	// group is the multicast group of a multicast replicate flow, with one
	// endpoint per target.
	group transport.Group

	// seqMR holds the global tuple-sequencer counter of an ordered
	// replicate flow (hosted on the first target's node).
	seqMR transport.Region

	// pool is the transport's shared-ring pool (SharedRings flows only):
	// the flow's streams multiplex over its per-node-pair rings.
	pool *sharedring.Pool
}

// targetInfo is published by TargetOpen for sources to connect to.
type targetInfo struct {
	mr       transport.Region
	ringOffs []int // ring base offset per source index
	geom     ringGeom
}

// ringGeom captures the layout of one target-side ring.
type ringGeom struct {
	segSize int // payload bytes per segment
	nSegs   int
}

func (g ringGeom) stride() int  { return g.segSize + transport.SegDescBytes }
func (g ringGeom) ringLen() int { return transport.RingHeaderBytes + g.nSegs*g.stride() }
func (g ringGeom) segOff(i int) int {
	return transport.RingHeaderBytes + i*g.stride()
}

// ringGeometry derives the target-ring layout from the normalized options.
// TargetOpen and the writer connect/reattach paths share this single
// derivation so the two sides can never disagree on the layout.
func (o *Options) ringGeometry() ringGeom {
	return ringGeom{segSize: o.SegmentSize, nSegs: o.SegmentsPerRing}
}

// elastic reports whether sources may attach to the running flow.
func (o *Options) elastic() bool { return o.MaxSources > 0 }

// sourceSegments is the number of segments in each source-side ring. With
// recovery on, every unconsumed remote slot must still be resident
// locally, and the +1 keeps the segment being filled out of that window:
// the flush-time guard only proves acked ≥ written − SegmentsPerRing, so
// with equal rings the next fill could overwrite an unacked segment.
func (o *Options) sourceSegments() int {
	if o.RetransmitTimeout > 0 {
		return o.SegmentsPerRing + 1
	}
	return o.SegmentsPerRing
}

// normalize validates the spec and fills defaulted options in place.
func (s *FlowSpec) normalize() error {
	if s.Name == "" {
		return errors.New("dfi: flow name must be non-empty")
	}
	if s.Schema == nil {
		return errors.New("dfi: flow schema required")
	}
	if len(s.Targets) == 0 {
		return errors.New("dfi: flow needs at least one target")
	}
	if len(s.Sources) == 0 && !s.Options.elastic() {
		return errors.New("dfi: flow needs at least one source")
	}
	o := &s.Options
	switch o.Optimization {
	case OptimizeBandwidth:
		if o.SegmentSize == 0 {
			o.SegmentSize = 8 << 10
		}
	case OptimizeLatency:
		if o.SegmentSize == 0 {
			o.SegmentSize = s.Schema.TupleSize()
		}
	default:
		return fmt.Errorf("dfi: unknown optimization %d", o.Optimization)
	}
	if o.SegmentSize < s.Schema.TupleSize() {
		return fmt.Errorf("dfi: segment size %d smaller than tuple size %d", o.SegmentSize, s.Schema.TupleSize())
	}
	if o.SegmentsPerRing == 0 {
		o.SegmentsPerRing = 32
	}
	if o.SegmentsPerRing < 2 {
		return errors.New("dfi: at least 2 segments per ring required for pipelining")
	}
	if o.CreditThreshold == 0 {
		o.CreditThreshold = o.SegmentsPerRing / 4
	}
	if o.GapNackLimit < 0 {
		return errors.New("dfi: GapNackLimit must be non-negative")
	}
	if o.GapNackLimit == 0 {
		o.GapNackLimit = 3
	}
	if !o.SharedRings {
		if o.Tenant != "" || o.TenantWeight != 0 {
			return errors.New("dfi: Tenant/TenantWeight require Options.SharedRings")
		}
	} else {
		// Shared-ring admission: only what genuinely needs a private ring
		// per pair — tuple-granular credit loops, multicast groups,
		// per-slot ring provisioning, and the per-flow retransmit window —
		// is rejected up front rather than silently degraded.
		if o.Optimization == OptimizeLatency {
			return errors.New("dfi: SharedRings requires a bandwidth-optimized flow (latency mode needs a private ring per pair)")
		}
		if o.Multicast || o.GlobalOrdering {
			return errors.New("dfi: SharedRings cannot combine with multicast/global ordering")
		}
		if o.elastic() {
			return errors.New("dfi: SharedRings cannot combine with elastic membership")
		}
		if o.RetransmitTimeout > 0 {
			return errors.New("dfi: SharedRings has no per-flow retransmit window")
		}
		if o.TenantWeight < 0 {
			return errors.New("dfi: TenantWeight must be non-negative")
		}
		if o.Tenant == "" {
			o.Tenant = "default"
		}
		if o.TenantWeight == 0 {
			o.TenantWeight = 1
		}
	}
	if o.LeaseTTL > 0 {
		if o.RetransmitTimeout <= 0 && !o.SharedRings {
			// Rerouting rides on the recovery machinery: bounded waits to
			// escape a dead target, and a resident local window to drain
			// its unconsumed segments from. Half the TTL keeps recovery
			// probing faster than the control plane detects, so a merely
			// slow target is retransmitted to before it can be suspected.
			o.RetransmitTimeout = o.LeaseTTL / 2
		}
	}
	if o.RetransmitTimeout > 0 {
		if o.MaxRetransmits == 0 {
			o.MaxRetransmits = 8
		}
	}
	if o.GapTimeout == 0 {
		o.GapTimeout = 20 * time.Microsecond
	}
	if s.ShuffleKey >= s.Schema.Columns() {
		return fmt.Errorf("dfi: shuffle key column %d out of range", s.ShuffleKey)
	}
	switch s.Type {
	case ShuffleFlow:
		// A negative ShuffleKey without Routing is allowed: pushes must
		// then use PushTo with explicit targets.
		if o.Multicast || o.GlobalOrdering {
			return errors.New("dfi: multicast/ordering are replicate-flow options")
		}
	case ReplicateFlow:
		if o.GlobalOrdering && !o.Multicast {
			return errors.New("dfi: global ordering requires a multicast replicate flow")
		}
	case CombinerFlow:
		// N:1 refers to nodes: multiple target *threads* may share the
		// single target node (Figure 9 scales them).
		for _, t := range s.Targets {
			if t.Node != s.Targets[0].Node {
				return errors.New("dfi: combiner flow targets must share one node (N:1)")
			}
		}
		if o.Multicast || o.GlobalOrdering {
			return errors.New("dfi: multicast/ordering are replicate-flow options")
		}
		if o.GroupCol < 0 || o.GroupCol >= s.Schema.Columns() ||
			o.ValueCol < 0 || o.ValueCol >= s.Schema.Columns() {
			return fmt.Errorf("dfi: combiner group/value column out of range")
		}
	default:
		return fmt.Errorf("dfi: unknown flow type %d", s.Type)
	}
	if o.Multicast && s.Type != ReplicateFlow {
		return errors.New("dfi: multicast requires a replicate flow")
	}
	if o.Multicast && len(s.Sources) > maxMcSources {
		return fmt.Errorf("dfi: a multicast flow carries its source index in one byte: %d sources exceed the limit of %d", len(s.Sources), maxMcSources)
	}
	if o.elastic() {
		if o.Multicast {
			return errors.New("dfi: elastic flows do not support multicast replicate transport")
		}
		if o.MaxSources < len(s.Sources) {
			return fmt.Errorf("dfi: MaxSources %d below initial source count %d", o.MaxSources, len(s.Sources))
		}
	}
	part, err := partition.NewTable(o.Partitioning, s.legCount(), 0)
	if err != nil {
		return err
	}
	s.part = part
	return nil
}

// FlowInit validates the spec and publishes the flow in the registry,
// making it available cluster-wide (paper Figure 1, upper half). For
// multicast replicate flows it also creates the switch multicast group,
// and for globally ordered flows the tuple-sequencer counter.
func FlowInit(p transport.Ctx, reg Registry, cluster transport.Transport, spec FlowSpec) error {
	if err := spec.normalize(); err != nil {
		return err
	}
	meta := &flowMeta{spec: spec, cluster: cluster}
	if spec.Options.SharedRings {
		meta.pool = sharedring.PoolOf(cluster, sharedring.Config{})
		if sp := meta.pool.Config().SlotPayload; spec.Options.SegmentSize > sp {
			return fmt.Errorf("dfi: segment size %d exceeds the shared-ring slot payload %d", spec.Options.SegmentSize, sp)
		}
	}
	if spec.Options.Multicast {
		nodes := make([]transport.Endpoint, len(spec.Targets))
		for i, t := range spec.Targets {
			nodes[i] = t.Node
		}
		meta.group = cluster.Multicast(nodes...)
		if spec.Options.GlobalOrdering {
			meta.seqMR = cluster.OpenRegion(spec.Targets[0].Node, 8)
		}
	}
	return reg.Publish(p, spec.Name, meta)
}

// lookupFlow retrieves flow metadata, blocking until the flow is
// initialized.
func lookupFlow(p transport.Ctx, reg Registry, name string) *flowMeta {
	return reg.WaitFlow(p, name).(*flowMeta)
}

// routeIndex computes a tuple's declared route: the RoutingFunc when
// supplied, otherwise the partitioner's full-membership home for the
// tuple's shuffle key (the Push hot path; liveness-aware remapping
// lives in lifecycle.go).
func routeIndex(spec *FlowSpec, t schema.Tuple) int {
	if spec.Routing != nil {
		return spec.Routing(t)
	}
	return spec.table().Home(spec.Schema.KeyUint64(t, spec.ShuffleKey))
}
