package registry

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"time"

	"dfi/internal/metrics"
)

// Live introspection: the registry is the control-plane hub, so it is
// where a scraper can see the whole cluster — flows, leases, epochs,
// watermarks, and the replication group — as one ClusterStatus built
// from the state machine on each read. Mutations do no status work
// beyond stamping the registry's changed time, so a scrape costs one
// pass over the flows under the monitor and the data path nothing.

// EndpointStatus is one endpoint slot's lease view.
type EndpointStatus struct {
	Role        string `json:"role"`
	Slot        int    `json:"slot"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation,omitempty"`
	Watermark   uint64 `json:"watermark,omitempty"`
}

// FlowStatus is one flow's control-plane view.
type FlowStatus struct {
	Name             string           `json:"name"`
	Epoch            uint64           `json:"epoch"`
	TargetsPublished int              `json:"targets_published"`
	Endpoints        []EndpointStatus `json:"endpoints,omitempty"`
}

// ReplStatus describes the replication group (absent standalone).
type ReplStatus struct {
	Replicas      int    `json:"replicas"`
	Master        int    `json:"master"`
	Ballot        uint64 `json:"ballot"`
	Elections     int    `json:"elections"`
	Snapshots     int    `json:"snapshots"`
	SnapshotIndex int    `json:"snapshot_index"`
	LogLen        int    `json:"log_len"`
	AppliedSize   int    `json:"applied_entries"`
}

// ClusterStatus is one point-in-time view of the registry: every flow
// with its membership, plus the replication group. T is the registry
// clock's time of the last change the registry applied — a command, a
// lease-timer transition or a renewal that rescued a Suspect lease.
type ClusterStatus struct {
	T           time.Duration `json:"t"`
	Flows       []FlowStatus  `json:"flows"`
	Replication *ReplStatus   `json:"replication,omitempty"`
}

// SetEventSink installs the structured-event sink that the registry —
// and, through it, the flow endpoints that connect via this registry —
// emit protocol events into. Install before opening flows; nil disables
// tracing. The registry emits inside its monitor, so a sink must not
// call back into the registry.
func (r *Registry) SetEventSink(s metrics.EventSink) {
	r.mu.Lock()
	r.events = s
	r.mu.Unlock()
}

// EventSink returns the installed sink (nil when tracing is off).
func (r *Registry) EventSink() metrics.EventSink {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// emit sends one event to the installed sink, stamping registry events
// with the registry's clock (usable from a timer callback, where no Ctx
// is available).
func (r *Registry) emit(e metrics.Event) {
	if r.events == nil {
		return
	}
	e.T = r.clk.now()
	if e.Node == "" {
		e.Node = "registry"
	}
	r.events.Emit(e)
}

// Status builds a cluster view from the state machine: flows sorted by
// name, each flow's endpoints by (role, slot). Safe to call from any
// goroutine, but not inside the registry's monitor, which it takes — so
// never from an event sink (sinks run inside the monitor, and may not
// call back into the registry anyway). It reads no clock: on the
// discrete-event kernel a scraper is a foreign goroutine.
func (r *Registry) Status() *ClusterStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &ClusterStatus{T: r.changed}
	for _, name := range slices.Sorted(maps.Keys(r.flows)) {
		st.Flows = append(st.Flows, buildFlowStatus(name, r.flows[name]))
	}
	if g := r.repl; g != nil {
		st.Replication = &ReplStatus{
			Replicas:      len(g.acceptors),
			Master:        g.master,
			Ballot:        g.ballot,
			Elections:     g.elections,
			Snapshots:     g.snapCount,
			SnapshotIndex: g.snap.Index,
			LogLen:        g.logLen(),
			AppliedSize:   len(g.applied),
		}
	}
	return st
}

// buildFlowStatus renders one flow's control-plane view, endpoints in
// (role, slot) order.
func buildFlowStatus(name string, e *entry) FlowStatus {
	m := e.mem
	fs := FlowStatus{Name: name, Epoch: m.epoch.Load(), TargetsPublished: len(e.targets)}
	for k, l := range m.eps {
		fs.Endpoints = append(fs.Endpoints, EndpointStatus{
			Role:        k.role.String(),
			Slot:        k.idx,
			State:       l.state.String(),
			Incarnation: l.inc,
			Watermark:   l.watermark,
		})
	}
	slices.SortFunc(fs.Endpoints, func(a, b EndpointStatus) int {
		return cmp.Or(strings.Compare(a.Role, b.Role), cmp.Compare(a.Slot, b.Slot))
	})
	return fs
}

// leaseCount sums endpoints in the given state across the snapshot.
func leaseCount(st *ClusterStatus, state string) (n int) {
	for _, f := range st.Flows {
		for _, ep := range f.Endpoints {
			if ep.State == state {
				n++
			}
		}
	}
	return n
}

// PublishMetrics registers the registry's control-plane gauges on m
// under the dfi_registry_* namespace. All values come from Status, so
// scraping is race-free by construction. Fixed
// cardinality: lease counts are aggregated per state, not per flow.
func (r *Registry) PublishMetrics(m *metrics.Registry) {
	r.PublishMetricsLabeled(m, nil)
}

// PublishMetricsLabeled is PublishMetrics with base labels attached to
// every series — how a sharded registry distinguishes its shards
// (label "shard") without colliding series names.
func (r *Registry) PublishMetricsLabeled(m *metrics.Registry, base metrics.Labels) {
	with := func(extra metrics.Labels) metrics.Labels {
		if len(base) == 0 {
			return extra
		}
		out := metrics.Labels{}
		for k, v := range base {
			out[k] = v
		}
		for k, v := range extra {
			out[k] = v
		}
		return out
	}
	m.RegisterGaugeFunc("dfi_registry_flows", "Published flows.", with(nil),
		func() float64 { return float64(len(r.Status().Flows)) })
	m.RegisterGaugeFunc("dfi_registry_epoch_max", "Highest membership epoch across flows.", with(nil),
		func() float64 {
			var max uint64
			for _, f := range r.Status().Flows {
				if f.Epoch > max {
					max = f.Epoch
				}
			}
			return float64(max)
		})
	for _, state := range []string{"active", "suspect", "evicted", "left"} {
		state := state
		m.RegisterGaugeFunc("dfi_registry_leases", "Endpoint slots by lease state.",
			with(metrics.Labels{"state": state}),
			func() float64 { return float64(leaseCount(r.Status(), state)) })
	}
	repl := func(f func(*ReplStatus) float64) func() float64 {
		return func() float64 {
			if g := r.Status().Replication; g != nil {
				return f(g)
			}
			return 0
		}
	}
	m.RegisterGaugeFunc("dfi_registry_replicas", "Replication group size (0 standalone).", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.Replicas) }))
	m.RegisterGaugeFunc("dfi_registry_master", "Current master replica index.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.Master) }))
	m.RegisterGaugeFunc("dfi_registry_ballot", "Current master ballot.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.Ballot) }))
	m.RegisterCounterFunc("dfi_registry_elections_total", "Completed failover elections.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.Elections) }))
	m.RegisterCounterFunc("dfi_registry_snapshots_total", "State-machine snapshots taken.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.Snapshots) }))
	m.RegisterGaugeFunc("dfi_registry_snapshot_index", "Applied index covered by the latest snapshot.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.SnapshotIndex) }))
	m.RegisterGaugeFunc("dfi_registry_log_len", "Largest retained acceptor log among live replicas.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.LogLen) }))
	m.RegisterGaugeFunc("dfi_registry_applied_entries", "Retained applied-table entries.", with(nil),
		repl(func(g *ReplStatus) float64 { return float64(g.AppliedSize) }))
	m.RegisterCounterFunc("dfi_registry_lease_renew_rpcs_total",
		"Lease-renewal round trips served (a batched renewal counts one).", with(nil),
		func() float64 { return float64(r.LeaseRenewRPCs()) })
}
