package registry

import (
	"slices"
	"strings"
	"time"

	"dfi/internal/metrics"
)

// Live introspection: the registry is the control-plane hub, so it is
// where a scraper can see the whole cluster — flows, leases, epochs,
// watermarks, and the replication group — as one immutable ClusterStatus
// snapshot, built on read.
//
// A mutation does not touch the snapshot: every command, lease timer and
// rescuing renewal (all inside the monitor) only marks the flow it
// touched stale, with the clock time of the mark, and compares the
// replication group's counters against the last ones seen — a value
// comparison that allocates nothing. Status takes the monitor only when
// something is stale, rebuilds just the stale flows' elements, and
// publishes a new snapshot — one copy of the name-sorted flow slice with
// those elements replaced, inserted or removed — only when an element
// differs from the published one; the snapshot's T is the latest mark
// among the elements that differ. Renewing an Active lease, the steady-
// state command of a leased fleet, marks nothing and costs nothing here,
// and a publish, acquire or release costs a map assignment instead of a
// copy of every flow's status. Published snapshots are never edited, so
// a scraper holding one only ever sees a consistent, possibly stale,
// view.

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

// ClusterStatus is one immutable point-in-time view of the registry:
// every flow with its membership, plus the replication group. T is the
// registry clock's time of the last change visible in it.
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

// Status returns a cluster snapshot current as of the call (empty before
// the first mutation). Safe to call from any goroutine, but not inside
// the registry's monitor: it takes the monitor to fold in stale flows, so
// it must not be called from an event sink (sinks run inside the
// monitor, and may not call back into the registry anyway).
func (r *Registry) Status() *ClusterStatus {
	if !r.stale.Load() {
		return r.loadStatus()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

// loadStatus returns the latest published snapshot, or an empty one.
func (r *Registry) loadStatus() *ClusterStatus {
	if s := r.status.Load(); s != nil {
		return s
	}
	return &ClusterStatus{}
}

// shownFlows returns the published snapshot's flows (nil before the
// first).
func (r *Registry) shownFlows() []FlowStatus {
	if s := r.status.Load(); s != nil {
		return s.Flows
	}
	return nil
}

// statusLocked is Status for callers inside the monitor: it rebuilds
// the stale flows' elements and the replication block, and publishes a
// new snapshot if any of them differs from the published one.
func (r *Registry) statusLocked() *ClusterStatus {
	if !r.stale.Load() {
		return r.loadStatus()
	}
	r.stale.Store(false)
	old := r.loadStatus()
	var (
		t       time.Duration
		changed bool
		flows   = old.Flows // copied before the first edit
	)
	for name, at := range r.staleFlows {
		delete(r.staleFlows, name)
		i, present := flowIndex(flows, name)
		e, ok := r.flows[name]
		var fs FlowStatus
		switch {
		case ok:
			fs = buildFlowStatus(name, e)
			if present && sameFlowStatus(flows[i], fs) {
				continue
			}
		case !present:
			continue
		}
		if !changed {
			flows = slices.Clone(flows)
			changed = true
		}
		t = max(t, at)
		switch {
		case !ok:
			flows = slices.Delete(flows, i, i+1)
		case present:
			flows[i] = fs
		default:
			flows = slices.Insert(flows, i, fs)
		}
	}
	repl := old.Replication
	if r.replSeen != nil && (repl == nil || *repl != *r.replSeen) {
		cp := *r.replSeen
		repl = &cp
		t = max(t, r.replAt)
		changed = true
	}
	if !changed {
		return old
	}
	if len(flows) == 0 {
		flows = nil
	}
	st := &ClusterStatus{T: t, Flows: flows, Replication: repl}
	r.status.Store(st)
	return st
}

// flowIndex finds name in a name-sorted flow slice: its index, or where
// it would be inserted.
func flowIndex(flows []FlowStatus, name string) (int, bool) {
	return slices.BinarySearchFunc(flows, name, func(f FlowStatus, n string) int { return strings.Compare(f.Name, n) })
}

// buildFlowStatus renders one flow's control-plane view, endpoints in
// (role, slot) order.
func buildFlowStatus(name string, e *entry) FlowStatus {
	fs := FlowStatus{Name: name, TargetsPublished: len(e.targets)}
	m := e.mem
	fs.Epoch = m.epoch.Load()
	if len(m.eps) == 0 {
		return fs // Endpoints stays nil and out of the JSON
	}
	eps := make([]EndpointStatus, 0, len(m.eps))
	for k, l := range m.eps {
		ep := EndpointStatus{
			Role:        k.role.String(),
			Slot:        k.idx,
			State:       l.state.String(),
			Incarnation: l.inc,
			Watermark:   l.watermark,
		}
		// Insertion sort: a flow has a handful of endpoints.
		i := len(eps)
		eps = append(eps, ep)
		for ; i > 0 && (eps[i-1].Role > ep.Role || eps[i-1].Role == ep.Role && eps[i-1].Slot > ep.Slot); i-- {
			eps[i] = eps[i-1]
		}
		eps[i] = ep
	}
	fs.Endpoints = eps
	return fs
}

func sameFlowStatus(a, b FlowStatus) bool {
	if a.Name != b.Name || a.Epoch != b.Epoch || a.TargetsPublished != b.TargetsPublished ||
		len(a.Endpoints) != len(b.Endpoints) {
		return false
	}
	for i := range a.Endpoints {
		if a.Endpoints[i] != b.Endpoints[i] {
			return false
		}
	}
	return true
}

// markStale marks flow stale: its element of the snapshot may no
// longer match the registry. Called inside the monitor after a mutation
// that may have touched it; a flow neither published nor in the snapshot
// needs no mark.
func (r *Registry) markStale(flow string) {
	if _, ok := r.flows[flow]; !ok {
		if _, shown := flowIndex(r.shownFlows(), flow); !shown {
			delete(r.staleFlows, flow)
			return
		}
	}
	r.staleFlows[flow] = r.clk.now()
	r.stale.Store(true)
}

// statusChanged marks flow stale and takes in the replication group.
func (r *Registry) statusChanged(flow string) {
	r.markStale(flow)
	r.replChanged()
}

// replChanged compares the replication group's counters, as a value,
// against the last ones seen, and marks the replication block stale when
// they moved. Called inside the monitor.
func (r *Registry) replChanged() {
	g := r.repl
	if g == nil {
		return
	}
	cur := ReplStatus{
		Replicas:      len(g.acceptors),
		Master:        g.master,
		Ballot:        g.ballot,
		Elections:     g.elections,
		Snapshots:     g.snapCount,
		SnapshotIndex: g.snap.Index,
		LogLen:        g.logLen(),
		AppliedSize:   len(g.applied),
	}
	if r.replSeen != nil && *r.replSeen == cur {
		return
	}
	if r.replSeen == nil {
		r.replSeen = new(ReplStatus)
	}
	*r.replSeen = cur
	r.replAt = r.clk.now()
	r.stale.Store(true)
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
