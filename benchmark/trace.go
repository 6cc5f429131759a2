package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// Tracing: everything a traced round records beyond the end-to-end
// stamps. It all sits in the harness's own files, around the calls into
// each layer: spans around FlowInit/Open/Push*/Consume*/Close, a
// transport.Tracer counting work requests, a counting core.Registry
// decorator, and CPU profiles of the set-up and timed phases bucketed by
// package. Spans stay in memory until the run ends.
//
// Every method is safe on a nil *tracer and then does nothing, so the
// workloads run the same code with tracing off.

// span is one traced call or block of calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the round itself
	Name   string `json:"name"`
	Flow   int    `json:"flow"` // index of the flow the span belongs to, -1 for none
	Tuples int    `json:"tuples,omitempty"`
	// Start and end on the host's monotonic clock (ns since round start)
	// and on the transport clock (ns; equals the host clock on chanloop).
	HostStart int64 `json:"host_start_ns"`
	HostEnd   int64 `json:"host_end_ns"`
	VirtStart int64 `json:"virt_start_ns"`
	VirtEnd   int64 `json:"virt_end_ns"`
}

// spanTotal sums the ended spans of one name.
type spanTotal struct {
	spans, tuples  int
	hostNs, virtNs int64
}

type tracer struct {
	roundStart time.Time

	mu     sync.Mutex
	spans  []span
	totals map[string]*spanTotal
	phase  int // id of the open set-up or timed span, parent of what starts now

	// Work requests seen by the transport.Tracer hook in the timed phase.
	tpt       transport.Transport
	wireExtra int  // per-message wire overhead of the backend
	virtual   bool // the backend's clock is simulated
	kinds     [6]uint64
	wrBytes   uint64
	flights   []int64

	reg *countingRegistry

	setupProf, timedProf bytes.Buffer
}

func newTracer() *tracer {
	return &tracer{totals: map[string]*spanTotal{}}
}

// startRound opens the round span and the set-up profile.
func (t *tracer) startRound(start time.Time) {
	if t == nil {
		return
	}
	t.roundStart = start
	t.spans = append(t.spans, span{ID: 1, Name: "round", Flow: -1}, span{ID: 2, Parent: 1, Name: "setup", Flow: -1})
	t.phase = 2
	startProfile(&t.setupProf)
}

func startProfile(buf *bytes.Buffer) {
	if err := pprof.StartCPUProfile(buf); err != nil {
		panic(err) // only fails when a profile is already running, which is a harness bug
	}
}

// attach remembers the transport whose work requests the timed phase
// counts.
func (t *tracer) attach(tpt transport.Transport, wireOverhead int, virtual bool) {
	if t == nil {
		return
	}
	t.tpt, t.wireExtra, t.virtual = tpt, wireOverhead, virtual
}

func (t *tracer) hostNow() int64 { return int64(time.Since(t.roundStart)) }

// beginTimed swaps the set-up profile for the timed one and starts
// counting work requests.
func (t *tracer) beginTimed() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	now := t.hostNow()
	t.mu.Lock()
	t.spans[1].HostEnd = now
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: 1, Name: "timed", Flow: -1, HostStart: now})
	t.phase = len(t.spans)
	t.mu.Unlock()
	t.tpt.SetTracer(t)
	startProfile(&t.timedProf)
}

func (t *tracer) endTimed() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	t.tpt.SetTracer(nil)
	now := t.hostNow()
	t.mu.Lock()
	t.spans[t.phase-1].HostEnd = now
	t.spans[0].HostEnd = now
	t.mu.Unlock()
}

// Trace implements transport.Tracer. chanloop's queue workers call it
// concurrently.
func (t *tracer) Trace(op transport.TraceOp) {
	t.mu.Lock()
	t.kinds[op.Kind]++
	t.wrBytes += uint64(op.Bytes)
	t.flights = append(t.flights, int64(op.Arrived-op.Posted))
	t.mu.Unlock()
}

// openSpan is a started span; end files it.
type openSpan struct {
	t      *tracer
	name   string
	flow   int
	parent int
	host   int64
	virt   int64
}

// span starts a span at the caller's transport-clock time.
func (t *tracer) span(name string, flow int, p transport.Ctx) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	parent := t.phase
	t.mu.Unlock()
	return openSpan{t: t, name: name, flow: flow, parent: parent, host: t.hostNow(), virt: int64(p.Now())}
}

func (s openSpan) end(p transport.Ctx) { s.endN(p, 0) }

// endN files the span as covering n tuples.
func (s openSpan) endN(p transport.Ctx, n int) {
	t := s.t
	if t == nil {
		return
	}
	host, virt := t.hostNow(), int64(p.Now())
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: s.parent, Name: s.name, Flow: s.flow, Tuples: n,
		HostStart: s.host, HostEnd: host, VirtStart: s.virt, VirtEnd: virt,
	})
	t.addLocked(s.name, n, host-s.host, virt-s.virt)
	t.mu.Unlock()
}

// add accounts time spent in calls too short to file as spans of their
// own (the rpc workload's PushTo and Consume).
func (t *tracer) add(name string, tuples int, virtNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addLocked(name, tuples, 0, virtNs)
	t.mu.Unlock()
}

func (t *tracer) addLocked(name string, tuples int, hostNs, virtNs int64) {
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.spans++
	tot.tuples += tuples
	tot.hostNs += hostNs
	tot.virtNs += virtNs
}

// countingRegistry decorates a core.Registry with call counts and the
// transport-clock time spent inside the calls. It forwards everything
// else untouched.
type countingRegistry struct {
	core.Registry
	publish, lookup, acquire, renew atomic.Uint64
	waitNs                          atomic.Int64
}

func (t *tracer) wrapRegistry(reg core.Registry) core.Registry {
	if t == nil {
		return reg
	}
	t.reg = &countingRegistry{Registry: reg}
	return t.reg
}

func (c *countingRegistry) note(n *atomic.Uint64, p transport.Ctx, since time.Duration) {
	n.Add(1)
	c.waitNs.Add(int64(p.Now() - since))
}

func (c *countingRegistry) Publish(p transport.Ctx, name string, meta any) error {
	defer c.note(&c.publish, p, p.Now())
	return c.Registry.Publish(p, name, meta)
}

func (c *countingRegistry) PublishTarget(p transport.Ctx, name string, idx int, info any) error {
	defer c.note(&c.publish, p, p.Now())
	return c.Registry.PublishTarget(p, name, idx, info)
}

func (c *countingRegistry) RepublishTarget(p transport.Ctx, name string, idx int, info any) error {
	defer c.note(&c.publish, p, p.Now())
	return c.Registry.RepublishTarget(p, name, idx, info)
}

func (c *countingRegistry) Lookup(p transport.Ctx, name string) (any, bool) {
	defer c.note(&c.lookup, p, p.Now())
	return c.Registry.Lookup(p, name)
}

func (c *countingRegistry) WaitFlow(p transport.Ctx, name string) any {
	defer c.note(&c.lookup, p, p.Now())
	return c.Registry.WaitFlow(p, name)
}

func (c *countingRegistry) TargetInfo(p transport.Ctx, name string, idx int) (any, bool) {
	defer c.note(&c.lookup, p, p.Now())
	return c.Registry.TargetInfo(p, name, idx)
}

func (c *countingRegistry) WaitTargetLive(p transport.Ctx, name string, idx int) (any, bool) {
	defer c.note(&c.lookup, p, p.Now())
	return c.Registry.WaitTargetLive(p, name, idx)
}

func (c *countingRegistry) AcquireLease(p transport.Ctx, flow string, role registry.Role, idx int, ttl, grace time.Duration) error {
	defer c.note(&c.acquire, p, p.Now())
	return c.Registry.AcquireLease(p, flow, role, idx, ttl, grace)
}

func (c *countingRegistry) RenewLease(p transport.Ctx, flow string, role registry.Role, idx int) error {
	defer c.note(&c.renew, p, p.Now())
	return c.Registry.RenewLease(p, flow, role, idx)
}

func (c *countingRegistry) RenewLeaseBatch(p transport.Ctx, refs []registry.LeaseRef) []registry.LeaseRef {
	defer c.note(&c.renew, p, p.Now())
	return c.Registry.RenewLeaseBatch(p, refs)
}

// sharedLayer reads the shared-ring pool from outside: released slots,
// tenant credit counters against the tenants' weight shares, and the
// conservation invariant of every link, which is also an oracle check.
func (r *round) sharedLayer(pool *sharedring.Pool, flows []core.FlowSpec) {
	var released uint64
	failures := 0
	for _, l := range pool.Links() {
		released += l.Released()
		if err := l.CheckConservation(); err != nil {
			failures++
			r.problem("link %d->%d: %v", l.Src().ID(), l.Dst().ID(), err)
		}
	}
	weights := map[string]float64{}
	var weightSum float64
	for _, f := range flows {
		if f.Options.SharedRings {
			weights[f.Options.Tenant] += float64(f.Options.TenantWeight)
			weightSum += float64(f.Options.TenantWeight)
		}
	}
	var acquired, refunded uint64
	for name := range weights {
		acquired += pool.Tenant(name).Acquired.Load()
		refunded += pool.Tenant(name).Refunded.Load()
	}
	var shareErr float64
	for name, w := range weights {
		e := ratio(float64(pool.Tenant(name).Acquired.Load()), float64(acquired)) - w/weightSum
		if e < 0 {
			e = -e
		}
		if e > shareErr {
			shareErr = e
		}
	}
	l := r.layer
	l["sharedring.slots_released"] = float64(released)
	l["sharedring.credits_acquired"] = float64(acquired)
	l["sharedring.credits_refunded"] = float64(refunded)
	l["sharedring.tenant_share_error"] = shareErr
	l["sharedring.conservation_failures"] = float64(failures)
}

// cpuPool gathers the CPU profiles of every traced round of a run. A
// round's timed phase is a few hundred samples at the runtime's 100 Hz,
// too few to split twelve ways, so the layers' shares are taken over all
// rounds together.
//
// A layer's CPU time is its share of the samples times the process CPU
// time getrusage measured over the same phases. The sampler's own total
// is not used: on hosts whose CPU timers tick coarsely it undercounts,
// and bench.profile_cpu_coverage reports by how much.
type cpuPool struct {
	backend    string // "fabric" or "chanloop"
	timed      layerProfile
	setup      layerProfile
	timedCPU   int64 // getrusage over the timed phases, ns
	setupCPU   int64
	tuples     float64
	events     float64
	wrs        float64
	flows      float64
	otherShare float64
}

func newCPUPool() *cpuPool {
	return &cpuPool{timed: newLayerProfile(), setup: newLayerProfile()}
}

// values derives the profile-based metrics.
func (c *cpuPool) values() (map[string]float64, error) {
	out := map[string]float64{}
	layerNs := func(p layerProfile, layer string, cpu int64) float64 {
		return ratio(float64(p.ns[layer]), float64(p.total)) * float64(cpu)
	}
	for _, layer := range cpuLayers {
		name := layer + ".cpu_ns_per_tuple"
		if layer == "other" {
			name = "bench.other_cpu_ns_per_tuple"
		}
		out[name] = layerNs(c.timed, layer, c.timedCPU) / c.tuples
	}
	out["sim.cpu_ns_per_event"] = ratio(layerNs(c.timed, "sim", c.timedCPU), c.events)
	out[c.backend+".cpu_ns_per_wr"] = ratio(layerNs(c.timed, c.backend, c.timedCPU), c.wrs)
	out["registry.cpu_us_per_flow"] = ratio(layerNs(c.setup, "registry", c.setupCPU)/1e3, c.flows)
	out["bench.profile_cpu_coverage"] = ratio(float64(c.timed.total), float64(c.timedCPU))
	if share := ratio(float64(c.timed.ns["other"]), float64(c.timed.total)); share > 0.05 {
		return out, fmt.Errorf("%.1f %% of CPU samples fall in no named layer (top: %s)", 100*share, c.timed.topOther())
	}
	return out, nil
}

// layerValues derives the per-layer metrics of a traced round that come
// from counts, clocks and spans, and adds the round's profiles to pool.
func (r *round) layerValues(pool *cpuPool) (map[string]float64, error) {
	t := r.tr
	if err := pool.timed.add(t.timedProf.Bytes()); err != nil {
		return nil, fmt.Errorf("timed-phase profile: %w", err)
	}
	if err := pool.setup.add(t.setupProf.Bytes()); err != nil {
		return nil, fmt.Errorf("set-up profile: %w", err)
	}

	tuples := float64(r.tuples)
	wall := r.t1.Sub(r.t0).Seconds()
	out := map[string]float64{}
	for k, v := range r.layer {
		out[k] = v
	}

	events := float64(r.ev1 - r.ev0)
	out["sim.events"] = events
	out["sim.events_per_tuple"] = events / tuples
	out["sim.host_events_per_s"] = events / wall

	var wrs uint64
	for _, n := range t.kinds {
		wrs += n
	}
	sort.Slice(t.flights, func(i, j int) bool { return t.flights[i] < t.flights[j] })
	backend, clock := "chanloop", "host"
	if t.virtual {
		backend, clock = "fabric", "virt"
		out["fabric.wr_send"] = float64(t.kinds[transport.OpSend])
		out["fabric.wr_atomic"] = float64(t.kinds[transport.OpFetchAdd] + t.kinds[transport.OpCompareSwap])
		out["fabric.wire_bytes_per_payload_byte"] = ratio(float64(t.wrBytes+wrs*uint64(t.wireExtra)), float64(r.payload))
	}
	out[backend+".wr_write"] = float64(t.kinds[transport.OpWrite])
	out[backend+".wr_read"] = float64(t.kinds[transport.OpRead])
	out[backend+".wr_per_tuple"] = float64(wrs) / tuples
	out[backend+"."+clock+"_wr_flight_p50_ns"] = percentile(t.flights, 0.50)
	out[backend+"."+clock+"_wr_flight_p99_ns"] = percentile(t.flights, 0.99)

	out["sharedring.tuples_per_slot"] = ratio(tuples, out["sharedring.slots_released"])

	c := t.reg
	calls := c.publish.Load() + c.lookup.Load() + c.acquire.Load() + c.renew.Load()
	out["registry.calls_publish"] = float64(c.publish.Load())
	out["registry.calls_lookup_wait"] = float64(c.lookup.Load())
	out["registry.calls_lease_acquire"] = float64(c.acquire.Load())
	out["registry.calls_lease_renew"] = float64(c.renew.Load())
	out["registry.virt_wait_us_per_call"] = ratio(float64(c.waitNs.Load())/1e3, float64(calls))
	out["registry.virt_setup_us"] = float64(r.v0) / 1e3

	push, consume := t.total("push"), t.total("consume")
	srcOpen, tgtOpen := t.total("source_open"), t.total("target_open")
	if t.virtual {
		out["core.virt_push_ns_per_tuple"] = ratio(float64(push.virtNs), float64(push.tuples))
		out["core.virt_consume_ns_per_tuple"] = ratio(float64(consume.virtNs), float64(consume.tuples))
		out["core.virt_open_us_per_endpoint"] = ratio(float64(srcOpen.virtNs+tgtOpen.virtNs)/1e3, float64(srcOpen.spans+tgtOpen.spans))
	} else {
		out["core.host_push_ns_per_tuple"] = ratio(float64(push.hostNs), float64(push.tuples))
		out["core.host_consume_ns_per_tuple"] = ratio(float64(consume.hostNs), float64(consume.tuples))
		out["core.host_deliver_p50_us"] = percentile(r.deliver, 0.50) / 1e3
		out["core.host_deliver_p99_us"] = percentile(r.deliver, 0.99) / 1e3
	}

	out["runtime.gc_cycles"] = float64(r.ms1.NumGC - r.ms0.NumGC)
	out["runtime.gc_pause_total_ms"] = float64(r.ms1.PauseTotalNs-r.ms0.PauseTotalNs) / 1e6
	out["runtime.alloc_bytes_per_tuple"] = float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc) / tuples
	out["bench.spans_recorded"] = float64(len(t.spans))
	out["bench.fail_share"] = ratio(float64(r.failed), float64(r.attempted))

	pool.backend = backend
	pool.timedCPU += r.cpu1 - r.cpu0
	pool.setupCPU += r.cpuSetup1 - r.cpuSetup0
	pool.tuples += tuples
	pool.events += events
	pool.wrs += float64(wrs)
	pool.flows += r.flows
	return out, nil
}

func (t *tracer) total(name string) spanTotal {
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// writeSpans writes the spans of one traced round as JSON.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"transport_clock"`
		Spans    []span `json:"spans"`
	}{workload, seed, "host", t.spans}
	if t.virtual {
		doc.Clock = "simulated"
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
