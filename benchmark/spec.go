package main

// The ledger's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root lists the same names;
// TestNamesMatchBenchmarkJSON keeps the two from drifting apart.

// workload is one named set of inputs. run builds every object of a
// round afresh from the round's seed, moves the workload's fixed number of
// tuples and leaves its measurements in the round.
type workload struct {
	name string
	why  string
	// des reports whether the transport clock is simulated, so that a
	// seed's virt_* values and counts must repeat exactly.
	des bool
	run func(r *round)
}

var workloads = []workload{
	{"des_bw_1k", "1 KiB tuples, 8 KiB segments, 2 threads to 8 targets: link-saturating, one WRITE per 8 tuples, so sim and fabric do most of the host work", true, runBW1K},
	{"des_small_64", "64 B tuples pushed and consumed one by one: about 0.1 kernel events per tuple, so core, schema and partition do most of the host work", true, runSmall64},
	{"des_rpc_64", "latency-optimized ping/pong, 4 closed-loop clients to 8 servers: credits, tuple-sized segments and process switches per round trip", true, runRPC64},
	{"des_fleet_shared", "256 flows over shared rings, 4 tenants, leases, sharded registry: the only run through mux, sharedring and the batched lease agent; heavy set-up", true, runFleetShared},
	{"des_fleet_private", "the same 256-flow fleet on private rings without leases: the other side of the ring choice, with per-ring memory and set-up", true, runFleetPrivate},
	{"chan_batch_64", "chanloop, 1 source and 1 target goroutine, PushBatch/ConsumeBatch of 64: the only wall-clock backend and the only batched API use; no sim", false, runChanBatch64},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric describes one reported number. bound is the share of the
// parent's median by which an end-to-end metric may worsen (0 for
// per-layer metrics, which carry no bound).
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	what   string
	// bestRound makes a run report its best round for this metric, not
	// its median round. It is set for what is timed on a host clock: the
	// reference host shares its cores, other tenants slow a round by up to
	// a third and never speed one up, and the best of a run's 30 to 100
	// rounds moves half as much from run to run as their median does (see
	// README.md, Steadiness). On the DES workloads the virt_* metrics are
	// the same in every round, so the choice makes no difference there.
	bestRound bool
}

// The end-to-end metrics, reported on every workload with tracing off.
// virt_* are measured on the transport's clock (Ctx.Now()): simulated
// time on the des_* workloads, where a seed's value repeats exactly, and
// the host's monotonic clock on chan_batch_64.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "round start (kernel, cluster, registry construction) to the first timed push, host clock, median round", false},
	{"host_tuples_per_s", "1/s", "higher", 0.25, "tuples returned by Consume* per host second from first push to last target done (rpc: ping and pong tuples), best round", true},
	{"host_cpu_ns_per_tuple", "ns", "lower", 0.25, "process user+system CPU (getrusage) over the timed phase per tuple, best round", true},
	{"host_allocs_per_ktuple", "count", "lower", 0.1, "1 + heap allocations (MemStats.Mallocs) over the timed phase per 1000 tuples, median round; the 1 keeps a zero-alloc path off 0", false},
	{"host_peak_rss_mib", "MiB", "lower", 0.25, "VmHWM of the process at exit", false},
	{"virt_gib_per_s", "GiB/s", "higher", 0.25, "payload bytes per transport-clock second from first push to last target done (chanloop: best round)", true},
	{"virt_deliver_p50_us", "us", "lower", 0.25, "transport-clock Push call to Consume return of sampled tuples, median (rpc: PushTo to the echoed reply, i.e. the round trip; chanloop: best round)", true},
	{"virt_deliver_p99_us", "us", "lower", 0.25, "the same, 99th percentile", true},
}

// The per-layer metrics, reported by a traced run. A metric that does
// not exist on a workload (fabric.* on chanloop, sharedring.* on private
// rings) reads 0 there.
var perLayer = []metric{
	{name: "sim.events", unit: "count", better: "lower", what: "kernel events dispatched in the timed phase"},
	{name: "sim.events_per_tuple", unit: "count", better: "lower", what: "sim.events per tuple"},
	{name: "sim.host_events_per_s", unit: "1/s", better: "higher", what: "sim.events per host second"},
	{name: "sim.cpu_ns_per_event", unit: "ns", better: "lower", what: "profiled CPU in internal/sim per event"},
	{name: "sim.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in internal/sim per tuple"},

	{name: "fabric.wr_write", unit: "count", better: "lower", what: "WRITE work requests seen by the tracer"},
	{name: "fabric.wr_read", unit: "count", better: "lower", what: "READ work requests"},
	{name: "fabric.wr_send", unit: "count", better: "lower", what: "SEND work requests"},
	{name: "fabric.wr_atomic", unit: "count", better: "lower", what: "FETCH_ADD and CMP_SWAP work requests"},
	{name: "fabric.wr_per_tuple", unit: "count", better: "lower", what: "all work requests per tuple"},
	{name: "fabric.wire_bytes_per_payload_byte", unit: "ratio", better: "lower", what: "(message bytes + per-message wire overhead) per tuple payload byte"},
	{name: "fabric.virt_wr_flight_p50_ns", unit: "ns", better: "lower", what: "Arrived-Posted of traced work requests, median"},
	{name: "fabric.virt_wr_flight_p99_ns", unit: "ns", better: "lower", what: "the same, 99th percentile"},
	{name: "fabric.cpu_ns_per_wr", unit: "ns", better: "lower", what: "profiled CPU in internal/fabric per work request"},
	{name: "fabric.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in internal/fabric per tuple"},

	{name: "chanloop.wr_write", unit: "count", better: "lower", what: "WRITE work requests seen by the tracer"},
	{name: "chanloop.wr_read", unit: "count", better: "lower", what: "READ work requests"},
	{name: "chanloop.wr_per_tuple", unit: "count", better: "lower", what: "all work requests per tuple"},
	{name: "chanloop.host_wr_flight_p50_ns", unit: "ns", better: "lower", what: "Arrived-Posted on the host clock, median"},
	{name: "chanloop.host_wr_flight_p99_ns", unit: "ns", better: "lower", what: "the same, 99th percentile"},
	{name: "chanloop.cpu_ns_per_wr", unit: "ns", better: "lower", what: "profiled CPU in transport/chanloop per work request"},
	{name: "chanloop.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in transport/chanloop per tuple"},

	{name: "sharedring.slots_released", unit: "count", better: "lower", what: "sum of Link.Released over the pool's links"},
	{name: "sharedring.credits_acquired", unit: "count", better: "lower", what: "sum of TenantCounters.Acquired"},
	{name: "sharedring.credits_refunded", unit: "count", better: "lower", what: "sum of TenantCounters.Refunded"},
	{name: "sharedring.tuples_per_slot", unit: "count", better: "higher", what: "tuples per released slot"},
	{name: "sharedring.tenant_share_error", unit: "ratio", better: "lower", what: "max over tenants of |acquired share - weight share|"},
	{name: "sharedring.conservation_failures", unit: "count", better: "lower", what: "links whose CheckConservation failed"},
	{name: "sharedring.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in transport/sharedring per tuple"},

	{name: "registry.calls_publish", unit: "count", better: "lower", what: "Publish, PublishTarget and RepublishTarget calls in the round"},
	{name: "registry.calls_lookup_wait", unit: "count", better: "lower", what: "Lookup, WaitFlow, TargetInfo and WaitTargetLive calls"},
	{name: "registry.calls_lease_acquire", unit: "count", better: "lower", what: "AcquireLease calls"},
	{name: "registry.calls_lease_renew", unit: "count", better: "lower", what: "RenewLease and RenewLeaseBatch calls"},
	{name: "registry.lease_renew_rpcs", unit: "count", better: "lower", what: "LeaseRenewRPCs of the registry"},
	{name: "registry.virt_wait_us_per_call", unit: "us", better: "lower", what: "transport-clock time inside registry calls per call"},
	{name: "registry.virt_setup_us", unit: "us", better: "lower", what: "transport-clock time from round start to the first timed push"},
	{name: "registry.cpu_us_per_flow", unit: "us", better: "lower", what: "profiled CPU in internal/registry during set-up per flow"},
	{name: "registry.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in internal/registry in the timed phase per tuple"},

	{name: "core.segments_written", unit: "count", better: "lower", what: "sum of SourceStats.SegmentsWritten"},
	{name: "core.tuples_per_segment", unit: "count", better: "higher", what: "tuples pushed per segment written"},
	{name: "core.footer_probes", unit: "count", better: "lower", what: "sum of SourceStats.FooterProbes"},
	{name: "core.probe_miss_ratio", unit: "ratio", better: "lower", what: "ProbeMisses per FooterProbes"},
	{name: "core.virt_stall_remote_share", unit: "ratio", better: "lower", what: "StallRemote per source-second of the timed phase"},
	{name: "core.virt_stall_local_share", unit: "ratio", better: "lower", what: "StallLocal per source-second"},
	{name: "core.virt_backoff_share", unit: "ratio", better: "lower", what: "Backoff per source-second"},
	{name: "core.virt_push_ns_per_tuple", unit: "ns", better: "lower", what: "transport-clock time inside Push* spans per tuple (0 on chanloop)"},
	{name: "core.virt_consume_ns_per_tuple", unit: "ns", better: "lower", what: "transport-clock time inside Consume* spans per tuple (0 on chanloop)"},
	{name: "core.virt_open_us_per_endpoint", unit: "us", better: "lower", what: "transport-clock time inside SourceOpen/TargetOpen per endpoint (0 on chanloop)"},
	{name: "core.host_push_ns_per_tuple", unit: "ns", better: "lower", what: "host time inside Push* spans per tuple (chanloop only)"},
	{name: "core.host_consume_ns_per_tuple", unit: "ns", better: "lower", what: "host time inside Consume* spans per tuple (chanloop only)"},
	{name: "core.host_deliver_p50_us", unit: "us", better: "lower", what: "host-clock Push call to Consume return, 1 in 4096 tuples, median (chanloop only)"},
	{name: "core.host_deliver_p99_us", unit: "us", better: "lower", what: "the same, 99th percentile (chanloop only)"},
	{name: "core.retransmits", unit: "count", better: "lower", what: "sum of SourceStats.Retransmits; the oracle requires 0"},
	{name: "core.rerouted", unit: "count", better: "lower", what: "sum of SourceStats.Rerouted; the oracle requires 0"},
	{name: "core.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in internal/core per tuple"},

	{name: "partition.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in core/partition per tuple"},
	{name: "schema.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in internal/schema per tuple"},
	{name: "metrics.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in internal/metrics per tuple"},

	{name: "runtime.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in the Go runtime and standard library per tuple"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", what: "MemStats.NumGC over the timed phase"},
	{name: "runtime.gc_pause_total_ms", unit: "ms", better: "lower", what: "MemStats.PauseTotalNs over the timed phase"},
	{name: "runtime.alloc_bytes_per_tuple", unit: "B", better: "lower", what: "MemStats.TotalAlloc over the timed phase per tuple"},

	{name: "bench.cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in this harness (generator, oracle, tracer) per tuple"},
	{name: "bench.other_cpu_ns_per_tuple", unit: "ns", better: "lower", what: "profiled CPU in no named layer per tuple; the run fails above 5 % of samples"},
	{name: "bench.profile_cpu_coverage", unit: "ratio", better: "higher", what: "CPU time the sampler accounted for over the getrusage CPU time of the same phases; the layers' shares are scaled to the latter"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower", what: "1 - traced over untraced host_tuples_per_s, both kinds of round in one process"},
	{name: "bench.spans_recorded", unit: "count", better: "lower", what: "spans kept in memory in one traced round"},
	{name: "bench.fail_share", unit: "ratio", better: "lower", what: "tuples missing, duplicated, corrupted or refused per tuple attempted; the oracle requires 0"},
}

// cpuLayers are the layers a CPU sample can fall into, in report order.
var cpuLayers = []string{"sim", "fabric", "chanloop", "sharedring", "registry", "core", "partition", "schema", "metrics", "runtime", "bench", "other"}

// notCovered is recorded in BENCHMARK.json and the README.
var notCovered = []string{"multicast and ordered replicate flows", "combiner flows", "Reserve/Commit", "sim.ShardGroup", "the replicated registry", "mpi, join and consensus"}
