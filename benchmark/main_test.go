package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// testDiv shrinks every workload to 1/200 of its size, so that all six
// run in a few seconds.
const testDiv = 200

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestNamesMatchBenchmarkJSON pins the three places that name workloads
// and metrics to each other: spec.go, BENCHMARK.json and -list.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var list bytes.Buffer
	printList(&list)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !strings.Contains(list.String(), w.name) {
			t.Errorf("-list omits workload %s", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if !strings.Contains(list.String(), m.name) {
			t.Errorf("-list omits metric %s", m.name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if !strings.Contains(list.String(), m.name) {
			t.Errorf("-list omits metric %s", m.name)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// contractLine is what a caller of -workload parses.
type contractLine struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

func checkContractLine(t *testing.T, res *result, want []metric) {
	t.Helper()
	var line contractLine
	dec := json.NewDecoder(strings.NewReader(res.contractLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: contract line does not parse: %v", res.Workload, err)
	}
	if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d; problems: %v", res.Workload, line.Correct, line.Attempted, line.Failed, res.Problems)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", res.Workload, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.name]
		if !ok || got.Value == nil || got.Unit != m.unit {
			t.Errorf("%s: metric %s missing or without value/unit %s: %+v", res.Workload, m.name, m.unit, got)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at 1/200 size with tracing
// off: the oracle must pass, simulated results must repeat across the
// rounds, and exactly the end-to-end metrics must be emitted, none of
// them zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		res, _ := measure(w, options{seed: 1, div: testDiv})
		checkContractLine(t, res, endToEnd)
		for _, m := range endToEnd {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
	}
}

// TestWorkloadsTraced runs the two workloads that between them touch
// every layer, traced: exactly the per-layer metrics must be emitted and
// the layers each is there for must have been seen.
func TestWorkloadsTraced(t *testing.T) {
	for name, must := range map[string][]string{
		"des_fleet_shared": {"sim.events", "fabric.wr_write", "sharedring.slots_released", "registry.calls_lease_acquire", "registry.lease_renew_rpcs", "core.segments_written"},
		"chan_batch_64":    {"chanloop.wr_write", "core.host_push_ns_per_tuple", "core.host_deliver_p50_us", "bench.spans_recorded"},
	} {
		res, tr := measure(workloadByName(name), options{seed: 1, traced: true, div: testDiv})
		checkContractLine(t, res, perLayer)
		for _, m := range must {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", name, m, res.Metrics[m].Value)
			}
		}
		if tr == nil || len(tr.spans) < 3 {
			t.Fatalf("%s: no spans recorded", name)
		}
		for _, s := range tr.spans[2:] {
			if s.Parent == 0 || s.HostEnd < s.HostStart || s.VirtEnd < s.VirtStart {
				t.Errorf("%s: malformed span %+v", name, s)
				break
			}
		}
	}
}

// TestOracleTrips corrupts what the harness saw, one way at a time, and
// expects the oracle to say so.
func TestOracleTrips(t *testing.T) {
	const size = 64
	pushed := func() (*gen, [][]byte) {
		g := newGen(1, 0, size)
		var tuples [][]byte
		for i := 0; i < 10; i++ {
			tup := make([]byte, size)
			g.fill(tup, g.next(), false, 0)
			tuples = append(tuples, tup)
		}
		return g, tuples
	}
	for name, corrupt := range map[string]func(tuples [][]byte) [][]byte{
		"missing":    func(tuples [][]byte) [][]byte { return tuples[1:] },
		"duplicated": func(tuples [][]byte) [][]byte { return append(tuples, tuples[0]) },
		"wrong key":  func(tuples [][]byte) [][]byte { tuples[3][keyOff] ^= 1; return tuples },
		"torn tail":  func(tuples [][]byte) [][]byte { tuples[3][size-1] ^= 1; return tuples },
	} {
		g, tuples := pushed()
		k := &sink{size: size}
		for _, tup := range corrupt(tuples) {
			k.take(tup)
		}
		r := &round{layer: map[string]float64{}}
		r.settle([]*gen{g}, []*sink{k}, size)
		if r.failed == 0 || len(r.problems) == 0 {
			t.Errorf("%s: the oracle saw nothing wrong", name)
		}
	}

	g, tuples := pushed()
	k := &sink{size: size}
	for _, tup := range tuples {
		k.take(tup)
	}
	r := &round{layer: map[string]float64{}}
	r.settle([]*gen{g}, []*sink{k}, size)
	if r.failed != 0 || len(r.problems) != 0 || r.tuples != 10 || r.attempted != 10 {
		t.Errorf("clean delivery flagged: failed=%d problems=%v", r.failed, r.problems)
	}
}

func TestPercentileInterpolatesWithinTies(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	// Half the mass at 10, half at 20: the median is the boundary.
	if got := percentile([]int64{10, 10, 20, 20}, 0.5); got != 11 {
		t.Errorf("median of {10,10,20,20} = %v, want 11 (the end of the [10,11) bin)", got)
	}
	// All mass at one reading: quantiles spread across its bin.
	same := []int64{7, 7, 7, 7}
	if p50, p99 := percentile(same, 0.5), percentile(same, 0.99); p50 != 7.5 || p99 <= p50 || p99 > 8 {
		t.Errorf("quantiles of a point mass: p50=%v p99=%v", p50, p99)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dfi/internal/sim.(*Kernel).push":                         "sim",
		"dfi/internal/sim.(*Chan[go.shape.struct {}]).Send":       "sim",
		"dfi/internal/fabric.(*writeOp).RunOp":                    "fabric",
		"dfi/internal/transport/chanloop.(*queue).run":            "chanloop",
		"dfi/internal/transport/sharedring.(*Stream).Send":        "sharedring",
		"dfi/internal/registry.(*Registry).rpc":                   "registry",
		"dfi/internal/core.(*Source).Push":                        "core",
		"dfi/internal/core/partition.(*Table).Home":               "partition",
		"dfi/internal/schema.Hash":                                "schema",
		"dfi/internal/metrics.(*Counter).Add":                     "metrics",
		"runtime.memmove":                                         "runtime",
		"sync/atomic.(*Uint64).Add":                               "runtime",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap":        "runtime",
		"main.(*gen).fill":                                        "bench",
		"dfi/benchmark.(*sink).take":                              "bench",
		"dfi/internal/transport.(*Recorder).Trace":                "other",
		"example.com/mod/pkg.F":                                   "other",
		"dfi/internal/core.(*Target).consume[go.shape.a/b.T·1.x]": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

// TestProfileReader profiles a loop of this package and expects the
// in-tree profile.proto reader to find its samples under "bench".
func TestProfileReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot profile: %v", err)
	}
	g := newGen(1, 0, 16)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			spinSink += g.next()
		}
	}
	pprof.StopCPUProfile()
	p := newLayerProfile()
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Skip("the sampler took no sample in 300 ms of CPU")
	}
	if p.ns["bench"]+p.ns["runtime"] < p.total*9/10 || p.ns["bench"] == 0 {
		t.Errorf("layers %v of total %d; other: %s", p.ns, p.total, p.topOther())
	}
	if err := p.add([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}
