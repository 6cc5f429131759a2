// Command benchmark is the repository's performance ledger: six named
// workloads across sim, fabric/chanloop, sharedring, registry and core,
// eight end-to-end metrics measured with tracing off, and a traced run of
// the same workloads that explains each end-to-end number layer by
// layer. BENCHMARK.json at the repository root names its workloads,
// metrics and bounds; README.md in this directory says how to read them.
//
//	go run ./benchmark -workload des_bw_1k -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -seed 1             # every workload, one child process each
//	go run ./benchmark -seed 1 -trace 1    # ... and the per-layer traced runs
//	go run ./benchmark -repeat             # two full sets, compared against the bounds
//	go run ./benchmark -list               # workloads and metrics, nothing runs
//
// With -workload the last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
// The exit code is non-zero when the oracle found a fault.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ledgerDir receives every file a run writes; the repository's
// .gitignore already covers bench/.
const ledgerDir = "bench/ledger"

// watchdogGrace is how long past its measuring time a run may live. A
// flow that hangs on the wall-clock backend has no kernel deadline to
// end it; this does.
const watchdogGrace = 120 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, one child process each)")
		seed    = flag.Int64("seed", 1, "seeds the key generator and sim.New")
		seconds = flag.Float64("seconds", 20, "measure for about this long: rounds of fixed work repeat until it has passed")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics from traced rounds instead of the end-to-end metrics")
		repeat  = flag.Bool("repeat", false, "run two full sets and compare them against the bounds")
		list    = flag.Bool("list", false, "print every workload and metric, run nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace == 1, div: 1}
	var err error
	switch {
	case *list:
		printList(os.Stdout)
	case *name != "":
		err = runOne(*name, opt)
	case *repeat:
		err = runRepeat(opt)
	default:
		_, err = runAll(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	div     int // size divisor, 1 outside tests
}

// stat is one metric of a finished run: the value reported and, for the
// ledger files, the median and the extremes over the rounds.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// result is a finished workload run.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Traced    bool            `json:"traced"`
	Rounds    int             `json:"rounds"`
	Correct   bool            `json:"correct"`
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

// contractLine renders the result as the one JSON object a caller of
// -workload reads from the last line of standard output.
func (res *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// runOne measures one workload in this process, writes its ledger files
// and prints the contract line.
func runOne(name string, opt options) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q; -list names them", name)
	}
	time.AfterFunc(time.Duration(opt.seconds*float64(time.Second))+watchdogGrace, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running %v after its measuring time; giving up\n", name, watchdogGrace)
		os.Exit(1)
	})
	res, spans := measure(w, opt)
	if err := os.MkdirAll(ledgerDir, 0o755); err != nil {
		return err
	}
	file := name + ".json"
	if opt.traced {
		file = name + ".layers.json"
		if spans != nil {
			if err := spans.writeSpans(filepath.Join(ledgerDir, name+".trace.json"), name, opt.seed); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(ledgerDir, file), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, p)
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		return fmt.Errorf("%s: the oracle found %d problems", name, len(res.Problems))
	}
	return nil
}

// measure runs rounds of the workload until opt.seconds have passed (at
// least minRounds) and folds them into a result. With tracing on, three
// rounds in four are traced and the fourth is not, all in this one
// process, so the traced rounds' slowdown is measured against their own
// neighbours. It also returns the tracer of the last traced round, whose
// spans the caller may write out.
func measure(w *workload, opt options) (*result, *tracer) {
	minRounds := 3
	if opt.traced {
		minRounds = 4
	}
	res := &result{Workload: w.name, Seed: opt.seed, Traced: opt.traced, Metrics: map[string]stat{}}
	var (
		untraced   []map[string]float64 // end-to-end values per untraced round
		tputs      []float64            // host_tuples_per_s of every round, in order
		layers     []map[string]float64 // per-layer values per traced round
		pool       = newCPUPool()       // the traced rounds' CPU profiles
		first      map[string]float64   // what must repeat exactly
		lastTracer *tracer
	)
	fault := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	began := time.Now()
	for i := 0; i < minRounds || time.Since(began).Seconds() < opt.seconds; i++ {
		r := &round{seed: opt.seed, div: opt.div, layer: map[string]float64{}}
		if opt.traced && i%4 != 0 {
			r.tr = newTracer()
		}
		// Start every round from a collected heap, so that one round's
		// garbage is not the next one's GC work.
		runtime.GC()
		r.start, r.cpuSetup0 = time.Now(), processCPU()
		r.tr.startRound(r.start)
		w.run(r)
		res.Rounds++
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			fault("round %d: %s", i, p)
		}
		if r.tuples == 0 || r.t1.IsZero() {
			fault("round %d: nothing was measured", i)
			break
		}
		e2e := r.endToEndValues()
		tputs = append(tputs, e2e["host_tuples_per_s"])
		if r.tr == nil {
			untraced = append(untraced, e2e)
		} else {
			lv, err := r.layerValues(pool)
			if err != nil {
				fault("round %d: %v", i, err)
				break
			}
			layers = append(layers, lv)
			lastTracer = r.tr
		}
		if w.des {
			exact := r.exactValues(e2e)
			if first == nil {
				first = exact
			} else if d := diffKeys(first, exact); d != "" {
				fault("round %d: simulated results differ from round 0: %s", i, d)
			}
		}
	}

	if !opt.traced {
		for _, m := range endToEnd {
			if m.name == "host_peak_rss_mib" {
				rss, err := peakRSSMiB()
				if err != nil {
					fault("%v", err)
				}
				res.Metrics[m.name] = single(rss, m.unit)
				continue
			}
			st := fold(untraced, m)
			if m.bestRound {
				st.Value = st.best(m)
			}
			res.Metrics[m.name] = st
		}
	} else if len(layers) > 0 {
		pooled, err := pool.values()
		if err != nil {
			fault("%v", err)
		}
		pooled["bench.trace_overhead_share"] = traceOverhead(tputs)
		for _, m := range perLayer {
			if v, ok := pooled[m.name]; ok {
				res.Metrics[m.name] = single(v, m.unit)
			} else {
				res.Metrics[m.name] = fold(layers, m)
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least one attempt even from a run that broke at once
		res.Failed = 1
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res, lastTracer
}

// traceOverhead is the share of throughput that tracing costs. Every
// fourth round is untraced; each is compared with the traced rounds right
// before and after it, which ran under the same host conditions, and the
// median of those comparisons is taken.
func traceOverhead(tputs []float64) float64 {
	var shares []float64
	for i := 0; i+1 < len(tputs); i += 4 {
		near := tputs[i+1]
		if i > 0 {
			near = (near + tputs[i-1]) / 2
		}
		shares = append(shares, 1-near/tputs[i])
	}
	return median(shares)
}

// exactValues are the numbers of a DES round that a seed must reproduce
// bit for bit: the simulated end-to-end metrics, the event count and
// every count read from the program.
func (r *round) exactValues(e2e map[string]float64) map[string]float64 {
	exact := map[string]float64{
		"tuples":       float64(r.tuples),
		"attempted":    float64(r.attempted),
		"virt_start":   float64(r.v0),
		"virt_elapsed": float64(r.v1 - r.v0),
		"sim.events":   float64(r.ev1 - r.ev0),
	}
	for _, name := range []string{"virt_gib_per_s", "virt_deliver_p50_us", "virt_deliver_p99_us"} {
		exact[name] = e2e[name]
	}
	for k, v := range r.layer {
		exact[k] = v
	}
	return exact
}

func diffKeys(a, b map[string]float64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, v, b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// best returns the round that did best on m.
func (s stat) best(m metric) float64 {
	if m.better == "higher" {
		return s.Max
	}
	return s.Min
}

// fold takes a metric's median, minimum and maximum over rounds and
// reports the median.
func fold(rounds []map[string]float64, m metric) stat {
	vals := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		vals = append(vals, r[m.name])
	}
	if len(vals) == 0 {
		return stat{Unit: m.unit}
	}
	mid := median(vals)
	return stat{mid, m.unit, mid, vals[0], vals[len(vals)-1]}
}

// single is the stat of a metric measured once per run.
func single(v float64, unit string) stat { return stat{v, unit, v, v, v} }

// median sorts vals and returns their median, 0 when there are none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// printList prints every workload and metric with unit, direction and
// bound.
func printList(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-18s %s\n", w.name, w.why)
	}
	fmt.Fprintln(out, "end-to-end metrics (-trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-24s %-6s %-7s bound %2.0f %%  %s\n", m.name, m.unit, m.better, 100*m.bound, m.what)
	}
	fmt.Fprintln(out, "per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-38s %-6s %-7s %s\n", m.name, m.unit, m.better, m.what)
	}
	fmt.Fprintln(out, "not covered yet:", strings.Join(notCovered, "; "))
}
