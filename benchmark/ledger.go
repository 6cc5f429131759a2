package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// ledger is one full set: every workload's end-to-end metrics and, when
// traced, its per-layer metrics. benchmark/baseline.json is a ledger
// recorded on the reference host.
type ledger struct {
	Host struct {
		NProc  int    `json:"nproc"`
		Go     string `json:"go"`
		OSArch string `json:"os_arch"`
	} `json:"host"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Note       string  `json:"note"`
	// Claim is null: the change that defines the ledger claims no gain.
	Claim      *string           `json:"claim"`
	Rules      []string          `json:"interaction_rules"`
	NotCovered []string          `json:"not_covered"`
	EndToEnd   map[string]result `json:"end_to_end"`
	PerLayer   map[string]result `json:"per_layer,omitempty"`
}

var interactionRules = []string{
	"The *.cpu_ns_per_tuple metrics of a traced run sum to its host_cpu_ns_per_tuple: each is the layer's share of the CPU samples times the getrusage CPU time of the traced timed phases.",
	"On DES one process runs at a time, so a layer can save at most its own cpu_ns_per_tuple; on chan_batch_64 a cheaper source or target side can also shorten the other side's waits.",
	"virt_deliver_* rises with ring depth x segment size before virt_gib_per_s stops rising.",
	"DES host-time spans of blocking calls include other processes' work (the scheduler is cooperative), so DES host time is attributed by profile only and DES spans use the simulated clock.",
	"A change in sim.events with unchanged virt_* is a cheaper schedule; any virt_* drift on a des_* workload means behaviour changed.",
}

// runAll runs every workload in a child process of its own, one after
// another, so that peak RSS and set-up belong to one workload. With
// tracing on, each workload runs a second time traced.
func runAll(opt options) (*ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	led := &ledger{Commit: vcsRevision(), Seed: opt.seed, RunSeconds: opt.seconds,
		Note:  "host_* numbers are comparable only on the same host; virt_* of the des_* workloads repeat exactly for a seed on any host",
		Rules: interactionRules, NotCovered: notCovered,
		EndToEnd: map[string]result{}}
	led.Host.NProc, led.Host.Go, led.Host.OSArch = runtime.NumCPU(), runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH
	passes := []bool{false}
	if opt.traced {
		passes = append(passes, true)
		led.PerLayer = map[string]result{}
	}
	var failed []string
	for _, traced := range passes {
		for _, w := range workloads {
			trace := "0"
			if traced {
				trace = "1"
			}
			// The child's ledger file carries what its result line leaves
			// out (rounds, extremes, the oracle's complaints); a stale one
			// must not stand in for a child that died early.
			file := filepath.Join(ledgerDir, w.name+".json")
			if traced {
				file = filepath.Join(ledgerDir, w.name+".layers.json")
			}
			if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			if runErr != nil {
				failed = append(failed, w.name)
			}
			var res result
			data, err := os.ReadFile(file)
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				return nil, fmt.Errorf("%s (trace %s) left no result (%v): %v", w.name, trace, err, runErr)
			}
			if traced {
				led.PerLayer[w.name] = res
			} else {
				led.EndToEnd[w.name] = res
			}
			printResult(&res)
		}
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(ledgerDir, "ledger.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return led, fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return led, nil
}

func printResult(res *result) {
	kind, metrics := "end to end", endToEnd
	if res.Traced {
		kind, metrics = "per layer", perLayer
	}
	fmt.Printf("%s (%s, %d rounds, correct=%v, %d attempted, %d failed)\n", res.Workload, kind, res.Rounds, res.Correct, res.Attempted, res.Failed)
	for _, m := range metrics {
		s := res.Metrics[m.name]
		fmt.Printf("  %-38s %16.6g %-6s [%.6g .. %.6g]\n", m.name, s.Value, s.Unit, s.Min, s.Max)
	}
}

// runRepeat runs two full untraced sets of the same code and prints, per
// workload and metric, both values, their relative difference and the
// bound. It fails when a pair disagrees beyond its bound, or when a
// simulated metric or a count of a des_* workload differs at all.
func runRepeat(opt options) error {
	opt.traced = false
	var sets [2]*ledger
	for i := range sets {
		fmt.Printf("== set %d ==\n", i+1)
		led, err := runAll(opt)
		if err != nil {
			return err
		}
		sets[i] = led
	}
	fmt.Println("== comparison ==")
	bad := 0
	for _, w := range workloads {
		a, b := sets[0].EndToEnd[w.name], sets[1].EndToEnd[w.name]
		if w.des && a.Attempted/uint64(a.Rounds) != b.Attempted/uint64(b.Rounds) {
			fmt.Printf("%s: attempted per round differs: %d vs %d\n", w.name, a.Attempted/uint64(a.Rounds), b.Attempted/uint64(b.Rounds))
			bad++
		}
		for _, m := range endToEnd {
			x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
			verdict := "ok"
			switch {
			case w.des && strings.HasPrefix(m.name, "virt_") && x != y:
				verdict = "DIFFERS (must repeat exactly)"
				bad++
			case diff > m.bound:
				verdict = "BEYOND BOUND"
				bad++
			}
			fmt.Printf("%-18s %-24s %16.6g %16.6g  diff %6.2f %%  bound %2.0f %%  %s\n", w.name, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload-metric pairs disagree between the two sets", bad)
	}
	return nil
}

// vcsRevision returns the commit the binary was built from, when the
// toolchain stamped one (go build in a git checkout does, go run does
// not), marked when the tree held uncommitted changes.
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = " + uncommitted changes"
			}
		}
	}
	return rev + dirty
}
