package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfi/internal/metrics"
)

func runToString(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String() + errb.String(), code
}

func TestTraceSummaryIncludesWireOverheadLine(t *testing.T) {
	// Regression: the recorder was created without wiring the fabric's
	// WireOverheadBytes through, so the "wire bytes incl. framing" line
	// never printed.
	out, code := runToString(t, "-mb", "1", "-trace", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "wire bytes incl. 42 B/message framing overhead") {
		t.Fatalf("trace summary missing the wire-overhead line:\n%s", out)
	}
}

func TestTraceSummaryReportsDroppedSeparately(t *testing.T) {
	out, code := runToString(t, "-mb", "1", "-trace", "1",
		"-faults", "drop-write=0.05", "-retransmit", "50us", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"message bytes delivered", "bytes never delivered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace summary missing %q:\n%s", want, out)
		}
	}
}

func TestBadConfigExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the message, when set
	}{
		{[]string{"-type", "bogus"}, ""},
		{[]string{"-faults", "no-such-key=1"}, "-faults"},
		{[]string{"-partition", "bogus"}, "-partition"},
		{[]string{"-evict", "notaspec"}, "-evict"},
		{[]string{"-metrics-addr", "256.0.0.1:bad"}, "-metrics-addr"},
		{[]string{"-transport", "bogus"}, ""},
		{[]string{"-tuple", "8"}, "-tuple"},
		{[]string{"-mb", "-1"}, "-mb"},
		{[]string{"-linger", "1s"}, "-linger"},
		{[]string{"-trace", "-1"}, "-trace"},
		{[]string{"-events", "-5"}, "-events"},
	} {
		if out, code := runToString(t, tc.args...); code != 2 || !strings.Contains(out, tc.flag) {
			t.Errorf("args %v: exit %d, want 2 naming %q:\n%s", tc.args, code, tc.flag, out)
		}
	}
}

// TestOutOfRangeFaultInputExitsTwo pins the range checks on fault input.
// Unchecked, a negative delay panicked the kernel, a drop probability
// above 1 ran into the virtual deadline, a crash of a node outside the
// cluster injected nothing, a multicast loss above 1 never ended, and an
// eviction of a target the flow does not have created its slot in the
// membership and bumped the epoch.
func TestOutOfRangeFaultInputExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"delay=", []string{"-faults", "delay=-5us"}},
		{"drop-read=", []string{"-faults", "drop-read=7"}},
		{"crash=", []string{"-faults", "crash=99@10us"}},
		{"-loss", []string{"-type", "replicate", "-multicast", "-loss", "1.5"}},
		{"-evict", []string{"-lease", "20us", "-evict", "7@10us"}},
		{"-rejoin", []string{"-lease", "20us", "-evict", "1@10us", "-rejoin", "-1@30us"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runToString(t, append([]string{"-mb", "1"}, tc.args...)...)
			if code != 2 || !strings.Contains(out, tc.name) {
				t.Errorf("args %v: exit %d, want 2 naming %s:\n%s", tc.args, code, tc.name, out)
			}
		})
	}
}

// TestSharedFlagAdmission pins what -shared composes with. The library's
// admission decides: the flags whose machinery needs a private ring per
// pair, and the tenant flags without -shared, are config errors carrying
// its message (a rejoin is rejected when it is attempted, see
// TestRejoinRejected). Combiner flows and leases run on shared rings, and
// -flows runs a fleet on either kind of ring.
func TestSharedFlagAdmission(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shared", "-latency"}, "dfiflow: dfi: SharedRings requires a bandwidth-optimized flow"},
		{[]string{"-shared", "-multicast"}, "dfiflow: dfi: SharedRings cannot combine with multicast"},
		{[]string{"-shared", "-ordered"}, "dfiflow: dfi: SharedRings cannot combine with multicast"},
		{[]string{"-shared", "-retransmit=50us"}, "dfiflow: dfi: SharedRings has no per-flow retransmit window"},
		{[]string{"-tenant", "batch"}, "dfiflow: dfi: Tenant/TenantWeight require Options.SharedRings"},
		{[]string{"-tenant-weight", "4"}, "dfiflow: dfi: Tenant/TenantWeight require Options.SharedRings"},
	} {
		out, code := runToString(t, append(tc.args, "-mb", "1")...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("args %v: exit %d, want 2 with %q:\n%s", tc.args, code, tc.want, out)
		}
	}
	for _, tc := range []struct {
		args    []string
		shared  bool
		counted bool // every pushed tuple is counted as consumed
	}{
		{[]string{"-shared", "-type", "combiner", "-sources", "3"}, true, false},
		{[]string{"-shared", "-lease", "100us"}, true, true},
		{[]string{"-flows", "4"}, false, true},
		// A leased shared fleet: a finished source's Left state must not
		// close a shared ring that still holds its segments.
		{[]string{"-shared", "-flows", "64", "-lease", "100us", "-reg-shards", "4"}, true, true},
	} {
		out, code := runToString(t, append(tc.args, "-mb", "1")...)
		if code != 0 {
			t.Errorf("args %v: exit %d, want 0:\n%s", tc.args, code, out)
		}
		if got := strings.Contains(out, "credits conserved"); got != tc.shared {
			t.Errorf("args %v: shared-ring accounting in the summary = %v, want %v:\n%s", tc.args, got, tc.shared, out)
		}
		if m := totalsRE.FindStringSubmatch(out); m == nil || (tc.counted && m[1] != m[2]) {
			t.Errorf("args %v: want a totals line with pushed == consumed:\n%s", tc.args, out)
		}
	}
}

// TestChanTransportRunsFlow drives the goroutine/channel backend through
// the CLI: every pushed tuple must be consumed, with the trace recorder
// attached through the transport-neutral AttachRecorder path.
func TestChanTransportRunsFlow(t *testing.T) {
	for _, typ := range []string{"shuffle", "replicate"} {
		out, code := runToString(t, "-transport", "chan", "-type", typ,
			"-mb", "1", "-sources", "2", "-targets", "2", "-trace", "1")
		if code != 0 {
			t.Fatalf("%s: exit %d:\n%s", typ, code, out)
		}
		pushed := totalsRE.FindStringSubmatch(out)
		if pushed == nil {
			t.Fatalf("%s: no totals line:\n%s", typ, out)
		}
		want := pushed[1]
		if typ == "replicate" {
			// Every target consumes every tuple.
			n, _ := strconv.Atoi(pushed[1])
			want = strconv.Itoa(2 * n)
		}
		if pushed[2] != want {
			t.Errorf("%s: pushed %s, consumed %s (want %s)", typ, pushed[1], pushed[2], want)
		}
		if !strings.Contains(out, "traced ") {
			t.Errorf("%s: trace recorder produced no summary:\n%s", typ, out)
		}
	}
}

// TestChanTransportRejectsDESOnlyFlags pins the guard rail: flags whose
// machinery is the simulation itself fail fast with a config error
// instead of being silently ignored — and the flags the one registry,
// the one run and the kernel-free registry constructors made work are
// not among them.
func TestChanTransportRejectsDESOnlyFlags(t *testing.T) {
	if len(desOnlyFlags) > 3 {
		t.Errorf("desOnlyFlags has %d entries, want at most 3", len(desOnlyFlags))
	}
	for _, name := range []string{"lease", "evict", "metrics-addr", "linger", "events", "events-out",
		"type", "flows", "partition", "retransmit", "rejoin",
		"replicas", "snapshot-every", "unlogged-renew", "reg-shards",
		"multicast", "ordered", "gap-nacks"} {
		if why, ok := desOnlyFlags[name]; ok {
			t.Errorf("-%s is still rejected on -transport=chan: %s", name, why)
		}
	}
	for _, args := range [][]string{
		{"-transport", "chan", "-faults", "drop-write=0.01"},
		{"-transport", "chan", "-type", "replicate", "-multicast", "-loss", "0.01"},
		{"-transport", "chan", "-seed", "7"},
	} {
		out, code := runToString(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(out, "-transport=chan") {
			t.Errorf("args %v: error does not name the transport flag:\n%s", args, out)
		}
	}
	if out, code := runToString(t, "-copy"); code != 2 || !strings.Contains(out, "flag provided but not defined") {
		t.Errorf("-copy: exit %d, want 2 as an unknown flag (bytes always move):\n%s", code, out)
	}
}

var totalsRE = regexp.MustCompile(`tuples pushed:\s+(\d+)\s+\(consumed: (\d+)\)`)

// TestSameArgsOnBothTransports runs one argument list per flag the
// merged run admitted on -transport=chan, on the simulated fabric and on
// the wall clock: both exit 0 and push the same number of tuples, and
// where nothing is evicted and tuples are counted every target consumes
// them all.
// Times are chosen to suit both clocks: leases far longer than either
// run, and 8 MiB per source where a target is evicted, so that 500µs is
// mid-flow on the fabric and open-to-early-flow on the wall clock.
func TestSameArgsOnBothTransports(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		copies int // consumed == copies × pushed (0: not counted)
	}{
		{"fleet", []string{"-shared", "-flows", "4"}, 1},
		{"ring-evict", []string{"-partition", "ring", "-lease", "1s", "-evict", "1@500us", "-targets", "3", "-mb", "8"}, 0},
		{"retransmit", []string{"-retransmit", "100ms"}, 1},
		{"lease", []string{"-lease", "1s"}, 1},
		{"combiner", []string{"-type", "combiner", "-sources", "3"}, 0},
		{"rejoin", []string{"-lease", "1s", "-evict", "1@500us", "-rejoin", "1@1ms", "-targets", "3", "-mb", "8"}, 0},
		{"replicas", []string{"-replicas", "3", "-lease", "1s"}, 1},
		{"snapshot-every", []string{"-replicas", "3", "-lease", "1s", "-snapshot-every", "4"}, 1},
		{"unlogged-renew", []string{"-replicas", "3", "-lease", "1s", "-unlogged-renew"}, 1},
		{"reg-shards", []string{"-shared", "-flows", "4", "-lease", "1s", "-reg-shards", "2"}, 1},
		{"multicast", []string{"-type", "replicate", "-multicast", "-sources", "2", "-targets", "4"}, 4},
		{"ordered", []string{"-type", "replicate", "-ordered"}, 2},
		{"gap-nacks", []string{"-type", "replicate", "-ordered", "-gap-nacks", "1"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pushed [2]string
			for i, tr := range []string{"fabric", "chan"} {
				out, code := runToString(t, append([]string{"-transport", tr, "-mb", "1"}, tc.args...)...)
				if code != 0 {
					t.Fatalf("%s: exit %d:\n%s", tr, code, out)
				}
				m := totalsRE.FindStringSubmatch(out)
				if m == nil {
					t.Fatalf("%s: no totals line:\n%s", tr, out)
				}
				pushed[i] = m[1]
				if n, _ := strconv.Atoi(m[1]); tc.copies > 0 && m[2] != strconv.Itoa(tc.copies*n) {
					t.Errorf("%s: pushed %s, consumed %s, want %d copies", tr, m[1], m[2], tc.copies)
				}
			}
			if pushed[0] != pushed[1] {
				t.Errorf("fabric pushed %s tuples, chan %s", pushed[0], pushed[1])
			}
		})
	}
}

// TestRejoinRejected: a rejoin the library refuses exits 1 with the
// refusal, at once. Only a leased private-ring or ordered-multicast
// target re-attaches; a lease-less private-ring rejoin used to wait on
// sources that had long closed and run into the kernel's deadline
// (seconds of host time), so each row is bounded in host time as well.
func TestRejoinRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-retransmit", "20us", "-evict", "1@40us", "-rejoin", "1@400us"}, "LeaseTTL"},
		{[]string{"-shared", "-rejoin=1@300us"}, "shared-ring flows"},
	} {
		start := time.Now()
		out, code := runToString(t, append([]string{"-mb", "1"}, tc.args...)...)
		if code != 1 || !strings.Contains(out, "target 1: rejoin rejected: ") || !strings.Contains(out, tc.want) {
			t.Errorf("args %v: exit %d, want 1 with a rejected rejoin naming %q:\n%s", tc.args, code, tc.want, out)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("args %v: took %v of host time; a refused rejoin must not wait for the deadline", tc.args, took)
		}
	}
}

// TestLeaselessCrashRefused: a node crash without -lease exits 1 at flag
// parsing, naming -lease. A flow learns that a peer is gone only from the
// peer's lapsed lease, so each row would otherwise wait on the dead node
// until the kernel's deadline (before the refusal both ran into it). A
// registry master crash is no node crash: it needs no lease and runs.
func TestLeaselessCrashRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "crash=1@200us", "-retransmit", "40us"},
		{"-type", "replicate", "-ordered", "-faults", "crash=0@200us", "-retransmit", "40us"},
	} {
		start := time.Now()
		out, code := runToString(t, append([]string{"-mb", "1"}, args...)...)
		if code != 1 || !strings.Contains(out, "-faults crash= needs -lease") {
			t.Errorf("args %v: exit %d, want 1 with a refusal naming -lease:\n%s", args, code, out)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("args %v: took %v of host time; a refused crash must not run", args, took)
		}
	}
	if out, code := runToString(t, "-mb", "1", "-replicas", "3", "-faults", "reg-crash-master=5us"); code != 0 {
		t.Errorf("reg-crash-master without -lease: exit %d, want 0:\n%s", code, out)
	}
}

// TestLossyMulticastEnds: an unordered multicast flow losing 2 % of its
// multicast deliveries, whose sources break the flow once a target they
// wait on sends nothing for 20 µs times the retransmission budget,
// recovers every loss by NACK before that bound and ends cleanly: exit 0,
// every target consumed every tuple, none declared failed, in
// milliseconds of host time. So does one losing 10 % under a 10 µs
// bound, where a target spends longer NACKing than the bound without a
// credit to send: its NACKs are proof of life.
func TestLossyMulticastEnds(t *testing.T) {
	for _, args := range [][]string{
		{"-loss", "0.02", "-retransmit", "20us"},
		{"-loss", "0.1", "-retransmit", "10us", "-seed", "1"},
	} {
		start := time.Now()
		out, code := runToString(t, append([]string{"-type", "replicate", "-multicast", "-mb", "1"}, args...)...)
		if code != 0 || strings.Contains(out, "stopped responding") {
			t.Fatalf("args %v: exit %d, want 0 with no target declared failed:\n%s", args, code, out)
		}
		if m := totalsRE.FindStringSubmatch(out); m == nil {
			t.Errorf("args %v: no totals line:\n%s", args, out)
		} else if n, _ := strconv.Atoi(m[1]); m[2] != strconv.Itoa(2*n) {
			t.Errorf("args %v: pushed %s, consumed %s: want both targets to consume every tuple:\n%s", args, m[1], m[2], out)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("args %v: took %v of host time", args, took)
		}
	}
}

// TestDroppedReadSyncEnds: a shared-ring fleet whose credit reads
// (ReadSync, which waits without a timeout) lose a fifth of their
// responses ends like a fault-free one — exit 0, every tuple consumed —
// because the transport retries a dropped ReadSync. A lost response used
// to leave its reader parked forever and every other stream on the link
// polling for the credit it was reading, until the kernel's deadline.
func TestDroppedReadSyncEnds(t *testing.T) {
	start := time.Now()
	out, code := runToString(t, "-shared", "-flows", "4", "-mb", "4", "-faults", "drop-read=0.2", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if m := totalsRE.FindStringSubmatch(out); m == nil || m[1] != m[2] || m[1] != "131072" {
		t.Errorf("want 131072 tuples pushed and consumed:\n%s", out)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("took %v of host time", took)
	}
}

// TestBrokenFlowLeavesEvidence: a flow that breaks with nothing injected
// (a recovery timeout no round trip can meet) still prints the summary
// and writes the event trace before exiting 1 — the run an operator
// wants the trace of. The targets are alive, so the sources' end markers
// still reach them and the run ends long before the kernel's deadline.
func TestBrokenFlowLeavesEvidence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	out, code := runToString(t, "-mb", "1", "-retransmit", "1ns", "-events-out", path)
	if code != 1 || !strings.Contains(out, "flow broken") {
		t.Fatalf("exit %d, want 1 from a broken flow:\n%s", code, out)
	}
	if strings.Contains(out, "dfiflow: sim:") || strings.Contains(out, "done=false") {
		t.Errorf("a target never saw its end markers:\n%s", out)
	}
	if !totalsRE.MatchString(out) {
		t.Errorf("no summary after the broken flow:\n%s", out)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Errorf("event trace not written (%d bytes, err %v)", len(data), err)
	}
}

// TestChanTransportLeaseEvictEvents runs a leased flow on the wall clock
// with one scheduled eviction. The strike may land mid-flow (the source
// re-routes, exit 0) or after a fast run already finished (still exit 0;
// exit 1 only if the flow broke), and either way the event trace must
// show the control plane at work: leases, the eviction, the epoch bump.
func TestChanTransportLeaseEvictEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	out, code := runToString(t, "-transport", "chan", "-lease", "200ms", "-evict", "1@5ms",
		"-targets", "3", "-mb", "8", "-events-out", path)
	if code != 0 && !(code == 1 && strings.Contains(out, "flow broken")) {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "lease renewals:") {
		t.Errorf("no lease summary line:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[metrics.EventType]bool{}
	for _, ln := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var ev metrics.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("not valid JSON: %v\n%s", err, ln)
		}
		seen[ev.Type] = true
	}
	for _, typ := range []metrics.EventType{metrics.EvLease, metrics.EvEviction, metrics.EvEpoch} {
		if !seen[typ] {
			t.Errorf("event trace has no %q event (saw %v)", typ, seen)
		}
	}
}

func TestEventsOutWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	out, code := runToString(t, "-mb", "1", "-events-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no events written")
	}
	for i, ln := range lines {
		var ev metrics.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		if ev.Type == "" || ev.Node == "" {
			t.Fatalf("line %d missing type/node: %s", i, ln)
		}
	}
}

// TestMetricsSmoke drives the full ops plane end to end: run a flow with
// a live metrics endpoint, scrape /metrics, /status and /events once the
// run finishes (during -linger), and assert the scraped counters agree
// exactly with the printed end-of-run summary — on both transports.
func TestMetricsSmoke(t *testing.T) {
	t.Run("fabric", func(t *testing.T) { metricsSmoke(t, "-seed", "42") })
	t.Run("chan", func(t *testing.T) { metricsSmoke(t, "-transport", "chan") })
}

func metricsSmoke(t *testing.T, transportArgs ...string) {
	pr, pw := io.Pipe()
	transcript := &bytes.Buffer{}
	lines := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			transcript.WriteString(sc.Text() + "\n")
			lines <- sc.Text()
		}
		close(lines)
	}()
	go func() {
		// The run lingers far longer than the test needs; the goroutine is
		// abandoned once the test has scraped (test binary exit unwinds it).
		run(append(transportArgs, "-mb", "1", "-sources", "2", "-targets", "2",
			"-metrics-addr", "127.0.0.1:0", "-linger", "120s"), pw, io.Discard)
		pw.Close()
	}()

	waitLine := func(re *regexp.Regexp) []string {
		t.Helper()
		deadline := time.After(60 * time.Second)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					t.Fatalf("output ended before %v matched:\n%s", re, transcript.String())
				}
				if m := re.FindStringSubmatch(ln); m != nil {
					return m
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %v:\n%s", re, transcript.String())
			}
		}
	}

	addr := waitLine(regexp.MustCompile(`^metrics: serving on http://(\S+) `))[1]
	totals := waitLine(regexp.MustCompile(`^tuples pushed:\s+(\d+)\s+\(consumed: (\d+)\)$`))
	waitLine(regexp.MustCompile(`^metrics: lingering`))

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return body
	}

	parsed, err := metrics.ParseText(bytes.NewReader(get("/metrics")))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for name, printed := range map[string]string{
		"dfi_source_tuples_pushed_total":   totals[1],
		"dfi_target_tuples_consumed_total": totals[2],
	} {
		if got := fmt.Sprintf("%.0f", metrics.SumSeries(parsed, name)); got != printed {
			t.Errorf("%s = %s, printed summary says %s", name, got, printed)
		}
	}
	if metrics.SumSeries(parsed, "dfi_registry_flows") != 1 {
		t.Errorf("dfi_registry_flows = %v, want 1", metrics.SumSeries(parsed, "dfi_registry_flows"))
	}

	var status struct {
		Flows []struct {
			Name string `json:"name"`
		} `json:"flows"`
	}
	if err := json.Unmarshal(get("/status"), &status); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if len(status.Flows) != 1 || status.Flows[0].Name != "dfiflow" {
		t.Fatalf("/status flows = %+v, want the dfiflow flow", status.Flows)
	}

	evLines := strings.Split(strings.TrimRight(string(get("/events")), "\n"), "\n")
	if len(evLines) == 0 || evLines[0] == "" {
		t.Fatal("/events returned no events")
	}
	var ev metrics.Event
	if err := json.Unmarshal([]byte(evLines[0]), &ev); err != nil {
		t.Fatalf("/events line is not valid JSON: %v", err)
	}
}
