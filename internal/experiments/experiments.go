// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated fabric. Each experiment produces one
// or more Tables whose rows mirror the series the paper plots; see
// EXPERIMENTS.md at the repository root for paper-vs-measured values.
//
// All reported times and bandwidths are virtual (deterministic simulator
// time). Workload sizes are scaled down from the paper's testbed; where a
// figure reports absolute runtimes for a fixed input size, the measured
// runtime is linearly extrapolated to the paper's size and both values
// are shown.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks workloads for smoke tests and CI.
	Quick bool
	// Seed for all deterministic randomness.
	Seed int64
}

// Table is one rendered result: a titled grid of rows matching a figure's
// series.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = pad(c, widths[i])
	}
	fmt.Fprintln(w, strings.Join(header, "  "))
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment regenerates one figure or table of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt Options) ([]Table, error)
}

// All lists every experiment in evaluation order.
var All = []Experiment{
	{"fig7a", "Shuffle flow sender bandwidth (1:8), bandwidth-optimized", RunFig7a},
	{"fig7b", "Shuffle flow median round-trip latency vs raw verbs (1:N)", RunFig7b},
	{"fig7c", "Shuffle flow scale-out: aggregated bandwidth (N:N)", RunFig7c},
	{"mem", "§6.1.4 memory consumption of the scale-out configuration", RunMemory},
	{"fig8a", "Replicate flow aggregated receiver bandwidth, naive one-sided (1:8)", RunFig8a},
	{"fig8b", "Replicate flow aggregated receiver bandwidth, multicast (1:8)", RunFig8b},
	{"fig8c", "Replicate flow median latency, naive vs multicast (1:N)", RunFig8c},
	{"fig9", "Combiner flow (8:1) with SUM aggregation: sender bandwidth", RunFig9},
	{"fig10a", "MPI vs DFI point-to-point runtime, single-threaded (16 GiB)", RunFig10a},
	{"fig10b", "MPI vs DFI point-to-point runtime, multi-threaded (64 B tuples)", RunFig10b},
	{"fig11", "MPI_Alltoall vs DFI shuffle, pipelined mini-batches (8:8)", RunFig11},
	{"fig12", "Collective shuffle with a straggler (8:8)", RunFig12},
	{"fig13", "Distributed radix join: DFI vs MPI (phase breakdown)", RunFig13},
	{"fig14", "Join adaptability: radix vs fragment-and-replicate", RunFig14},
	{"fig15", "Consensus: DFI Multi-Paxos and NOPaxos vs DARE", RunFig15},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted as listed.
func IDs() []string {
	ids := make([]string, len(All))
	for i, e := range All {
		ids[i] = e.ID
	}
	return ids
}

// gibps formats a bytes-per-second value in GiB/s.
func gibps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f GiB/s", bytesPerSec/(1<<30))
}

// bw computes bytes/duration as bytes per second.
func bw(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds()
}

// sizeLabel formats a tuple size.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d KiB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// median returns the middle element of a duration sample.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// fmtDur renders a duration with three significant figures.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.3gµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
