package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed1.golden from this run")

const goldenPath = "testdata/quick_seed1.golden"

// TestAllExperimentsQuick runs every figure/table regenerator at reduced
// scale and compares what `dfibench -quick -seed 1 all` would print —
// every table as Table.Fprint renders it — against the checked-in
// golden file. The DES is deterministic, so a difference is a change in
// simulated behaviour and the PR that makes it must say why; `go test
// ./internal/experiments -run TestAllExperimentsQuick -update` rewrites
// the file.
func TestAllExperimentsQuick(t *testing.T) {
	opt := Options{Quick: true, Seed: 1}
	var got bytes.Buffer
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tabs, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(tabs) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tabs {
				for _, r := range tb.Rows {
					if len(r) != len(tb.Columns) {
						t.Errorf("table %s: row %v has %d cells, want %d", tb.ID, r, len(r), len(tb.Columns))
					}
				}
				tb.Fprint(&got)
			}
		})
	}
	if t.Failed() {
		return
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("%s:%d is the first line that differs\n got: %s\nwant: %s",
				goldenPath, i+1, gl[i], append(wl, "(end of file)")[min(i, len(wl))])
		}
	}
	t.Fatalf("%s has %d lines, this run printed %d", goldenPath, len(wl), len(gl))
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig13"); !ok {
		t.Error("fig13 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
	if len(IDs()) != len(All) {
		t.Error("IDs() length mismatch")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{ID: "x", Title: "T", Columns: []string{"a", "bbbb"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "a", "bbbb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentDeterminism: the same experiment with the same seed must
// produce byte-identical tables (the DES guarantee, end to end).
func TestExperimentDeterminism(t *testing.T) {
	opt := Options{Quick: true, Seed: 9}
	render := func() string {
		tabs, err := RunFig7a(opt)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tabs {
			tb.Fprint(&sb)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("nondeterministic output:\n%s\nvs\n%s", a, b)
	}
}
