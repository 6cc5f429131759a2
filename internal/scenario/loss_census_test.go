package scenario

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// lossRow is one lossy-multicast scenario: the dfiflow run `-type
// replicate -multicast` (with -ordered when ordered) losing each
// multicast delivery with probability loss, recovered by NACKs, with
// sources breaking the flow once a target they wait on has sent nothing
// — no credit, no NACK — for retransmit times the retransmission budget.
type lossRow struct {
	ordered              bool
	loss                 float64
	retransmit           time.Duration
	mb, sources, targets int
}

func (r lossRow) String() string {
	kind := "unordered"
	if r.ordered {
		kind = "ordered"
	}
	return fmt.Sprintf("%s/loss=%v/retransmit=%dus/mb=%d/%dx%d", kind, r.loss, r.retransmit.Microseconds(), r.mb, r.sources, r.targets)
}

// command is the dfiflow command line that runs the same scenario.
func (r lossRow) command(seed int64) string {
	cmd := "dfiflow -type replicate -multicast"
	if r.ordered {
		cmd += " -ordered"
	}
	return cmd + fmt.Sprintf(" -mb %d -sources %d -targets %d -loss %v -retransmit %dus -seed %d",
		r.mb, r.sources, r.targets, r.loss, r.retransmit.Microseconds(), seed)
}

// lossRows is the table: {unordered, ordered} × loss {0.01, 0.02} ×
// retransmit {20, 200} µs and, with bounds tight enough that a target
// busy NACKing sends no credit for longer than one, × loss {0.05, 0.1} ×
// retransmit {5, 10} µs, all at 1 MiB per source, 2 sources and 2
// targets; and one wider unordered row at 5 % loss.
func lossRows() []lossRow {
	var rows []lossRow
	grid := func(losses []float64, rts ...time.Duration) {
		for _, ordered := range []bool{false, true} {
			for _, loss := range losses {
				for _, rt := range rts {
					rows = append(rows, lossRow{ordered: ordered, loss: loss, retransmit: rt, mb: 1, sources: 2, targets: 2})
				}
			}
		}
	}
	grid([]float64{0.01, 0.02}, 20*time.Microsecond, 200*time.Microsecond)
	grid([]float64{0.05, 0.1}, 5*time.Microsecond, 10*time.Microsecond)
	return append(rows, lossRow{loss: 0.05, retransmit: 20 * time.Microsecond, mb: 4, sources: 4, targets: 3})
}

// TestLossyMulticastCensus runs every lossy-multicast row under an event
// budget of four times the same row's run without loss (itself run under
// censusMaxEvents), so a row that stops making progress fails in well
// under a second. Each must end cleanly with every target having
// consumed every source's tuples.
func TestLossyMulticastCensus(t *testing.T) {
	seed := censusSeed()
	for _, r := range lossRows() {
		t.Run(r.String(), func(t *testing.T) {
			clean := r
			clean.loss = 0
			var log bytes.Buffer
			budget, err := runLossRow(clean, seed, censusMaxEvents, &log)
			if err != nil {
				t.Fatalf("without loss: %v after %d events\nrepro: %s\n%s", err, budget, clean.command(seed), log.String())
			}
			log.Reset()
			events, err := runLossRow(r, seed, 4*budget, &log)
			if err != nil {
				t.Errorf("%v after %d events (budget %d)\nrepro: %s\n%s", err, events, 4*budget, r.command(seed), log.String())
			}
		})
	}
}

// runLossRow builds the row's scenario as dfiflow builds it from
// r.command's flags, runs it under maxEvents and checks
// that every target consumed sources × tuples. It returns the kernel's
// event count.
func runLossRow(r lossRow, seed int64, maxEvents uint64, log *bytes.Buffer) (uint64, error) {
	k := sim.New(seed)
	k.Deadline = Deadline
	k.MaxEvents = maxEvents
	cfg := fabric.DefaultConfig()
	cfg.MulticastLoss = r.loss
	b := fabricOn(k, r.sources+r.targets, cfg)
	if err := b.UseRegistry(RegistryConfig{}); err != nil {
		return 0, err
	}
	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(56)},
	)
	spec := core.FlowSpec{Name: "dfiflow", Type: core.ReplicateFlow, Schema: sch, Options: core.Options{
		SegmentsPerRing:   32,
		RetransmitTimeout: r.retransmit,
		Multicast:         true,
		GlobalOrdering:    r.ordered,
	}}
	for i := 0; i < r.sources; i++ {
		spec.Sources = append(spec.Sources, core.Endpoint{Node: b.Node(i)})
	}
	for i := 0; i < r.targets; i++ {
		spec.Targets = append(spec.Targets, core.Endpoint{Node: b.Node(r.sources + i), Thread: i})
	}
	tuples := (r.mb << 20) / sch.TupleSize()
	res := Run(b, Scenario{Spec: spec, Flows: 1, Tuples: tuples, Log: log})
	if err := res.Err(); err != nil {
		return k.Events(), err
	}
	for i, st := range res.Targets {
		if want := uint64(r.sources * tuples); st.TuplesConsumed != want {
			return k.Events(), fmt.Errorf("target %d consumed %d tuples, want %d", i, st.TuplesConsumed, want)
		}
	}
	return k.Events(), nil
}
