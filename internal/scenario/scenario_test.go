package scenario

import (
	"math/rand"
	"sync"
	"testing"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/schema"
)

// TestCombinerSumOnBothBackends runs a 3:1 combiner flow with SUM
// aggregation on the simulated fabric and on chanloop, and checks the
// target's groups against a SUM oracle built from the keys the sources
// filled in: every tuple counted once, every group's sum exact.
func TestCombinerSumOnBothBackends(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    *Backend
	}{
		{"fabric", Fabric(4, 1, fabric.DefaultConfig())},
		{"chan", Chan(4)},
	} {
		t.Run(tc.name, func(t *testing.T) { testCombinerSum(t, tc.b) })
	}
}

func testCombinerSum(t *testing.T, b *Backend) {
	const perSource = 3000
	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(24)},
	)
	var (
		mu     sync.Mutex // chan sources fill keys concurrently
		sum    = make(map[uint64]int64)
		tuples int64
	)
	sc := Scenario{
		Spec: core.FlowSpec{
			Name: "comb", Type: core.CombinerFlow, Schema: sch,
			Sources: []core.Endpoint{{Node: b.Node(0)}, {Node: b.Node(1)}, {Node: b.Node(2)}},
			Targets: []core.Endpoint{{Node: b.Node(3)}},
			Options: core.Options{Aggregation: core.AggSum, GroupCol: 0, ValueCol: 0},
		},
		Tuples: perSource,
		Key: func(rng *rand.Rand) int64 {
			key := rng.Int63n(100)
			mu.Lock()
			sum[uint64(key)] += key
			tuples++
			mu.Unlock()
			return key
		},
	}
	res := Run(b, sc)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if tuples != 3*perSource {
		t.Fatalf("sources filled %d keys, want %d", tuples, 3*perSource)
	}
	var counted int64
	groups := res.Aggregates[0]
	for _, g := range groups {
		counted += g.Count
		if want, ok := sum[g.Key]; !ok || g.Value != want {
			t.Errorf("key %d sums to %d, want %d", g.Key, g.Value, want)
		}
	}
	if counted != tuples || len(groups) != len(sum) {
		t.Fatalf("target holds %d tuples in %d groups, sources filled %d in %d", counted, len(groups), tuples, len(sum))
	}
	if res.End <= 0 {
		t.Errorf("End = %v, want the instant the target finished", res.End)
	}
}
