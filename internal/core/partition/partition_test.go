package partition

import (
	"math/rand"
	"testing"

	"dfi/internal/schema"
)

const (
	sampleTargets = 8
	sampleKeys    = 100_000
)

func ringView(t *testing.T) (*Table, *View) {
	t.Helper()
	tbl, err := NewTable(Ring, sampleTargets, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, tbl.NewView()
}

func liveMask(n int, dead ...int) []bool {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	for _, d := range dead {
		live[d] = false
	}
	return live
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scheme
		err  bool
	}{
		{"modulo", Modulo, false},
		{"ring", Ring, false},
		{"consistent", 0, true},
		{"", 0, true},
	} {
		got, err := ParseScheme(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, s := range []Scheme{Modulo, Ring} {
		if back, err := ParseScheme(s.String()); err != nil || back != s {
			t.Errorf("round trip of %v failed: %v, %v", s, back, err)
		}
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(Ring, 0, 0); err == nil {
		t.Error("zero-slot table accepted")
	}
	if _, err := NewTable(Scheme(9), 4, 0); err == nil {
		t.Error("unknown scheme accepted")
	}
	tbl, err := NewTable(Ring, 4, 0)
	if err != nil || tbl.VirtualNodes() != DefaultVirtualNodes {
		t.Fatalf("ring table: %v, vnodes=%d", err, tbl.VirtualNodes())
	}
	if tbl.Scheme() != Ring || tbl.Slots() != 4 {
		t.Fatalf("table geometry: scheme=%v slots=%d", tbl.Scheme(), tbl.Slots())
	}
}

func TestModuloMatchesLegacyFormula(t *testing.T) {
	tbl, err := NewTable(Modulo, sampleTargets, 0)
	if err != nil {
		t.Fatal(err)
	}
	view := tbl.NewView()
	for key := uint64(0); key < 10_000; key++ {
		want := int(schema.Hash(key) % uint64(sampleTargets))
		if got := tbl.Home(key); got != want {
			t.Fatalf("Home(%d) = %d, legacy Hash%%N = %d", key, got, want)
		}
		if got, moved := view.Route(key); got != want || moved {
			t.Fatalf("Route(%d) = %d (moved=%v), want home %d under full membership", key, got, moved, want)
		}
	}
}

func TestModuloFoldMatchesLegacySurvivorLookup(t *testing.T) {
	tbl, _ := NewTable(Modulo, sampleTargets, 0)
	view := tbl.NewView()
	dead := []int{2, 5}
	view.SetLive(liveMask(sampleTargets, dead...))
	// The legacy survivor table in lifecycle.go: live slots ascending.
	var alive []int
	for i := 0; i < sampleTargets; i++ {
		if i != 2 && i != 5 {
			alive = append(alive, i)
		}
	}
	for key := uint64(0); key < 10_000; key++ {
		h := schema.Hash(key)
		want := int(h % uint64(sampleTargets))
		if want == 2 || want == 5 {
			want = alive[h%uint64(len(alive))]
		}
		if got, _ := view.Route(key); got != want {
			t.Fatalf("Route(%d) = %d, legacy survivor lookup = %d", key, got, want)
		}
	}
	for from := 0; from < sampleTargets; from++ {
		want := from
		if from == 2 || from == 5 {
			want = alive[from%len(alive)]
		}
		if got, _ := view.Fold(from); got != want {
			t.Fatalf("Fold(%d) = %d, legacy deterministic fold = %d", from, got, want)
		}
	}
}

// TestRingEvictionMovesBoundedArc is the acceptance-criteria property
// test: on a 1:8 ring-partitioned shuffle, evicting any single target
// moves at most 1/N + ε of a 100k-key sample (and well under the 20%
// acceptance ceiling), and every key whose owner survived keeps its
// owner — only the dead slot's arcs move.
func TestRingEvictionMovesBoundedArc(t *testing.T) {
	tbl, view := ringView(t)
	before := make([]int, sampleKeys)
	for key := range before {
		before[key] = tbl.Home(uint64(key))
	}
	const epsilon = 0.06 // vnode placement variance around the ideal 1/N arc share
	for dead := 0; dead < sampleTargets; dead++ {
		view.SetLive(liveMask(sampleTargets, dead))
		moved := 0
		for key := range before {
			got, flagged := view.Route(uint64(key))
			if before[key] != dead {
				if got != before[key] || flagged {
					t.Fatalf("evict %d: key %d owner %d moved to %d (moved=%v) although its owner survived",
						dead, key, before[key], got, flagged)
				}
				continue
			}
			if got == dead {
				t.Fatalf("evict %d: key %d still routed to the dead slot", dead, key)
			}
			if !flagged {
				t.Fatalf("evict %d: key %d moved to %d without the moved flag", dead, key, got)
			}
			moved++
		}
		frac := float64(moved) / float64(sampleKeys)
		if limit := 1.0/float64(sampleTargets) + epsilon; frac > limit {
			t.Errorf("evict %d: moved %.3f of keys, want ≤ 1/N+ε = %.3f", dead, frac, limit)
		}
		if frac > 0.20 {
			t.Errorf("evict %d: moved %.3f of keys, above the 20%% acceptance ceiling", dead, frac)
		}
	}
}

// TestRingLoadWithinTwiceEven pins DefaultVirtualNodes: survivor load
// stays within 2× of even before and after an eviction. Observed at 128
// vnodes: max/even ≈ 1.2 over all eviction choices.
func TestRingLoadWithinTwiceEven(t *testing.T) {
	tbl, view := ringView(t)
	check := func(name string, liveCount int) {
		counts := make([]int, sampleTargets)
		for key := 0; key < sampleKeys; key++ {
			slot, _ := view.Route(uint64(key))
			counts[slot]++
		}
		even := float64(sampleKeys) / float64(liveCount)
		for slot, c := range counts {
			if !view.Live(slot) {
				if c != 0 {
					t.Fatalf("%s: dead slot %d received %d keys", name, slot, c)
				}
				continue
			}
			if ratio := float64(c) / even; ratio > 2 {
				t.Errorf("%s: slot %d load %.2f× even (count %d), want ≤ 2×", name, slot, ratio, c)
			}
		}
	}
	check("full membership", sampleTargets)
	_ = tbl
	for dead := 0; dead < sampleTargets; dead++ {
		view.SetLive(liveMask(sampleTargets, dead))
		check(Ring.String()+" one eviction", sampleTargets-1)
	}
}

// TestNaiveModuloRemapContrast documents why modulo cannot bound
// rebalance: re-modding the full key space from N to N-1 slots (what a
// from-scratch modulo layout over the survivors requires) moves ~87% of
// keys — the 1 − 1/N = 7/8 baseline the ring scheme's ≤ 1/N+ε replaces.
func TestNaiveModuloRemapContrast(t *testing.T) {
	moved := 0
	for key := uint64(0); key < sampleKeys; key++ {
		h := schema.Hash(key)
		if int(h%sampleTargets) != int(h%(sampleTargets-1)) {
			moved++
		}
	}
	frac := float64(moved) / float64(sampleKeys)
	if frac < 0.80 {
		t.Fatalf("naive modulo re-map moved only %.3f of keys; the documented ~87%% contrast no longer holds", frac)
	}
	t.Logf("naive modulo N→N-1 re-map moved %.1f%% of keys; ring moves ≤ %.1f%%",
		100*frac, 100*(1.0/sampleTargets+0.06))
}

// TestRingRandomEvictionSequences drives random evict/restore sequences
// and checks the ring's churn invariants: an eviction moves only keys
// the dead slot owned, a restore moves keys only *onto* the restored
// slot (it reclaims arcs, never reshuffles survivors), and a full
// restore returns every key to its full-membership home.
func TestRingRandomEvictionSequences(t *testing.T) {
	_, view := ringView(t)
	rng := rand.New(rand.NewSource(7))
	keys := 10_000
	owner := make([]int, keys)
	for k := range owner {
		owner[k], _ = view.Route(uint64(k))
	}
	live := liveMask(sampleTargets)
	liveCount := sampleTargets
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		slot := rng.Intn(sampleTargets)
		if live[slot] && liveCount == 1 {
			continue // keep at least one live slot
		}
		live[slot] = !live[slot]
		if live[slot] {
			liveCount++
		} else {
			liveCount--
		}
		view.SetLive(live)
		for k := 0; k < keys; k++ {
			got, _ := view.Route(uint64(k))
			prev := owner[k]
			if !live[slot] && prev != slot && got != prev {
				t.Fatalf("round %d (evict %d): key %d moved %d→%d although its owner survived",
					round, slot, k, prev, got)
			}
			if live[slot] && got != prev && got != slot {
				t.Fatalf("round %d (restore %d): key %d moved %d→%d, restores may only reclaim arcs",
					round, slot, k, prev, got)
			}
			owner[k] = got
		}
	}
	// Full restore: every key is back at its full-membership home.
	view.SetLive(liveMask(sampleTargets))
	for k := 0; k < keys; k++ {
		got, moved := view.Route(uint64(k))
		if home := view.Table().Home(uint64(k)); got != home || moved {
			t.Fatalf("after full restore key %d routed to %d (moved=%v), home %d", k, got, moved, home)
		}
	}
}

// TestFoldDeterministicAndLive: Fold is stable for live slots, lands on
// a live slot otherwise, and agrees across independently derived views
// of the same membership (sources must agree on remaps).
func TestFoldDeterministicAndLive(t *testing.T) {
	for _, scheme := range []Scheme{Modulo, Ring} {
		tbl, err := NewTable(scheme, sampleTargets, 0)
		if err != nil {
			t.Fatal(err)
		}
		v1, v2 := tbl.NewView(), tbl.NewView()
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 100; trial++ {
			var dead []int
			for s := 0; s < sampleTargets-1; s++ { // keep slot N-1 live
				if rng.Intn(2) == 0 {
					dead = append(dead, s)
				}
			}
			mask := liveMask(sampleTargets, dead...)
			v1.SetLive(mask)
			v2.SetLive(mask)
			for from := 0; from < sampleTargets; from++ {
				got1, moved := v1.Fold(from)
				got2, _ := v2.Fold(from)
				if got1 != got2 {
					t.Fatalf("%v: views disagree on Fold(%d): %d vs %d (dead %v)", scheme, from, got1, got2, dead)
				}
				if !v1.Live(got1) {
					t.Fatalf("%v: Fold(%d) = %d is not live (dead %v)", scheme, from, got1, dead)
				}
				if mask[from] && (got1 != from || moved) {
					t.Fatalf("%v: Fold(%d) moved a live slot to %d", scheme, from, got1)
				}
			}
		}
	}
}

func TestRouteWithNoLiveSlots(t *testing.T) {
	for _, scheme := range []Scheme{Modulo, Ring} {
		tbl, _ := NewTable(scheme, 3, 0)
		view := tbl.NewView()
		view.SetLive(make([]bool, 3))
		if slot, _ := view.Route(42); slot != -1 {
			t.Errorf("%v: Route with no live slots = %d, want -1", scheme, slot)
		}
		if slot, _ := view.Fold(1); slot != -1 {
			t.Errorf("%v: Fold with no live slots = %d, want -1", scheme, slot)
		}
	}
}

// TestHomeMatchesModulo pins the Modulo reduction against its definition
// for every slot count the mask does and does not apply to, and that an
// all-live view routes every key to its home.
func TestHomeMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for n := 1; n <= 65; n++ {
		tbl, err := NewTable(Modulo, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		view := tbl.NewView()
		for _, k := range keys {
			want := int(schema.Hash(k) % uint64(n))
			if got := tbl.Home(k); got != want {
				t.Fatalf("n=%d: Home(%#x) = %d, Hash %% n = %d", n, k, got, want)
			}
			if got, moved := view.Route(k); got != want || moved {
				t.Fatalf("n=%d: all-live Route(%#x) = %d (moved %v), Home = %d", n, k, got, moved, want)
			}
		}
	}
}
