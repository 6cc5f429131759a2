package dfi

import (
	"math"
	"testing"
	"time"

	"dfi/internal/experiments"
)

// TestFigureVirtualMetricsPinned pins the virtual-time results of the
// headline figure benchmarks (the same calls, the same seed): they are
// pure functions of the simulated schedule, so any drift means a change
// altered simulated behaviour and must say why. Bandwidths are bytes per
// simulated second, compared to a relative 1e-9 (floating-point
// contraction may differ across architectures; a schedule change moves
// them by orders of magnitude more); Figure 11's two runtimes are exact
// nanosecond counts. This is what the BENCH_PR*.json gate used to hold
// that nothing else did; host time and allocations are the ledger's
// (benchmark/) and core/alloc_test.go's business.
func TestFigureVirtualMetricsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five figure measurements")
	}
	bandwidth := func(name string, want float64, measure func() (float64, error)) {
		t.Helper()
		got, err := measure()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: %.12g B/s (%.2f GiB/s), pinned %.12g (%.2f GiB/s)",
				name, got, got/(1<<30), want, want/(1<<30))
		}
	}
	bandwidth("Fig7aShuffleBandwidth", 12303989779.7, func() (float64, error) {
		return experiments.MeasureShuffleBandwidth(benchSeed, 2, 1024, 8<<20)
	})
	bandwidth("Fig7aShuffleBandwidthBatched", 12304007826.6, func() (float64, error) {
		return experiments.MeasureShuffleBandwidthBatched(benchSeed, 2, 1024, 8<<20, 64)
	})
	bandwidth("Fig8aReplicateNaive", 12398625800.3, func() (float64, error) {
		return experiments.MeasureReplicateBandwidth(benchSeed, 1, 1024, 8<<20, false)
	})
	bandwidth("Fig8bReplicateMulticast", 99157588025.8, func() (float64, error) {
		return experiments.MeasureReplicateBandwidth(benchSeed, 1, 1024, 8<<20, true)
	})

	// Figure 11: mpi-over-dfi = 4831449 / 66806 = 72.32.
	const volume = 64 * 8 * 400
	dfi, err := experiments.MeasureStreamShuffle(benchSeed, 64, volume, 1)
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := experiments.MeasureMiniBatchAlltoall(benchSeed, 64, volume)
	if err != nil {
		t.Fatal(err)
	}
	if dfi != 66806*time.Nanosecond || mpi != 4831449*time.Nanosecond {
		t.Errorf("Fig11CollectiveShuffle: dfi %v mpi %v (ratio %.2f), pinned 66.806µs and 4.831449ms (72.32)",
			dfi, mpi, float64(mpi)/float64(dfi))
	}
}
