package consensus

import (
	"testing"
	"time"
)

func TestReqKeyUniqueAcrossClients(t *testing.T) {
	seen := map[uint64]bool{}
	for c := 0; c < 16; c++ {
		for i := 0; i < 1000; i++ {
			k := reqKey(c, i)
			if seen[k] {
				t.Fatalf("duplicate request id for client %d seq %d", c, i)
			}
			seen[k] = true
		}
	}
}

func TestInterArrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 600_000
	cfg.Clients = 6
	if got := cfg.interArrival(); got != 10*time.Microsecond {
		t.Fatalf("interArrival = %v, want 10µs", got)
	}
}

func TestRecorderWarmupExclusion(t *testing.T) {
	lr := newRecorder(10)
	for i := uint64(0); i < 10; i++ {
		lr.sent(i, 0)
		// First request is an outlier that warmup must exclude from
		// percentiles.
		d := time.Microsecond
		if i == 0 {
			d = time.Second
		}
		lr.completed(i, sim_Time(i+1)*sim_Time(d))
	}
	_ = lr
}

type sim_Time = time.Duration

func TestRecorderPercentiles(t *testing.T) {
	lr := newRecorder(100)
	at := time.Duration(0)
	for i := uint64(0); i < 100; i++ {
		lr.sent(i, at)
		at += time.Microsecond
		lr.completed(i, at+time.Duration(i)*time.Microsecond) // latency grows with i
	}
	res := lr.result(0)
	if res.Completed != 100 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.P95 < res.Median {
		t.Fatalf("p95 %v < median %v", res.P95, res.Median)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestMultiPaxosWriteOnlyWorkload(t *testing.T) {
	cfg := testCfg()
	cfg.ReadFraction = 0 // all writes still replicate and complete
	cfg.Requests = 600
	res, err := RunMultiPaxos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.Requests {
		t.Fatalf("completed %d of %d", res.Completed, cfg.Requests)
	}
}

func TestDAREWriteHeavySlowerThanReadHeavy(t *testing.T) {
	// Writes pay the replicated-log round; a write-heavy stream must not
	// be faster than the read-heavy one.
	base := testCfg()
	base.Requests = 1200
	reads := base
	reads.ReadFraction = 0.95
	writes := base
	writes.ReadFraction = 0.05
	r, err := RunDARE(reads)
	if err != nil {
		t.Fatal(err)
	}
	w, err := RunDARE(writes)
	if err != nil {
		t.Fatal(err)
	}
	if w.Throughput > r.Throughput*1.05 {
		t.Fatalf("write-heavy %.0f faster than read-heavy %.0f", w.Throughput, r.Throughput)
	}
}

func TestNOPaxosLatencyIncludesSequencerRoundTrip(t *testing.T) {
	// The paper: Multi-Paxos and NOPaxos have near-identical latencies at
	// low load because the sequencer costs NOPaxos its two saved message
	// delays. NOPaxos' median must not be dramatically below Multi-Paxos'.
	cfg := testCfg()
	cfg.Rate = 100_000
	cfg.Requests = 600
	np, err := RunNOPaxos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := RunMultiPaxos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if np.Median < mp.Median/4 {
		t.Fatalf("NOPaxos median %v implausibly below Multi-Paxos %v — sequencer round trip unaccounted", np.Median, mp.Median)
	}
}

func TestNOPaxosGapAgreementUnderLoss(t *testing.T) {
	// Lost OUM packets leave sequence gaps at the replicas, which recover
	// them through DFI's gap ladder (NACK, retransmission); every request
	// still completes and at least one gap NACK is counted.
	cfg := testCfg()
	cfg.Requests = 600
	cfg.Rate = 150_000
	cfg.MulticastLoss = 0.02
	res, err := RunNOPaxos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.Requests {
		t.Fatalf("completed %d of %d under loss", res.Completed, cfg.Requests)
	}
	if res.Gaps == 0 {
		t.Fatal("no gap-agreement episodes despite injected loss")
	}
}
