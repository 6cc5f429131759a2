package consensus

import (
	"testing"
	"time"
)

// TestMultiPaxosToleratesFollowerCrash crashes the node of one of four
// followers a quarter of the way through the run. Its lease
// (FailureTimeout) lapses, the registry evicts it from the propose and
// vote flows, and the leader keeps committing on the surviving majority
// (leader + 2 of 3 live followers), so every client request still
// completes.
func TestMultiPaxosToleratesFollowerCrash(t *testing.T) {
	cfg := testCfg()
	cfg.Requests = 1200
	cfg.Rate = 200_000
	cfg.CrashFollower = 2
	cfg.CrashAfterProposals = cfg.Requests / 4
	cfg.FailureTimeout = 150 * time.Microsecond
	res, err := RunMultiPaxos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.Requests {
		t.Fatalf("completed %d of %d with a crashed follower", res.Completed, cfg.Requests)
	}
	if res.Median <= 0 {
		t.Fatalf("implausible latencies: %v", res)
	}
}

// TestMultiPaxosFailureTimeoutHarmless checks that leasing the flows
// (without any crash) does not disturb a healthy run.
func TestMultiPaxosFailureTimeoutHarmless(t *testing.T) {
	cfg := testCfg()
	cfg.Requests = 600
	cfg.Rate = 150_000
	cfg.FailureTimeout = 150 * time.Microsecond
	res, err := RunMultiPaxos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.Requests {
		t.Fatalf("completed %d of %d with leased flows", res.Completed, cfg.Requests)
	}
}
