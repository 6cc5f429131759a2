GO ?= go

.PHONY: all build vet fmt-check test race check chaos chaos-mc chaos-scale partition-race metrics-smoke transport-race core-path bench-smoke fuzz-smoke ledger docs-lint examples

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file is gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l reports:"; gofmt -l .; exit 1; }

# Fast feedback: skip the long experiment sweeps.
test:
	$(GO) test -short ./...

# Full suite under the race detector (CI entry point).
race:
	$(GO) test -race ./...

# Fault-injection matrix: the chaos, crash, lifecycle/lease/eviction and
# registry-failover suites under the race detector, swept over several
# deterministic seeds (DFI_CHAOS_SEED is read by the core test env;
# -count=1 defeats caching so every seed really runs). The eviction
# census of internal/scenario runs its -short rows at each seed too: 24
# eviction rows and 4 rows whose evicted target rejoins (the full table,
# 180 eviction and 30 rejoin rows, runs in `go test ./...`).
CHAOS_SEEDS ?= 11 1 7 42
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Chaos|Crash|Lifecycle|Lease|Evict|Reattach|Rejoin|Replicated|Remove|Promise|Accept|Ballot' \
			./internal/core/ ./internal/registry/ ./internal/consensus/... || exit 1; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 -short \
			-run 'Census' ./internal/scenario/ || exit 1; \
	done

# Ordered-multicast fault matrix: every ordered-multicast crash test —
# a source silenced with and without leases, its sequencer's node
# crashed, heavy loss with agreed skips recorded in the registry — with
# the survivors' delivered sequences and skip counts compared, plus
# target eviction + sequencer-snapshot rejoin, forged messages, the
# source that is pending but not silent, and the unsupported-operation
# surface, swept over the chaos seeds (each seed changes which UD sends
# are lost and therefore which sequences need agreement). Then the
# target evict + rejoin test runs once with DFI_CHAOS_SEED empty, which
# sweeps its own seeds 1–60 (its receive-pool panic showed on none of
# CHAOS_SEEDS). Last, NOPaxos, the one non-test user of the gap ladder
# under loss, runs once under the race detector (its tests do not read
# DFI_CHAOS_SEED).
chaos-mc:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos-mc seed $$seed =="; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestChaosOrderedMulticast|TestChaosOrderedSequencerNodeCrash|TestOrderedReplicate|TestReplicateMulticast|TestMulticast|TestGapNackLimitValidation' \
			./internal/core/ || exit 1; \
	done
	DFI_CHAOS_SEED= $(GO) test -race -count=1 -run TestChaosOrderedMulticastTargetEvictRejoin ./internal/core/
	$(GO) test -race -count=1 -run NOPaxos ./internal/consensus/

# Connection-scaling matrix: the shared-ring suites — core mux
# (shuffle over shared rings, many flows on one node pair, eviction
# reroute, batched lease keepalive, admission), the sharedring
# credit-conservation property tests, and the O(1000)-flow scale sweep
# (throughput within 10% of the 100-flow baseline, sublinear lease
# traffic) — under the race detector across the chaos seeds. -short
# keeps the sweep at 256 flows per seed; one full-scale seed runs the
# acceptance geometry (1000 flows, 100k tuples).
chaos-scale:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos-scale seed $$seed =="; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 -short \
			-run 'TestChaosScaleSharedFlows|TestSharedRing' \
			./internal/core/ ./internal/transport/sharedring/ || exit 1; \
	done
	@echo "== chaos-scale full (seed 1) =="
	DFI_CHAOS_SEED=1 $(GO) test -race -count=1 -timeout 600s \
		-run 'TestChaosScaleSharedFlows' ./internal/core/

# Partitioner + membership focus: the packages behind consistent-hash
# routing, rebalance and endpoint re-attach, under the race detector
# (fast enough to run on every change; the full suite lives in `race`).
# Includes the metrics package and the core scrape suite: a scraper
# goroutine hammering Stats()/Summary/exposition while flows run is
# exactly what the race detector must see.
partition-race:
	$(GO) test -race -count=1 ./internal/core/... ./internal/registry/... ./internal/metrics/...

# Ops-plane smoke: run dfiflow with a live metrics endpoint, scrape
# /metrics, /status and /events, and assert the exposition parses and
# the scraped counters equal the end-of-run printed Stats() summary.
metrics-smoke:
	$(GO) test -race -count=1 -run 'TestMetricsSmoke|TestTraceSummary|TestEventsOut' ./cmd/dfiflow/

# Transport layer under the race detector: the conformance suite on
# both backends (DES fabric + chanloop), the chanloop quickstart-shaped
# e2e flow on real goroutines moving real bytes, the control plane on
# both backends (lease keep-alive, silent-target and mid-push eviction,
# the private-vs-shared differential with an evicted leg), the registry
# monitor hammered from nine goroutines (one a Status scraper, which
# takes the monitor to build the status on each read) plus its status
# tests on the wall clock and the pinned lease-timer dispatch, and the dfiflow
# -transport=chan CLI coverage including the
# same argument lists run on both backends. This is the
# backend-agnosticism gate: the same core data path and the same control
# plane must behave identically without the sim kernel serializing
# anything. The -count=20 line is the retransmit-into-a-slot-being-read
# race (a chanloop WRITE that changes nothing must move nothing), which
# shows in a few runs of ten, not in one, and beside it the replicate
# differential — private, shared, multicast and ordered multicast legs,
# whose sources start when the protocol lets them, not when a test does.
# A multicast target evicted before it opened runs once on both backends,
# and the elastic attach-mid-flow differential ten times: attach and seal
# reach goroutine targets through the membership record. The
# steady-vs-general Push differential rides along once: its eviction leg
# is the one place the per-tuple path hands a half-filled segment to the
# harvest. So do six independent clusters on six concurrent kernels,
# which must share no package-level state. Last, the flow driver runs a
# combiner flow on both backends and checks its SUMs against an oracle.
transport-race:
	$(GO) test -race -count=1 ./internal/transport/...
	$(GO) test -race -count=1 -run 'TestTransportConformance' ./internal/fabric/
	$(GO) test -race -count=1 -run 'Chan.*(Lease|Evict)|TestSharedRingMatchesPrivate|TestPushSteadyMatchesGeneral|TestMulticastTargetEvictedBeforeOpen|TestIndependentClustersStayIndependent' ./internal/core/
	$(GO) test -race -count=20 -run 'TestDESAndChanEvictSilentTarget|TestReplicateKindsMatch' ./internal/core/
	$(GO) test -race -count=10 -run 'TestElasticAttachMidFlow' ./internal/core/
	$(GO) test -race -count=1 -run 'TestLocalRegistryHammer|TestStatus|TestRemoveRepublishWakesWaiters|TestLeaseTimerDispatchPinned|TestReplicateAfterPublishRenews|TestWallLeaseTimer' ./internal/registry/
	$(GO) test -race -count=1 -run 'TestChanTransport|TestSameArgsOnBothTransports' ./cmd/dfiflow/
	$(GO) test -race -count=1 -run 'TestCombinerSumOnBothBackends' ./internal/scenario/

# Push and Consume pay per tuple only for the tuple, and a count says
# so, not a timing: the steady path against the general path on one
# workload (bytes, segments, probes, kernel events, final instant), the
# number of general-path entries of a fault-free 1 M-tuple run (at most
# segments + charge batches), the allocation gates of both backends,
# Home against Hash % n, the private ring's one window (a latency writer
# never has more than a ring outstanding, and confirms its Close in
# round trips, not in a timeout), and the two ledger rows the path
# moves, run once.
core-path:
	$(GO) test -count=1 -run 'TestPushSteadyMatchesGeneral|TestSteadyPushShape|Alloc|TestHomeMatchesModulo|TestLatencyCloseConfirmsWithoutWaitingOutTimeout|TestLatencyModeCreditBound' ./internal/core/...
	$(GO) test -run '^$$' -bench 'CoreDataPath/(private|shared)/^Push$$/^Consume$$' -benchtime 1x ./internal/core/

# Per-layer benchmarks cannot rot: every benchmark of the sim kernel, the
# core data path, the transport backends (the per-verb benchmark,
# transporttest.Bench, on the DES fabric and on chanloop) and the
# registry's lease renewal (single vs batched, on both clocks) compiles
# and runs one iteration on one and on two Ps. Asserts no timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -cpu 1,2 ./internal/sim ./internal/fabric ./internal/core ./internal/registry ./internal/transport/...

# Every native fuzz target, five seconds each (go test -fuzz takes one
# target and one package at a time): enough to replay the checked-in
# corpus under testdata/fuzz and shake the decoders and the exposition
# parser a little on every change; a long budget belongs to a scheduled job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSegFooter$$' -fuzztime 5s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzMcIngest$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime 5s ./internal/metrics

# The performance ledger (benchmark/README.md): every workload of
# BENCHMARK.json, traced, seed 1 — the per-layer numbers a CHANGES.md
# performance claim must cite. Writes bench/ledger/ledger.json and one
# <workload>.layers.json / .trace.json each, all under the ignored bench/;
# run it on the parent commit too and compare. About 20 s per workload.
# For the end-to-end metrics (setup_s, host_*, virt_*) run the same
# script with --trace 0.
ledger:
	bash benchmark/run.sh --seed 1 --trace 1

# Every program under examples/ runs to completion and exits 0; one that
# fails (a flow error, or results that disagree with its own oracle)
# exits non-zero and stops the target.
examples:
	@for ex in $(notdir $(wildcard examples/*)); do \
		echo "== examples/$$ex =="; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# Documentation hygiene: every package has a godoc package comment,
# every relative Markdown link/anchor resolves (GitHub slug rules;
# external URLs are not fetched, so the check is offline-deterministic),
# the DFI API (internal/core), kernel and transport packages document
# every exported symbol, and docs/OPERATIONS.md covers every
# dfiflow/dfibench flag and documents none that no longer exists.
docs-lint:
	$(GO) run ./cmd/docslint

check: build vet fmt-check race chaos chaos-mc chaos-scale metrics-smoke transport-race core-path bench-smoke fuzz-smoke docs-lint examples
