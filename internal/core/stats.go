package core

import (
	"fmt"
	"time"
)

// Flow statistics: lightweight counters the library maintains anyway,
// exposed so applications and benchmarks can attribute time and traffic
// (the experiments harness and the dfiflow tool build on these).

// SourceStats aggregates a source's counters across its per-target
// legs.
type SourceStats struct {
	// TuplesPushed is the number of tuples accepted by Push.
	TuplesPushed uint64
	// SegmentsWritten counts ring segments transferred (all targets).
	SegmentsWritten uint64
	// PayloadBytes is the tuple payload volume written (excludes footers
	// and protocol messages).
	PayloadBytes uint64
	// StallRemote is virtual time blocked waiting for remote ring slots.
	StallRemote time.Duration
	// StallLocal is virtual time blocked waiting for local segment reuse.
	StallLocal time.Duration
	// FooterProbes / ProbeMisses count remote footer READs and those that
	// found the probed slot still unconsumed.
	FooterProbes int
	ProbeMisses  int
	// Backoff is the cumulative randomized backoff while polling a full
	// ring.
	Backoff time.Duration
	// Retransmits counts segments rewritten by loss recovery.
	Retransmits int
	// Rerouted counts tuples re-pushed to surviving targets after a
	// membership eviction — the harvest of a dead leg (see lifecycle.go).
	Rerouted uint64
	// Moved counts tuples whose declared owner was down at push time and
	// that the partitioner routed to the live owner instead — the
	// steady-state rebalance traffic, split from Rerouted so rebalance
	// cost is observable per scheme.
	Moved uint64
	// McRetransmits counts multicast segments re-sent over the reliable
	// per-target QPs (NACK answers, gap-agreement refills).
	McRetransmits uint64
	// McGapRounds counts gap-agreement rounds this source arbitrated.
	McGapRounds uint64
	// McCreditStalls counts episodes where a multicast target's credit
	// window gated the source.
	McCreditStalls uint64
}

// String renders the counters as the one-line key=value summary
// dfiflow prints per source; zero multicast and recovery counters are
// left out. It formats a copy, so it is safe from any goroutine.
func (s SourceStats) String() string {
	out := fmt.Sprintf("pushed=%d segments=%d bytes=%d stallRemote=%v stallLocal=%v probes=%d misses=%d backoff=%v",
		s.TuplesPushed, s.SegmentsWritten, s.PayloadBytes, s.StallRemote, s.StallLocal,
		s.FooterProbes, s.ProbeMisses, s.Backoff)
	if s.Retransmits > 0 {
		out += fmt.Sprintf(" retransmits=%d", s.Retransmits)
	}
	if s.Rerouted > 0 {
		out += fmt.Sprintf(" rerouted=%d", s.Rerouted)
	}
	if s.Moved > 0 {
		out += fmt.Sprintf(" moved=%d", s.Moved)
	}
	if s.McRetransmits > 0 {
		out += fmt.Sprintf(" mcRetransmits=%d", s.McRetransmits)
	}
	if s.McGapRounds > 0 {
		out += fmt.Sprintf(" mcGapRounds=%d", s.McGapRounds)
	}
	if s.McCreditStalls > 0 {
		out += fmt.Sprintf(" mcCreditStalls=%d", s.McCreditStalls)
	}
	return out
}

// Stats returns the source's counters. Safe to call from a scraper
// goroutine while the flow runs: every field it reads is atomic, and the
// leg slices are walked under statsMu.
func (s *Source) Stats() SourceStats {
	st := SourceStats{TuplesPushed: s.pushed.Load(), Rerouted: s.rerouted.Load(), Moved: s.moved.Load()}
	s.statsMu.Lock()
	legs := s.legs
	legs = append(legs[:len(legs):len(legs)], s.retired...)
	for _, l := range legs {
		if l == nil {
			continue
		}
		st.SegmentsWritten += l.segsWritten.Load()
		st.PayloadBytes += l.payloadBytes.Load()
		// The rest are one kind's diagnostics: a private ring's stalls,
		// probes and retransmits, a multicast group's recovery counters.
		switch x := l.tx.(type) {
		case *ringWriter:
			st.StallRemote += time.Duration(x.StallRemote.Load())
			st.StallLocal += time.Duration(x.StallLocal.Load())
			st.FooterProbes += int(x.Probes.Load())
			st.ProbeMisses += int(x.ProbeMisses.Load())
			st.Backoff += time.Duration(x.BackoffTime.Load())
			st.Retransmits += int(x.Retransmits.Load())
		case *mcTx:
			st.McRetransmits = x.retransmits.Load()
			st.McGapRounds = x.gapRoundsRun.Load()
			st.McCreditStalls = x.creditStalls.Load()
		}
	}
	s.statsMu.Unlock()
	return st
}

// TargetStats aggregates a target's counters.
type TargetStats struct {
	// TuplesConsumed is the number of tuples handed to the application.
	TuplesConsumed uint64
	// SegmentsConsumed counts ring segments recycled.
	SegmentsConsumed uint64
	// FailedSources lists the source slots the membership evicted.
	FailedSources []int
	// Done reports whether FLOW_END was reached.
	Done bool
	// McNacksSent counts retransmission requests sent for multicast
	// sequence gaps.
	McNacksSent uint64
	// McGapsSkipped counts sequence numbers skipped past: agreed
	// unfillable by gap agreement, or — with no source left to
	// arbitrate — the tail a target skips alone.
	McGapsSkipped uint64
}

// String renders the counters as the one-line key=value summary
// dfiflow prints per target; zero multicast counters are left out. It
// formats a copy, so it is safe from any goroutine.
func (s TargetStats) String() string {
	out := fmt.Sprintf("consumed=%d segments=%d failed=%v done=%v",
		s.TuplesConsumed, s.SegmentsConsumed, s.FailedSources, s.Done)
	if s.McNacksSent > 0 {
		out += fmt.Sprintf(" mcNacks=%d", s.McNacksSent)
	}
	if s.McGapsSkipped > 0 {
		out += fmt.Sprintf(" mcGapsSkipped=%d", s.McGapsSkipped)
	}
	return out
}

// Stats returns the target's counters. Like Source.Stats, safe for a
// concurrent scraper: the per-reader counters are atomic and the reader
// slice is fixed after open.
func (t *Target) Stats() TargetStats {
	st := TargetStats{TuplesConsumed: t.consumed.Load(), Done: t.done.Load(), FailedSources: t.FailedSources()}
	for _, r := range t.readers {
		st.SegmentsConsumed += r.consumed.Load()
	}
	if f, ok := t.feed.(*mcFeed); ok {
		st.McNacksSent = f.nacksSent.Load()
		st.McGapsSkipped = f.gapsSkipped.Load()
	}
	return st
}
