package core

import (
	"strconv"

	"dfi/internal/metrics"
)

// Metrics publication: func-backed collectors reading the endpoints'
// Stats() snapshots. The collectors run on the scraper's goroutine;
// Stats() is race-safe by construction (atomic counters, statsMu around
// slice walks), so a /metrics scrape can run while the flow does. The
// exposed values are the SAME counters the end-of-run Stats() summary
// prints — byte-for-byte agreement between the scrape and the printed
// totals is the package's accuracy contract (cmd/dfiflow's smoke test
// asserts it).

// PublishMetrics registers the source's counters on m under the
// dfi_source_* namespace, labeled by flow and slot.
func (s *Source) PublishMetrics(m *metrics.Registry) {
	lbl := metrics.Labels{"flow": s.spec.Name, "slot": strconv.Itoa(s.idx)}
	counter := func(name, help string, f func(SourceStats) float64) {
		m.RegisterCounterFunc(name, help, lbl, func() float64 { return f(s.Stats()) })
	}
	counter("dfi_source_tuples_pushed_total", "Tuples accepted by Push.",
		func(st SourceStats) float64 { return float64(st.TuplesPushed) })
	counter("dfi_source_segments_written_total", "Ring segments transferred to targets.",
		func(st SourceStats) float64 { return float64(st.SegmentsWritten) })
	counter("dfi_source_payload_bytes_total", "Tuple payload bytes written (excludes footers and protocol messages).",
		func(st SourceStats) float64 { return float64(st.PayloadBytes) })
	counter("dfi_source_stall_seconds_total", "Virtual time blocked waiting for remote ring slots.",
		func(st SourceStats) float64 { return st.StallRemote.Seconds() })
	counter("dfi_source_local_stall_seconds_total", "Virtual time blocked waiting for local segment reuse.",
		func(st SourceStats) float64 { return st.StallLocal.Seconds() })
	counter("dfi_source_footer_probes_total", "Remote footer READ probes issued.",
		func(st SourceStats) float64 { return float64(st.FooterProbes) })
	counter("dfi_source_probe_misses_total", "Footer probes that found the slot still unconsumed.",
		func(st SourceStats) float64 { return float64(st.ProbeMisses) })
	counter("dfi_source_backoff_seconds_total", "Cumulative randomized backoff while polling a full ring.",
		func(st SourceStats) float64 { return st.Backoff.Seconds() })
	counter("dfi_source_retransmits_total", "Segments rewritten by loss recovery.",
		func(st SourceStats) float64 { return float64(st.Retransmits) })
	counter("dfi_source_rerouted_tuples_total", "Tuples re-pushed to surviving targets after an eviction.",
		func(st SourceStats) float64 { return float64(st.Rerouted) })
	counter("dfi_source_moved_tuples_total", "Tuples routed to a live owner because the declared owner was down.",
		func(st SourceStats) float64 { return float64(st.Moved) })
	if s.spec.Options.Multicast {
		// Multicast-only series, registered only for multicast flows so
		// ring-flow scrapes stay unchanged.
		counter("dfi_source_mc_retransmits_total", "Multicast segments re-sent on the reliable QPs (NACK answers, gap refills).",
			func(st SourceStats) float64 { return float64(st.McRetransmits) })
		counter("dfi_source_mc_gap_rounds_total", "Gap-agreement rounds arbitrated by this source.",
			func(st SourceStats) float64 { return float64(st.McGapRounds) })
		counter("dfi_source_mc_credit_stalls_total", "Episodes where a target's credit window gated this source.",
			func(st SourceStats) float64 { return float64(st.McCreditStalls) })
	}
}

// PublishMetrics registers the target's counters on m under the
// dfi_target_* namespace, labeled by flow and slot.
func (t *Target) PublishMetrics(m *metrics.Registry) {
	lbl := metrics.Labels{"flow": t.spec.Name, "slot": strconv.Itoa(t.idx)}
	m.RegisterCounterFunc("dfi_target_tuples_consumed_total", "Tuples handed to the application.", lbl,
		func() float64 { return float64(t.Stats().TuplesConsumed) })
	m.RegisterCounterFunc("dfi_target_segments_consumed_total", "Ring segments recycled.", lbl,
		func() float64 { return float64(t.Stats().SegmentsConsumed) })
	m.RegisterGaugeFunc("dfi_target_failed_sources", "Source slots the flow membership evicted.", lbl,
		func() float64 { return float64(len(t.FailedSources())) })
	m.RegisterGaugeFunc("dfi_target_done", "1 once FLOW_END was reached.", lbl,
		func() float64 {
			if t.Stats().Done {
				return 1
			}
			return 0
		})
	if t.spec.Options.Multicast {
		m.RegisterCounterFunc("dfi_target_mc_nacks_total", "Retransmission requests sent for multicast sequence gaps.", lbl,
			func() float64 { return float64(t.Stats().McNacksSent) })
		m.RegisterCounterFunc("dfi_target_mc_gaps_skipped_total", "Sequence numbers skipped (agreed unfillable, app-resolved, or heuristic).", lbl,
			func() float64 { return float64(t.Stats().McGapsSkipped) })
	}
}
