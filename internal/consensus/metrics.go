package consensus

import "dfi/internal/metrics"

// latencyBounds are exponential histogram bounds from 1µs to ~8.4s
// (seconds, ×2 per step) — wide enough for every system the harness
// runs, coarse enough to stay a fixed 24 series.
func latencyBounds() []float64 {
	bounds := make([]float64, 0, 24)
	for b := 1e-6; b < 10; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// PublishMetrics records the run's results on m under the
// dfi_consensus_* namespace, labeled by system ("multipaxos",
// "nopaxos", "dare"). A Result is final — the run has completed — so
// the values are written once rather than collected live; every
// measured latency is observed into Prometheus le-buckets.
func (r Result) PublishMetrics(m *metrics.Registry, system string) {
	lbl := metrics.Labels{"system": system}
	m.Gauge("dfi_consensus_throughput_rps", "Completed requests per second.", lbl).Set(r.Throughput)
	m.Gauge("dfi_consensus_latency_seconds", "Request latency quantile.",
		metrics.Labels{"system": system, "quantile": "0.5"}).Set(r.Median.Seconds())
	m.Gauge("dfi_consensus_latency_seconds", "Request latency quantile.",
		metrics.Labels{"system": system, "quantile": "0.95"}).Set(r.P95.Seconds())
	m.Counter("dfi_consensus_requests_completed_total", "Requests completed by the run.", lbl).
		Add(uint64(r.Completed))
	m.Counter("dfi_consensus_oum_gaps_total", "OUM gap NACKs the NOPaxos replicas sent.", lbl).
		Add(uint64(r.Gaps))
	h := m.Histogram("dfi_consensus_request_latency_seconds",
		"Measured request latency distribution (warmup excluded).", latencyBounds(), lbl)
	for _, d := range r.Latencies {
		h.Observe(d.Seconds())
	}
}
