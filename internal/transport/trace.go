package transport

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dfi/internal/metrics"
)

// Tracing: an optional hook observing every verb a backend executes,
// with a bundled recorder that renders op logs and per-pair traffic
// summaries. Used by cmd/dfiflow -trace and by tests that assert on
// wire-level behaviour. Backends with fault injection stamp traced ops
// with a Disposition so loss and injected duplicates are visible to
// tooling.

// Disposition classifies how the backend handled a traced operation.
type Disposition uint8

// Dispositions.
const (
	// Delivered is the healthy outcome: the op reached its destination.
	Delivered Disposition = iota
	// Dropped means the fault plan discarded the op's remote effect
	// (probabilistic drop, link flap, or a crashed endpoint).
	Dropped
	// Injected marks a duplicate delivery fabricated by the fault plan;
	// the original op was traced separately as Delivered.
	Injected
)

// String renders the disposition for trace output (dropped deliveries
// shout, so they stand out in a log).
func (d Disposition) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case Dropped:
		return "DROPPED"
	case Injected:
		return "injected"
	}
	return "unknown"
}

// TraceOp is one observed verb execution.
type TraceOp struct {
	Kind    OpKind
	From    int // endpoint id
	To      int // endpoint id
	Bytes   int
	Posted  time.Duration // when the work request was posted
	Arrived time.Duration // when it was delivered / executed remotely
	// Disposition reports the fate of the op under the fault plan
	// (Delivered when fault-free).
	Disposition Disposition
}

// Tracer observes transport operations. Implementations must not block
// (they run inline with verb posting).
type Tracer interface {
	Trace(op TraceOp)
}

// AttachRecorder builds a Recorder retaining at most capacity ops and
// installs it as t's tracer — the one wiring point for op recording, so
// callers need not know which backend they hold. Works on every backend;
// backends without fault injection simply never stamp a non-Delivered
// disposition.
func AttachRecorder(t Transport, capacity int) *Recorder {
	r := NewRecorder(capacity)
	t.SetTracer(r)
	return r
}

// Recorder is a Tracer that accumulates operations in memory. It is safe
// for concurrent use: a scraper goroutine may call the accessors,
// Summary, or PublishMetrics collectors while the backend traces.
type Recorder struct {
	Ops []TraceOp
	// Cap bounds the retained op log (0 = unlimited); aggregate counters
	// keep counting past it.
	Cap int

	// WireOverheadBytes, when set (normally from the backend's
	// per-message framing overhead), lets Summary additionally report
	// on-the-wire volume including that overhead.
	WireOverheadBytes int

	mu    sync.Mutex
	total int
	// Byte accounting is split by disposition: deliveredBytes is volume
	// that reached its destination, droppedBytes was discarded by the
	// fault plan (it never arrived, so mixing it into delivered traffic
	// would overstate what the flow moved), and injectedBytes is the
	// extra volume of fabricated duplicate deliveries.
	deliveredBytes int64
	dropped        int
	droppedBytes   int64
	injected       int
	injectedBytes  int64
	byKind         map[OpKind]int
	byPair         map[[2]int]int64 // delivered (incl. duplicate) bytes by (from, to)
}

// NewRecorder returns an empty recorder retaining at most cap ops.
func NewRecorder(cap int) *Recorder {
	return &Recorder{Cap: cap, byKind: make(map[OpKind]int), byPair: make(map[[2]int]int64)}
}

// Trace implements Tracer. Dropped ops count toward totals and per-kind
// counters but not toward delivered volume or the per-pair traffic map —
// their bytes never arrived.
func (r *Recorder) Trace(op TraceOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.byKind[op.Kind]++
	switch op.Disposition {
	case Dropped:
		r.dropped++
		r.droppedBytes += int64(op.Bytes)
	case Injected:
		r.injected++
		r.injectedBytes += int64(op.Bytes)
		r.byPair[[2]int{op.From, op.To}] += int64(op.Bytes)
	default:
		r.deliveredBytes += int64(op.Bytes)
		r.byPair[[2]int{op.From, op.To}] += int64(op.Bytes)
	}
	if r.Cap == 0 || len(r.Ops) < r.Cap {
		r.Ops = append(r.Ops, op)
	}
}

// Total returns the number of traced operations.
func (r *Recorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns the number of traced operations the fault plan
// discarded.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DroppedBytes returns the volume the fault plan discarded — bytes that
// were posted but never arrived.
func (r *Recorder) DroppedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedBytes
}

// Injected returns the number of duplicate deliveries the fault plan
// fabricated.
func (r *Recorder) Injected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.injected
}

// MessageBytes returns the cumulative message bytes actually delivered,
// including fabricated duplicate deliveries. This counts everything a
// message carries above the wire framing — tuple payload *and* protocol
// metadata (segment footers, credit/NACK control messages) — so it
// over-reports pure tuple payload; flow-level payload accounting lives
// in core.SourceStats.PayloadBytes. Bytes of ops the fault plan dropped
// are excluded (see DroppedBytes).
func (r *Recorder) MessageBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deliveredBytes + r.injectedBytes
}

// Summary renders aggregate counters: ops by kind, delivered vs dropped
// volume under the fault plan, and the top traffic pairs. Delivered and
// dropped bytes are reported distinctly — a fault plan that eats half
// the WRITEs must not inflate the delivered-traffic figure.
func (r *Recorder) Summary(w io.Writer, topPairs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delivered := r.deliveredBytes + r.injectedBytes
	fmt.Fprintf(w, "traced %d operations, %d message bytes delivered (payload + protocol metadata)\n",
		r.total, delivered)
	if r.WireOverheadBytes > 0 {
		wire := delivered + int64(r.total-r.dropped)*int64(r.WireOverheadBytes)
		fmt.Fprintf(w, "  ≈%d wire bytes incl. %d B/message framing overhead\n", wire, r.WireOverheadBytes)
	}
	if r.dropped > 0 || r.injected > 0 {
		fmt.Fprintf(w, "  faults: %d dropped (%d bytes never delivered), %d duplicate deliveries injected (+%d bytes delivered)\n",
			r.dropped, r.droppedBytes, r.injected, r.injectedBytes)
	}
	kinds := make([]OpKind, 0, len(r.byKind))
	for k := range r.byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %d\n", k, r.byKind[k])
	}
	type pair struct {
		from, to int
		bytes    int64
	}
	pairs := make([]pair, 0, len(r.byPair))
	for p, b := range r.byPair {
		pairs = append(pairs, pair{p[0], p[1], b})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].bytes > pairs[j].bytes })
	if topPairs > len(pairs) {
		topPairs = len(pairs)
	}
	if topPairs > 0 {
		fmt.Fprintf(w, "top traffic pairs:\n")
		for _, p := range pairs[:topPairs] {
			fmt.Fprintf(w, "  node%d → node%d  %d bytes\n", p.from, p.to, p.bytes)
		}
	}
}

// Log renders the retained op log, one line per operation.
func (r *Recorder) Log(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, op := range r.Ops {
		mark := ""
		if op.Disposition != Delivered {
			mark = "  [" + op.Disposition.String() + "]"
		}
		fmt.Fprintf(w, "%-12v %-10s node%d → node%d  %6d B  (delivered %v)%s\n",
			op.Posted, op.Kind, op.From, op.To, op.Bytes, op.Arrived, mark)
	}
	if r.total > len(r.Ops) {
		fmt.Fprintf(w, "… %d further operations (log capped)\n", r.total-len(r.Ops))
	}
}

// PublishMetrics registers the recorder's aggregate counters on m under
// the dfi_fabric_* namespace. The collectors run on the scraper's
// goroutine and take the recorder's mutex, so they can be scraped while
// the backend traces.
func (r *Recorder) PublishMetrics(m *metrics.Registry) {
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return f()
		}
	}
	for _, k := range []OpKind{OpWrite, OpRead, OpSend, OpRecv, OpFetchAdd} {
		k := k
		m.RegisterCounterFunc("dfi_fabric_ops_total", "Traced fabric operations by verb (all dispositions).",
			metrics.Labels{"kind": k.String()},
			locked(func() float64 { return float64(r.byKind[k]) }))
	}
	m.RegisterCounterFunc("dfi_fabric_message_bytes_total", "Message bytes by disposition (delivered reached the destination; dropped never arrived; injected are duplicate deliveries fabricated by the fault plan).",
		metrics.Labels{"disposition": "delivered"},
		locked(func() float64 { return float64(r.deliveredBytes) }))
	m.RegisterCounterFunc("dfi_fabric_message_bytes_total", "Message bytes by disposition (delivered reached the destination; dropped never arrived; injected are duplicate deliveries fabricated by the fault plan).",
		metrics.Labels{"disposition": "dropped"},
		locked(func() float64 { return float64(r.droppedBytes) }))
	m.RegisterCounterFunc("dfi_fabric_message_bytes_total", "Message bytes by disposition (delivered reached the destination; dropped never arrived; injected are duplicate deliveries fabricated by the fault plan).",
		metrics.Labels{"disposition": "injected"},
		locked(func() float64 { return float64(r.injectedBytes) }))
	m.RegisterCounterFunc("dfi_fabric_ops_dropped_total", "Traced operations the fault plan discarded.", nil,
		locked(func() float64 { return float64(r.dropped) }))
	m.RegisterCounterFunc("dfi_fabric_ops_injected_total", "Duplicate deliveries the fault plan fabricated.", nil,
		locked(func() float64 { return float64(r.injected) }))
}
