// Structured per-flow event tracing: typed events with flow/epoch
// labels, ring-buffered per node, dumpable as JSONL. The EventLog sits
// above the byte-level verb trace (transport.Recorder) — the recorder
// sees every verb on the wire, the event log records the protocol-level
// transitions (segment commits, evictions, reroutes, lease state
// changes) that explain them.

package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// EventType names a protocol-level event.
type EventType string

// Event types emitted by core, registry, and fabric.
const (
	EvSegmentWrite EventType = "segment_write" // writer committed a segment to a remote ring
	EvFooterCommit EventType = "footer_commit" // target observed a committed footer
	EvEviction     EventType = "eviction"      // membership evicted an endpoint
	EvReroute      EventType = "reroute"       // harvested tuples re-pushed after an eviction
	EvLease        EventType = "lease"         // lease state transition (active/suspect/evicted/left)
	EvEpoch        EventType = "epoch"         // membership epoch advanced
	EvSnapshot     EventType = "snapshot"      // replicated registry compacted its log
	EvElection     EventType = "election"      // replicated registry elected a new master

	// Ordered-multicast recovery events.
	EvGapAgreement       EventType = "gap_agreement"        // targets agreed a sequence number is unfillable
	EvSeqSnapshotInstall EventType = "seq_snapshot_install" // rejoining target installed a sequencer snapshot
)

// Event is one structured trace record. T is virtual time since the
// start of the simulation. Zero-valued optional fields are omitted from
// the JSONL encoding.
type Event struct {
	T      time.Duration `json:"t"`
	Node   string        `json:"node"`
	Type   EventType     `json:"type"`
	Flow   string        `json:"flow,omitempty"`
	Epoch  uint64        `json:"epoch,omitempty"`
	Role   string        `json:"role,omitempty"`
	Slot   int           `json:"slot,omitempty"`
	Seq    uint64        `json:"seq,omitempty"`
	Bytes  uint64        `json:"bytes,omitempty"`
	Detail string        `json:"detail,omitempty"`

	ord uint64 // global insertion order, for stable cross-node sorting
}

// EventSink receives structured events. Implementations must be safe
// for use from simulation context; Emit must not block.
type EventSink interface {
	Emit(e Event)
}

// EventLog is an EventSink that keeps the most recent events in a ring
// buffer per node. It is safe for concurrent Emit and Dump (a scraper
// can dump while the simulation emits).
type EventLog struct {
	mu    sync.Mutex
	cap   int
	ord   uint64
	nodes map[string]*eventRing
	total uint64 // emitted, including overwritten
}

type eventRing struct {
	buf   []Event
	next  int // next write position
	count int // ≤ cap
}

// NewEventLog returns a log keeping at most perNode events per node.
// perNode ≤ 0 selects a default of 1024.
func NewEventLog(perNode int) *EventLog {
	if perNode <= 0 {
		perNode = 1024
	}
	return &EventLog{cap: perNode, nodes: make(map[string]*eventRing)}
}

// Emit records e, evicting the oldest event for the node if its ring is
// full.
func (l *EventLog) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ord++
	e.ord = l.ord
	l.total++
	r := l.nodes[e.Node]
	if r == nil {
		r = &eventRing{buf: make([]Event, l.cap)}
		l.nodes[e.Node] = r
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % l.cap
	if r.count < l.cap {
		r.count++
	}
}

// Total returns the number of events emitted, including any that have
// been overwritten in the rings.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Events returns the retained events across all nodes in emission
// order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	out := make([]Event, 0, len(l.nodes)*l.cap)
	for _, r := range l.nodes {
		if r.count == l.cap {
			out = append(out, r.buf[r.next:]...)
			out = append(out, r.buf[:r.next]...)
		} else {
			out = append(out, r.buf[:r.count]...)
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ord < out[j].ord })
	return out
}

// WriteJSONL dumps the retained events as one JSON object per line, in
// emission order, and reports how many events were dropped by ring
// eviction (as a trailing comment-free count via the returned value).
func (l *EventLog) WriteJSONL(w io.Writer) (written int, dropped uint64, err error) {
	evs := l.Events()
	l.mu.Lock()
	dropped = l.total - uint64(len(evs))
	l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if err = enc.Encode(e); err != nil {
			return written, dropped, fmt.Errorf("metrics: event dump: %w", err)
		}
		written++
	}
	return written, dropped, nil
}
