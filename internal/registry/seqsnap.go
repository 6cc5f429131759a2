package registry

import (
	"fmt"
	"sort"

	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// Sequencer recovery state for ordered multicast replicate flows.
//
// The sequencer itself is one fetch-add counter on a data node, but
// recovering a rejoining target needs more than the counter: the flow's
// delivery high-water, the per-source delivery counts (to restore credit
// accounting) and the set of sequence numbers the live targets agreed
// can never be filled (a crashed source took their only copies). Targets
// record this state here — piggybacked on the control plane, never on
// the data path — and a rejoiner installs the registry's merged view as
// a snapshot instead of replaying the stream.

// seqState is the per-flow sequencer record held on the registry entry.
type seqState struct {
	highWater uint64          // max ordered head any live target reported
	perSource []uint64        // delivered-count per source at highWater
	skips     map[uint64]bool // agreed-unfillable sequence numbers
}

// SeqSnapshot is the installable copy handed to a rejoining target.
type SeqSnapshot struct {
	HighWater uint64   // resume delivery at this global sequence number
	PerSource []uint64 // delivered count per source slot
	Skips     []uint64 // agreed-skip set, ascending
}

// RecordSeqProgress merges a target's delivery progress into the flow's
// sequencer record: the high-water only moves forward, and the
// per-source counts follow the report that owns the highest water (they
// must stay mutually consistent, so they are not merged element-wise).
// Reports from an evicted target slot are refused: a wedged endpoint's
// late writes must not move the record.
func (r *Registry) RecordSeqProgress(p transport.Ctx, flow string, tgt int, highWater uint64, perSource []uint64) error {
	return r.update(p, flow, func(e *entry) error {
		if e.mem.peek(RoleTarget, tgt).state == StateEvicted {
			return fmt.Errorf("registry: target %d of flow %q was evicted; progress refused", tgt, flow)
		}
		s := e.seqEnsure()
		if highWater > s.highWater {
			s.highWater = highWater
			s.perSource = append(s.perSource[:0], perSource...)
		}
		return nil
	})
}

// RecordSeqSkips adds sequence numbers the live targets agreed are
// unfillable to the flow's skip set and emits one gap_agreement event
// per newly recorded sequence. Idempotent per sequence number, so every
// participant of an agreement round may record the verdict.
func (r *Registry) RecordSeqSkips(p transport.Ctx, flow string, epoch uint64, seqs ...uint64) error {
	return r.update(p, flow, func(e *entry) error {
		s := e.seqEnsure()
		for _, seq := range seqs {
			if s.skips[seq] {
				continue
			}
			s.skips[seq] = true
			r.emit(metrics.Event{Type: metrics.EvGapAgreement, Flow: flow, Epoch: epoch,
				Seq: seq, Detail: "sequence agreed unfillable"})
		}
		return nil
	})
}

// SeqSnapshot returns a copy of the flow's current sequencer record. A
// flow that never recorded progress returns the zero snapshot.
func (r *Registry) SeqSnapshot(p transport.Ctx, flow string) (SeqSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rpc(p)
	e, ok := r.flows[flow]
	if !ok || e.seq == nil {
		return SeqSnapshot{}, false
	}
	s := e.seq
	out := SeqSnapshot{
		HighWater: s.highWater,
		PerSource: append([]uint64(nil), s.perSource...),
		Skips:     make([]uint64, 0, len(s.skips)),
	}
	for seq := range s.skips {
		out.Skips = append(out.Skips, seq)
	}
	sort.Slice(out.Skips, func(i, j int) bool { return out.Skips[i] < out.Skips[j] })
	return out, true
}

func (e *entry) seqEnsure() *seqState {
	if e.seq == nil {
		e.seq = &seqState{skips: make(map[uint64]bool)}
	}
	return e.seq
}
