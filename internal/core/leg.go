package core

import (
	"errors"
	"sync/atomic"

	"dfi/internal/registry"
	"dfi/internal/transport"
)

// errEvicted reports that a leg's target was evicted from the flow
// membership while the leg was working or blocked. It is an internal
// control signal — the source catches it, re-routes the leg's harvest
// over the survivors, and continues — and is never returned to
// applications.
var errEvicted = errors.New("dfi: target evicted")

// leg is one source's path to one target — or, on a multicast flow, to
// the whole group: the local segment being filled plus, behind the
// segmentTx seam, the kind that ships filled segments. Everything the
// endpoint engine does per tuple — push, pushRun, the Reserve boundary
// rule — is written once against this struct; a private ring
// (ringWriter), a shared ring (sharedTx) and a multicast group (mcTx)
// embed it and differ only in what happens once per segment.
type leg struct {
	tx segmentTx

	// buf is the segment being filled, fill the bytes staged in it so
	// far, segSize its payload capacity. tx.flush ships buf[:fill] and
	// leaves buf/fill describing the next segment to fill.
	buf     []byte
	fill    int
	segSize int

	// closed latches once the end-of-flow marker is out.
	closed bool

	// Control plane. mem is the flow's membership record, slot the
	// target slot this leg feeds and inc the incarnation it connected
	// under; every bounded wait polls checkAbort so eviction wins over
	// the slower ErrFlowBroken give-up. The group leg of a multicast flow
	// feeds every target and has slot -1, which no membership change ever
	// makes gone: the kind folds its members' evictions and rejoins
	// itself (mcTx.foldTargets).
	// seen is the flow epoch at which the target was last found live.
	// dead latches the eviction once the source has harvested the leg.
	mem  *registry.Membership
	slot int
	inc  uint64
	seen uint64
	dead bool

	// Scrape-visible counters (atomic so a metrics endpoint can read
	// them mid-run): segments shipped and their tuple payload volume.
	segsWritten  atomic.Uint64
	payloadBytes atomic.Uint64
}

// segmentTx is the seam between the endpoint engine and a ring kind, at
// segment granularity.
type segmentTx interface {
	// flush ships the segment being filled (a no-op when it is empty).
	flush(p transport.Ctx) error
	// finish is the first half of a phased close: flush, then confirm
	// delivery where the ring kind can (a shared ring cannot).
	finish(p transport.Ctx) error
	// end is the second half: the end-of-flow marker.
	end(p transport.Ctx) error
	// harvest gives up on the leg's target and returns the tuples
	// shipped but not known consumed that are still resident locally (a
	// shared ring keeps none: its in-flight window is lost).
	harvest(tupleSize int) [][]byte
	// free releases what the leg holds (after Close).
	free()
}

// checkAbort lets a working or blocked leg escape when the control plane
// evicted its target: the wait can never be satisfied, and the source
// will re-route the harvest instead of waiting out ErrFlowBroken.
func (l *leg) checkAbort() error {
	if l.dead || l.evicted() {
		return errEvicted
	}
	return nil
}

// evicted reports whether the leg's target was evicted, or rejoined
// under a new incarnation: a leg connected to a rejoined target's
// *previous* rings can never be drained and must be harvested like one
// whose target died. Both bump the flow epoch, so the probe — it runs
// once per pushed tuple — looks the slot up only when the epoch has
// moved since it last found the target live.
func (l *leg) evicted() bool {
	e := l.mem.Epoch()
	if e == l.seen {
		return false
	}
	if l.gone() {
		return true
	}
	l.seen = e
	return false
}

// gone is the membership lookup behind evicted, and what the source's
// epoch fold asks of every leg.
func (l *leg) gone() bool {
	return l.mem.TargetEvicted(l.slot) || l.mem.Incarnation(registry.RoleTarget, l.slot) != l.inc
}

// push appends one tuple to the segment being filled, shipping it first
// when the tuple no longer fits. Bandwidth mode only; per-tuple CPU cost
// is charged in bulk by the source.
func (l *leg) push(p transport.Ctx, tuple []byte) error {
	if err := l.checkAbort(); err != nil {
		return err
	}
	if l.fill+len(tuple) > l.segSize {
		if err := l.tx.flush(p); err != nil {
			return err
		}
	}
	copy(l.buf[l.fill:], tuple)
	l.fill += len(tuple)
	return nil
}

// pushRun appends a contiguous run of fixed-size tuples (len(data) is a
// multiple of tupleSize), copying whole segment-fills at a time. Segment
// boundaries fall exactly where len(data)/tupleSize sequential push calls
// would put them, so the resulting ring is byte-identical. Bandwidth mode
// only; CPU cost is charged by the caller.
func (l *leg) pushRun(p transport.Ctx, data []byte, tupleSize int) error {
	for len(data) > 0 {
		if err := l.checkAbort(); err != nil {
			return err
		}
		fit := l.room(tupleSize) * tupleSize
		if fit == 0 {
			if err := l.tx.flush(p); err != nil {
				return err
			}
			continue
		}
		if fit > len(data) {
			fit = len(data)
		}
		copy(l.buf[l.fill:], data[:fit])
		l.fill += fit
		data = data[fit:]
	}
	return nil
}

// room is how many more tuples fit the segment being filled — the one
// boundary rule push, pushRun and Reserve share: ship only when not even
// one tuple fits.
func (l *leg) room(tupleSize int) int { return (l.segSize - l.fill) / tupleSize }

// abandon latches the leg dead (its target was evicted, or rejoined under
// fresh rings) and harvests every tuple not yet known consumed: whatever
// the ring kind still holds locally, plus the partial segment being
// filled. The source re-pushes the harvest to surviving targets. The
// views stay valid until Free.
func (l *leg) abandon(tupleSize int) [][]byte {
	l.dead = true
	out := l.tx.harvest(tupleSize)
	for off := 0; off+tupleSize <= l.fill; off += tupleSize {
		out = append(out, l.buf[off:off+tupleSize])
	}
	l.fill = 0
	return out
}
