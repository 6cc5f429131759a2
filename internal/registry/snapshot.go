package registry

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
)

// Registry state-machine snapshots.
//
// The replicated registry (replicated.go) periodically serializes the
// whole state machine — flows, per-target connection info, membership
// epochs, leases, incarnations, watermarks and elastic attach counts and
// seals — and installs the result
// on its acceptors so the Multi-Paxos log and the applied-table can be
// truncated below the snapshot index (log compaction; see
// docs/PROTOCOL.md, "Replicated registry"). A lagging or recovering
// replica catches up from the snapshot plus the retained log suffix
// instead of a full replay.
//
// Flow metadata and target info are opaque `any` references the control
// plane never interprets (they are published and handed back verbatim).
// A snapshot therefore pins those references rather than their
// contents: captureState carries them by reference, and encode writes a
// deterministic reference index plus the dynamic type name. Everything
// the registry itself owns — names, epochs, attach counts, seals, lease
// states, TTLs, incarnations, watermarks — is encoded by value, which is what the
// byte-for-byte round-trip property in snapshot_test.go pins down.

// stateSnapshot is a deep copy of the registry state machine at one
// applied index. Lease timer bookkeeping (the generation counter) is
// deliberately not state: timers restart on restore.
type stateSnapshot struct {
	flows map[string]*flowSnap
}

// flowSnap is one flow's slice of the snapshot.
type flowSnap struct {
	meta     any
	targets  map[int]any
	epoch    uint64
	attached int64
	sealed   bool
	leases   map[epKey]lease // value copies, gen zeroed
	seq      *seqState       // sequencer recovery state, nil when absent
}

// captureState deep-copies the registry state machine. Meta and target
// info are carried by reference (opaque application payloads); all
// registry-owned state is copied by value.
func (r *Registry) captureState() *stateSnapshot {
	s := &stateSnapshot{flows: make(map[string]*flowSnap, len(r.flows))}
	for name, e := range r.flows {
		fs := &flowSnap{
			meta:    e.meta,
			targets: make(map[int]any, len(e.targets)),
			leases:  make(map[epKey]lease),
		}
		for idx, info := range e.targets {
			fs.targets[idx] = info
		}
		fs.epoch = e.mem.epoch.Load()
		fs.attached, fs.sealed = e.mem.attached.Load(), e.mem.sealed.Load()
		for k, l := range e.mem.eps {
			cp := *l
			cp.gen, cp.timer = 0, leaseTimer{} // timer bookkeeping, not state
			fs.leases[k] = cp
		}
		if e.seq != nil {
			cp := &seqState{
				highWater: e.seq.highWater,
				perSource: append([]uint64(nil), e.seq.perSource...),
				skips:     make(map[uint64]bool, len(e.seq.skips)),
			}
			for seq := range e.seq.skips {
				cp.skips[seq] = true
			}
			fs.seq = cp
		}
		s.flows[name] = fs
	}
	return s
}

// restoreState replaces the registry state machine with the snapshot's.
// Active leases are re-armed from a full TTL and Suspect leases from a
// full grace period (the restored master cannot know how much of either
// had elapsed — restarting the clocks only delays eviction, never
// un-evicts). Waiters are broadcast so rendezvous blocked across the
// restore re-check their conditions.
func (r *Registry) restoreState(s *stateSnapshot) {
	r.flows = make(map[string]*entry, len(s.flows))
	for name, fs := range s.flows {
		e := &entry{meta: fs.meta, targets: make(map[int]any, len(fs.targets))}
		for idx, info := range fs.targets {
			e.targets[idx] = info
		}
		m := newMembership(r, name)
		m.epoch.Store(fs.epoch)
		m.attached.Store(fs.attached)
		m.sealed.Store(fs.sealed)
		for k, cp := range fs.leases {
			l := cp // fresh copy per slot, its timer bound to the new record
			l.timer = leaseTimer{m: m, k: k}
			m.eps[k] = &l
			switch l.state {
			case StateActive:
				if l.ttl > 0 {
					m.arm(&l)
				}
			case StateSuspect:
				if l.grace > 0 {
					l.gen++
					m.armGrace(&l)
				}
			}
		}
		e.mem = m
		if fs.seq != nil {
			e.seq = &seqState{
				highWater: fs.seq.highWater,
				perSource: append([]uint64(nil), fs.seq.perSource...),
				skips:     make(map[uint64]bool, len(fs.seq.skips)),
			}
			for seq := range fs.seq.skips {
				e.seq.skips[seq] = true
			}
		}
		r.flows[name] = e
	}
	r.changed = r.clk.now()
	r.clk.broadcast()
}

// flowNames returns the snapshot's flow names in sorted order.
func (s *stateSnapshot) flowNames() []string {
	names := make([]string, 0, len(s.flows))
	for name := range s.flows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sortedKeys returns a map's int keys in ascending order.
func sortedKeys(m map[int]any) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// snapMagic versions the snapshot encoding; bump on layout changes.
// 2 added the per-flow sequencer record (ordered-multicast recovery), 3
// the elastic attach count and seal.
const snapMagic = "DFISNAP3"

// encode serializes the snapshot deterministically: sorted flows, each
// with epoch, attach count, seal, meta reference, sorted targets and
// sorted leases. The
// bytes are what the acceptors store, what the install-snapshot
// transfer is charged by, and what the round-trip property compares.
//
// Opaque payloads (meta, target info) are encoded as a reference index
// plus the dynamic type name, assigned in the sorted traversal order so
// the bytes are deterministic; two occurrences of the same comparable
// reference share an index, so the encoding pins aliasing too.
func (s *stateSnapshot) encode() []byte {
	refs := make(map[any]uint64)
	nextRef := uint64(0)
	var b []byte
	u64 := func(v uint64) { b = binary.BigEndian.AppendUint64(b, v) }
	str := func(v string) { u64(uint64(len(v))); b = append(b, v...) }
	ref := func(v any) {
		if v == nil {
			u64(^uint64(0))
			str("")
			return
		}
		if t := reflect.TypeOf(v); t.Comparable() {
			if _, ok := refs[v]; !ok {
				refs[v] = nextRef
				nextRef++
			}
			u64(refs[v])
		} else {
			// A non-comparable payload cannot be interned; its identity is
			// its position, which the sorted traversal keeps deterministic.
			u64(nextRef)
			nextRef++
		}
		str(typeName(v))
	}
	b = append(b, snapMagic...)
	u64(uint64(len(s.flows)))
	for _, name := range s.flowNames() {
		fs := s.flows[name]
		str(name)
		u64(fs.epoch)
		u64(uint64(fs.attached))
		if fs.sealed {
			u64(1)
		} else {
			u64(0)
		}
		ref(fs.meta)
		u64(uint64(len(fs.targets)))
		for _, idx := range sortedKeys(fs.targets) {
			u64(uint64(idx))
			ref(fs.targets[idx])
		}
		keys := make([]epKey, 0, len(fs.leases))
		for k := range fs.leases {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].role != keys[j].role {
				return keys[i].role < keys[j].role
			}
			return keys[i].idx < keys[j].idx
		})
		u64(uint64(len(keys)))
		for _, k := range keys {
			l := fs.leases[k]
			u64(uint64(k.role))
			u64(uint64(k.idx))
			u64(uint64(l.state))
			u64(uint64(l.ttl))
			u64(uint64(l.grace))
			u64(l.inc)
			u64(l.watermark)
		}
		if fs.seq == nil {
			u64(0)
		} else {
			u64(1)
			u64(fs.seq.highWater)
			u64(uint64(len(fs.seq.perSource)))
			for _, v := range fs.seq.perSource {
				u64(v)
			}
			skips := make([]uint64, 0, len(fs.seq.skips))
			for seq := range fs.seq.skips {
				skips = append(skips, seq)
			}
			sort.Slice(skips, func(i, j int) bool { return skips[i] < skips[j] })
			u64(uint64(len(skips)))
			for _, seq := range skips {
				u64(seq)
			}
		}
	}
	return b
}

// typeName names an opaque payload's dynamic type for the encoding.
// %T is deterministic for a fixed build, unlike the pointer value.
func typeName(v any) string { return fmt.Sprintf("%T", v) }
