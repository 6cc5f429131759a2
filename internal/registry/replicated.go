package registry

import (
	"fmt"
	"time"

	"dfi/internal/consensus/log"
	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// Replicated registry: the metadata store as a small replicated state
// machine over a Multi-Paxos log (dogfooding the paper's §6.3 use case
// for DFI's own control plane). The Registry handle stays the client
// API; what changes is how mutations commit:
//
//   - every mutating call (Publish, PublishTarget, Remove, Evict,
//     AttachSource, Seal, the lease operations) is a numbered command
//     the current master appends to the log with one Accept round — a
//     majority of acceptors must accept under the master's ballot
//     before the command applies;
//   - a client whose RPC leg or reply is lost retries the same command
//     id; the applied-table (replicated alongside the state machine)
//     deduplicates, so retries are idempotent — a Publish whose reply
//     was lost does not turn into "already published" on retry;
//   - when the master crashes, the retrying client triggers an election:
//     the lowest-index live replica runs Promise on the next ballot and
//     becomes master once a majority promises. Ballot fencing (see
//     consensus/log) makes any in-flight Accept of the deposed master
//     fail at the same majority, so the old and new master cannot both
//     commit in the same slot;
//   - reads (Lookup, WaitFlow, WaitTargetLive) are served by any replica
//     and need no log round — the standard lease-free read relaxation,
//     acceptable here because flow setup rendezvous is idempotent and
//     level-triggered (waiters just keep waiting until the entry shows).
//     Lease operations (Acquire/Renew/Release, see lease.go) are logged
//     commands like every other mutation, so lease state survives a
//     master failover; ReplicaConfig.UnloggedRenew opts heartbeat
//     renewals out of the log round as an explicit relaxation;
//   - every SnapshotEvery committed commands the master snapshots the
//     registry state machine (snapshot.go), installs the snapshot on the
//     live acceptors, and truncates their logs and the applied-table
//     below the snapshot index, so neither grows without bound
//     (snapshot-plus-truncate compaction). A crashed replica brought
//     back with RecoverReplica catches up from the snapshot plus the
//     retained log suffix — the install-snapshot path.
//
// The acceptors are plain state machines (consensus/log); the message
// legs between client, master and replicas are charged as RPC delays
// subject to Faults, not as fabric messages — consistent with how the
// registry has always modelled its RPCs (see the package comment).
// Snapshot installs and catch-up transfers additionally charge a
// size-proportional serialization cost (snapshotByteCost per encoded
// byte).
//
// Clients interleave only where a leg is charged (Registry.sleep lets
// the monitor go), so every decision between two legs — an Accept
// round's vote count, an election's promise count, applying a command
// and recording its outcome — is atomic, on the kernel and on the wall
// clock alike.

// ReplicaConfig configures Registry.Replicate.
type ReplicaConfig struct {
	// Replicas is the group size; odd, at least 3 (default 3).
	Replicas int

	// RPCDelay is the per-leg latency between client, master and
	// replicas (also installed as the handle's RPCDelay).
	RPCDelay time.Duration

	// Faults subjects registry RPCs to the fault knobs, including
	// CrashMaster.
	Faults *Faults

	// SnapshotEvery is the applied-index cadence of state-machine
	// snapshots: after this many committed commands the master
	// serializes the registry state, installs it on the live acceptors,
	// and truncates their logs and the applied-table below the snapshot
	// index. 0 selects DefaultSnapshotEvery; a negative value disables
	// compaction (the log and applied-table then grow without bound).
	SnapshotEvery int

	// UnloggedRenew serves RenewLease as a plain master RPC without a
	// log round. This is an explicit relaxation for high-rate heartbeat
	// traffic: a renewal that commits only on the master can be lost by
	// a failover, after which the slot must survive on its remaining TTL
	// budget (the TTL/3 heartbeat cadence leaves two renewals of slack
	// before Suspect). Acquire and Release always commit through the
	// log. Off by default: all lease operations are logged.
	UnloggedRenew bool
}

// DefaultSnapshotEvery is the snapshot cadence used when
// ReplicaConfig.SnapshotEvery is zero.
const DefaultSnapshotEvery = 64

// snapshotByteCost is the charged serialization cost per encoded
// snapshot byte for installs and catch-up transfers (≈1 GB/s on the
// control path — deliberately far below fabric link speed; snapshots
// travel the same commodity path as registry RPCs).
const snapshotByteCost = time.Nanosecond

// invokeAttempts bounds one command's retries before the registry is
// declared unavailable (e.g. a majority of replicas crashed).
const invokeAttempts = 16

// replGroup is the replica group behind a replicated Registry.
type replGroup struct {
	r   *Registry
	cfg ReplicaConfig

	acceptors []*log.Acceptor
	crashed   []bool
	master    int
	ballot    uint64
	slot      int // next free log slot on the master

	applied     map[uint64]error // command id → outcome (idempotent retry)
	appliedSlot map[uint64]int   // command id → committed slot (for pruning)
	nextOp      uint64

	snapEvery int          // snapshot cadence (≤ 0: disabled)
	snap      log.Snapshot // group's latest snapshot
	snapCount int

	crashDone bool // Faults.CrashMaster already applied
	elections int
}

// Replicate turns a fresh standalone registry — on either clock:
// New(k).Replicate(cfg), NewLocal().Replicate(cfg) — into one whose
// mutations commit through a Multi-Paxos log across cfg.Replicas
// acceptors, and returns it. The first replica starts as master at
// ballot 1 (promised by all, the usual bootstrap).
func (r *Registry) Replicate(cfg ReplicaConfig) (*Registry, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Replicas < 3 || cfg.Replicas%2 == 0 {
		return nil, fmt.Errorf("registry: replica count %d must be odd and ≥ 3", cfg.Replicas)
	}
	r.RPCDelay = cfg.RPCDelay
	r.faults = cfg.Faults
	snapEvery := cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotEvery
	}
	g := &replGroup{
		r:           r,
		cfg:         cfg,
		crashed:     make([]bool, cfg.Replicas),
		master:      0,
		ballot:      1,
		applied:     make(map[uint64]error),
		appliedSlot: make(map[uint64]int),
		snapEvery:   snapEvery,
	}
	for i := 0; i < cfg.Replicas; i++ {
		a := log.NewAcceptor(i)
		a.Promise(1)
		g.acceptors = append(g.acceptors, a)
	}
	r.repl = g
	return r, nil
}

// group reads the replica group inside the monitor (zero standalone).
func group[T any](r *Registry, zero T, read func(*replGroup) T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.repl == nil {
		return zero
	}
	return read(r.repl)
}

// Master returns the current master replica index (-1 standalone).
func (r *Registry) Master() int {
	return group(r, -1, func(g *replGroup) int { return g.master })
}

// Ballot returns the current master's ballot (0 standalone).
func (r *Registry) Ballot() uint64 {
	return group(r, 0, func(g *replGroup) uint64 { return g.ballot })
}

// Elections returns how many failovers the group has performed.
func (r *Registry) Elections() int {
	return group(r, 0, func(g *replGroup) int { return g.elections })
}

// Replicas returns the group size (0 standalone).
func (r *Registry) Replicas() int {
	return group(r, 0, func(g *replGroup) int { return len(g.acceptors) })
}

// SnapshotIndex returns the applied index covered by the group's latest
// snapshot (0: never snapshotted, or standalone).
func (r *Registry) SnapshotIndex() int {
	return group(r, 0, func(g *replGroup) int { return g.snap.Index })
}

// Snapshots returns how many snapshots the group has taken.
func (r *Registry) Snapshots() int {
	return group(r, 0, func(g *replGroup) int { return g.snapCount })
}

// LogLen returns the largest retained acceptor log across the live
// replicas — the quantity compaction bounds (≤ cadence + in-flight
// slack once snapshotting is enabled). 0 standalone.
func (r *Registry) LogLen() int { return group(r, 0, (*replGroup).logLen) }

func (g *replGroup) logLen() int {
	max := 0
	for i, a := range g.acceptors {
		if !g.crashed[i] && a.Len() > max {
			max = a.Len()
		}
	}
	return max
}

// AppliedSize returns the number of retained applied-table entries
// (command outcomes kept for idempotent retry); compaction prunes the
// entries whose slots the snapshot covers. 0 standalone.
func (r *Registry) AppliedSize() int {
	return group(r, 0, func(g *replGroup) int { return len(g.applied) })
}

// CrashReplica crashes replica i at the current instant: it stops
// answering promises, accepts and client RPCs. Crashing the master
// leaves clients to trigger the failover on their next command.
func (r *Registry) CrashReplica(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.repl != nil && i >= 0 && i < len(r.repl.crashed) {
		r.repl.crashed[i] = true
	}
}

// RecoverReplica restarts crashed replica i and catches it up through
// the install-snapshot path: the group's latest snapshot is installed
// on its acceptor (truncating whatever stale prefix it retained), and
// the retained log suffix is replayed from the most advanced live peer
// under the current ballot. The catch-up is charged as one round trip
// plus the size-proportional snapshot transfer. If the master is down,
// the recovered replica takes part in the next election like any live
// one (elections stay lazy — the next command triggers them).
func (r *Registry) RecoverReplica(p transport.Ctx, i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.repl
	if g == nil {
		return fmt.Errorf("registry: standalone registry has no replicas")
	}
	if i < 0 || i >= len(g.crashed) {
		return fmt.Errorf("registry: no replica %d", i)
	}
	if !g.crashed[i] {
		return fmt.Errorf("registry: replica %d is not crashed", i)
	}
	g.crashed[i] = false
	// Catch up from the most advanced live peer (the master when alive).
	var src *log.Acceptor
	for j, a := range g.acceptors {
		if j == i || g.crashed[j] {
			continue
		}
		if src == nil || a.NextSlot() > src.NextSlot() {
			src = a
		}
	}
	if src == nil {
		return nil // sole survivor: nothing to catch up from
	}
	rec := g.acceptors[i]
	transferred := 0
	if g.snap.Index > rec.FirstSlot() {
		rec.CompactTo(g.snap)
		transferred = len(g.snap.State)
	}
	for slot := src.FirstSlot(); slot < src.NextSlot(); slot++ {
		if e, ok := src.Accepted(slot); ok {
			rec.Accept(g.ballot, slot, e.Cmd)
		}
	}
	r.sleep(p, 2*g.legDelay(p)+time.Duration(transferred)*snapshotByteCost)
	return nil
}

// maybeCrashMaster applies Faults.CrashMaster once its time has passed. Applied lazily on the next RPC — the effect
// is indistinguishable from an asynchronous crash, and it leaves no
// standing timer to keep an otherwise-finished simulation alive.
func (g *replGroup) maybeCrashMaster(p transport.Ctx) {
	fp := g.cfg.Faults
	if fp == nil || g.crashDone || fp.CrashMaster <= 0 {
		return
	}
	if p.Now() >= fp.CrashMaster {
		g.crashed[g.master] = true
		g.crashDone = true
	}
}

// legDelay is the one-way client↔replica / master↔replica latency under
// the fault knobs (jitter drawn per call).
func (g *replGroup) legDelay(p transport.Ctx) time.Duration {
	return g.cfg.Faults.legDelay(p, g.cfg.RPCDelay)
}

// dropLeg draws whether one message leg is lost.
func (g *replGroup) dropLeg(p transport.Ctx) bool { return g.cfg.Faults.dropLeg(p) }

// leg charges one round trip to replica i and reports whether it got
// through; a failed leg costs the retry timeout.
func (g *replGroup) leg(p transport.Ctx, i int) bool {
	g.r.sleep(p, g.legDelay(p))
	if g.crashed[i] || g.dropLeg(p) {
		g.r.sleep(p, g.r.retryTimeout())
		return false
	}
	g.r.sleep(p, g.legDelay(p))
	return true
}

// invoke commits one mutating command through the log and applies it.
func (g *replGroup) invoke(p transport.Ctx, op func() error) error {
	g.maybeCrashMaster(p)
	id := g.nextOp
	g.nextOp++
	for attempt := 0; attempt < invokeAttempts; attempt++ {
		g.maybeCrashMaster(p)
		// Client → master round trip. A dead master is detected by the
		// lost leg; the client then kicks the election and retries.
		if !g.leg(p, g.master) {
			if g.crashed[g.master] {
				g.elect(p)
			}
			continue
		}
		// The command may have committed on an earlier attempt whose
		// reply was lost: the applied-table answers instead of
		// re-executing (exactly-once above an at-least-once RPC).
		if err, done := g.applied[id]; done {
			return err
		}
		slot, ok := g.commit(p, id)
		if !ok {
			// No majority under our ballot: the master was deposed (or
			// too many replicas are gone). Re-elect and retry.
			g.elect(p)
			continue
		}
		err := op()
		g.applied[id] = err
		g.appliedSlot[id] = slot
		g.maybeSnapshot(p)
		return err
	}
	return fmt.Errorf("registry: unavailable (command not committed after %d attempts)", invokeAttempts)
}

// maybeSnapshot compacts the log once the applied index has advanced a
// full cadence past the last snapshot: the master serializes the
// registry state machine, installs the snapshot on every live acceptor
// (truncating their logs below the snapshot index), and prunes the
// applied-table entries whose slots the snapshot covers. Pruning is
// safe because a command id is only retried inside its own invoke loop:
// by the time a further snapshot-cadence of commands has committed, the
// invoke that minted the id has long returned. The round is charged to
// the in-flight client like an election is: one master→replica round
// trip plus the size-proportional transfer.
func (g *replGroup) maybeSnapshot(p transport.Ctx) {
	if g.snapEvery <= 0 || g.slot-g.snap.Index < g.snapEvery {
		return
	}
	state := g.r.captureState().encode()
	g.snap = log.Snapshot{Index: g.slot, State: state}
	g.snapCount++
	g.r.emit(metrics.Event{Type: metrics.EvSnapshot, Seq: uint64(g.snap.Index),
		Bytes: uint64(len(state)), Detail: "registry state snapshot; log compacted"})
	for i, a := range g.acceptors {
		if g.crashed[i] {
			continue // recovers later via the install-snapshot path
		}
		if i != g.master && g.dropLeg(p) {
			continue // missed install; the next cadence covers it
		}
		a.CompactTo(g.snap)
	}
	g.r.sleep(p, 2*g.legDelay(p)+time.Duration(len(state))*snapshotByteCost)
	for id, slot := range g.appliedSlot {
		if slot < g.snap.Index {
			delete(g.appliedSlot, id)
			delete(g.applied, id)
		}
	}
}

// commit runs one Accept round for the next log slot under the master's
// ballot: all live replicas are asked in parallel (one round-trip
// charge), and the slot commits when a majority of the full group —
// master included — accepts. The slot is reserved before the round trip,
// so commands whose rounds overlap take distinct slots; a round that
// fails ends in elect, which places the next slot past every accepted
// entry.
func (g *replGroup) commit(p transport.Ctx, cmd uint64) (int, bool) {
	slot := g.slot
	g.slot++
	acks := 0
	for i, a := range g.acceptors {
		if g.crashed[i] {
			continue
		}
		if i != g.master && g.dropLeg(p) {
			continue // this follower's accept or ack was lost
		}
		if a.Accept(g.ballot, slot, cmd) {
			acks++
		}
	}
	g.r.sleep(p, 2*g.legDelay(p))
	return slot, 2*acks > len(g.acceptors)
}

// elect promotes the lowest-index live replica: one Promise round on the
// next ballot, repeated at higher ballots until a majority of the group
// promises (drops can defeat a round). The new master adopts the first
// slot past every accepted entry a promiser reported, so it cannot
// overwrite a command the deposed master already got majority-accepted.
func (g *replGroup) elect(p transport.Ctx) {
	cand, live := -1, 0
	for i := range g.acceptors {
		if !g.crashed[i] {
			live++
			if cand == -1 {
				cand = i
			}
		}
	}
	if 2*live <= len(g.acceptors) {
		return // no live majority can promise; invoke() exhausts its attempts
	}
	for {
		b := g.ballot + 1
		// The floor on next is the group's snapshot index: compacted slots
		// were chosen and applied even though no promiser retains entries
		// to witness them (the snapshot metadata travels with the
		// snapshot), so a new master must never place commands below it.
		promises, next := 0, g.snap.Index
		for i, a := range g.acceptors {
			if g.crashed[i] {
				continue
			}
			if i != cand && g.dropLeg(p) {
				continue
			}
			if ok, n := a.Promise(b); ok {
				promises++
				if n > next {
					next = n
				}
			}
		}
		g.r.sleep(p, 2*g.legDelay(p))
		g.ballot = b
		if 2*promises > len(g.acceptors) {
			g.master = cand
			g.slot = next
			g.elections++
			g.r.emit(metrics.Event{Type: metrics.EvElection, Seq: b,
				Detail: fmt.Sprintf("replica %d elected master at ballot %d", cand, b)})
			g.r.changed = g.r.clk.now()
			return
		}
		if g.crashed[cand] { // crashed mid-election (fault plan time passed)
			return
		}
	}
}
