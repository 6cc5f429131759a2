// Package mpi implements a miniature MPI over the simulated RDMA fabric —
// the baseline DFI is evaluated against in the paper (§2.2, §6.2).
//
// It reproduces the traits that make MPI a poor fit for data-intensive
// systems rather than the full standard:
//
//   - Point-to-point Send/Recv with tag matching and a per-message
//     software overhead (an optimized RDMA-backed MPI still pays its
//     progress engine and matching logic on every message).
//   - One-sided Put into pre-exposed windows.
//   - Bulk-synchronous collectives (Barrier, Alltoall): every rank blocks
//     until all ranks arrive, so no compute/communication overlap and full
//     straggler sensitivity.
//   - Process-centric execution: one rank per process. Multi-threaded
//     ranks (MPI_THREAD_MULTIPLE) serialize every call on a central latch
//     whose hold time grows with the number of threads (lock and
//     cache-line contention), matching the measured collapse in Figure
//     10b.
package mpi

import (
	"encoding/binary"
	"fmt"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// Config is the mini-MPI cost model.
type Config struct {
	// MsgOverhead is the per-message software cost (progress engine,
	// matching, request bookkeeping) on both send and receive paths.
	MsgOverhead time.Duration

	// LatchHold is the base time the THREAD_MULTIPLE latch is held per
	// call; contention multiplies it (see ContentionFactor).
	LatchHold time.Duration

	// ContentionFactor scales the extra latch cost per additional thread
	// on the rank: hold = LatchHold × (1 + ContentionFactor × (threads−1)).
	ContentionFactor float64

	// CollectiveSetup is the per-collective synchronization overhead
	// (communicator bookkeeping, algorithm selection) each rank pays on
	// top of the implied barrier.
	CollectiveSetup time.Duration

	// MaxMessage bounds a single point-to-point message (receive buffers
	// are sized to it).
	MaxMessage int

	// EagerThreshold: sends at or below it are buffered eagerly (the call
	// returns after the local copy); larger sends block until the NIC is
	// done with the buffer (rendezvous-style).
	EagerThreshold int
}

// DefaultConfig returns costs calibrated against the paper's HPC-X
// deployment (DESIGN.md §6).
func DefaultConfig() Config {
	return Config{
		MsgOverhead:      300 * time.Nanosecond,
		LatchHold:        300 * time.Nanosecond,
		ContentionFactor: 0.8,
		CollectiveSetup:  6 * time.Microsecond,
		MaxMessage:       1 << 20,
		EagerThreshold:   64 << 10,
	}
}

// World is an MPI communicator spanning a set of ranks.
type World struct {
	c       *fabric.Cluster
	cfg     Config
	ranks   []*Rank
	barrier *sim.Barrier
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	node transport.Endpoint

	latch   *sim.Resource
	threads int // threads attached to this rank (THREAD_MULTIPLE)

	qps       []transport.Queue // to every rank (nil for self)
	unmatched [][]message       // arrived-but-unmatched messages, per source
	window    transport.Region
}

type message struct {
	tag     uint64
	payload []byte
}

// msgHeader frames point-to-point messages: tag(8) + size(8).
const msgHeader = 16

// NewWorld creates one rank on each of the given nodes, fully meshed with
// reliable queue pairs. Nodes may repeat (multiple ranks per node share
// its NIC, as multi-process MPI deployments do).
func NewWorld(c *fabric.Cluster, nodes []transport.Endpoint, cfg Config) *World {
	w := &World{c: c, cfg: cfg, barrier: sim.NewBarrier(c.K, len(nodes))}
	for i, n := range nodes {
		w.ranks = append(w.ranks, &Rank{
			w:         w,
			id:        i,
			node:      n,
			latch:     sim.NewResource(c.K, fmt.Sprintf("mpi-latch-%d", i), 1),
			threads:   1,
			qps:       make([]transport.Queue, len(nodes)),
			unmatched: make([][]message, len(nodes)),
		})
	}
	for i := range w.ranks {
		for j := i + 1; j < len(w.ranks); j++ {
			qi, qj := c.Dial(w.ranks[i].node, w.ranks[j].node)
			w.ranks[i].qps[j] = qi
			w.ranks[j].qps[i] = qj
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// ID returns the rank index.
func (r *Rank) ID() int { return r.id }

// Node returns the node the rank runs on.
func (r *Rank) Node() transport.Endpoint { return r.node }

// SetThreads declares how many application threads issue MPI calls on
// this rank concurrently (MPI_THREAD_MULTIPLE). Every call then funnels
// through the rank's latch with contention-scaled hold times.
func (r *Rank) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	r.threads = n
}

// enter charges the per-call software cost, serializing through the latch
// when the rank is multi-threaded.
func (r *Rank) enter(p *sim.Proc) {
	if r.threads > 1 {
		hold := time.Duration(float64(r.w.cfg.LatchHold) *
			(1 + r.w.cfg.ContentionFactor*float64(r.threads-1)))
		r.latch.Acquire(p)
		r.node.Compute(p, hold)
		r.latch.Release()
	}
	r.node.Compute(p, r.w.cfg.MsgOverhead)
}

// Send transmits buf to rank dst with the given tag, blocking until the
// local buffer is reusable (standard-mode send with eager completion).
func (r *Rank) Send(p *sim.Proc, dst int, tag uint64, buf []byte) {
	if dst == r.id {
		panic("mpi: self-send not supported")
	}
	if len(buf) > r.w.cfg.MaxMessage {
		panic(fmt.Sprintf("mpi: message of %d bytes exceeds MaxMessage %d", len(buf), r.w.cfg.MaxMessage))
	}
	r.enter(p)
	msg := make([]byte, msgHeader+len(buf))
	binary.LittleEndian.PutUint64(msg[0:8], tag)
	binary.LittleEndian.PutUint64(msg[8:16], uint64(len(buf)))
	copy(msg[msgHeader:], buf)
	qp := r.qps[dst]
	if len(buf) <= r.w.cfg.EagerThreshold {
		// Eager path: the message was copied into a system buffer; the
		// call completes locally.
		qp.Send(p, msg, false, tag)
		return
	}
	qp.Send(p, msg, true, tag)
	// Rendezvous-style: wait until the NIC is done with the local buffer.
	for {
		c := qp.SendCQ().Wait(p)
		if c.Op == transport.OpSend {
			return
		}
	}
}

// Recv blocks until a message with the given tag arrives from rank src
// and returns its payload.
func (r *Rank) Recv(p *sim.Proc, src int, tag uint64) []byte {
	if src == r.id {
		panic("mpi: self-recv not supported")
	}
	r.enter(p)
	qp := r.qps[src]
	for {
		// Messages other threads of this rank drained land in the
		// unmatched list; always re-check it before blocking.
		for i, m := range r.unmatched[src] {
			if m.tag == tag {
				r.unmatched[src] = append(r.unmatched[src][:i], r.unmatched[src][i+1:]...)
				return m.payload
			}
		}
		if qp.PostedRecvs() == 0 {
			qp.PostRecv(make([]byte, msgHeader+r.w.cfg.MaxMessage), 0)
		}
		// A bounded wait so concurrent receivers on the rank notice
		// messages a sibling stashed for them.
		c, ok := qp.RecvCQ().WaitTimeout(p, 2*time.Microsecond)
		if !ok {
			continue
		}
		got := binary.LittleEndian.Uint64(c.Buf[0:8])
		size := binary.LittleEndian.Uint64(c.Buf[8:16])
		// Copy the payload out and re-post the MaxMessage-sized buffer: a
		// fresh one per message is a zeroed megabyte of host work each.
		payload := append([]byte(nil), c.Buf[msgHeader:msgHeader+size]...)
		qp.PostRecv(c.Buf, 0)
		if got == tag {
			return payload
		}
		r.unmatched[src] = append(r.unmatched[src], message{tag: got, payload: payload})
	}
}

// ExposeWindow registers size bytes of one-sided-accessible memory on the
// rank (MPI_Win_create).
func (r *Rank) ExposeWindow(size int) transport.Region {
	r.window = r.w.c.OpenRegion(r.node, size)
	return r.window
}

// Window returns the rank's exposed window.
func (r *Rank) Window() transport.Region { return r.window }

// Put writes buf into dst's window at off (one-sided MPI_Put) and blocks
// until the local buffer is reusable.
func (r *Rank) Put(p *sim.Proc, dst int, off int, buf []byte) {
	r.enter(p)
	target := r.w.ranks[dst]
	if target.window == nil {
		panic("mpi: Put to rank without an exposed window")
	}
	qp := r.qps[dst]
	qp.Write(p, buf, transport.Addr{MR: target.window, Off: off}, transport.WriteOptions{Signaled: true})
	for {
		c := qp.SendCQ().Wait(p)
		if c.Op == transport.OpWrite {
			return
		}
	}
}

// Barrier blocks until every rank has entered it (each rank pays the
// collective setup cost).
func (r *Rank) Barrier(p *sim.Proc) {
	r.enter(p)
	r.node.Compute(p, r.w.cfg.CollectiveSetup/2)
	r.w.barrier.Await(p)
}

// Alltoall performs the bulk-synchronous MPI_Alltoall: rank i's parts[j]
// is delivered as the j-th element of rank j's result. All ranks must
// call it collectively; no data moves until every rank has arrived, and
// no rank leaves before the exchange completes — the blocking semantics
// that prevent compute/communication overlap (paper §2.2).
func (r *Rank) Alltoall(p *sim.Proc, tag uint64, parts [][]byte) [][]byte {
	if len(parts) != len(r.w.ranks) {
		panic("mpi: Alltoall needs one part per rank")
	}
	r.enter(p)
	r.node.Compute(p, r.w.cfg.CollectiveSetup)
	r.w.barrier.Await(p) // all data must be ready everywhere

	out := make([][]byte, len(parts))
	out[r.id] = parts[r.id]
	// Ring schedule: step s exchanges with ranks (id±s) to avoid incast.
	n := len(r.w.ranks)
	for s := 1; s < n; s++ {
		dst := (r.id + s) % n
		src := (r.id - s + n) % n
		r.sendRaw(p, dst, tag, parts[dst])
		out[src] = r.Recv(p, src, tag)
	}
	r.w.barrier.Await(p) // collective completes everywhere together
	return out
}

// sendRaw is Send without the blocking wait for the send completion,
// used inside collectives where the exit barrier provides the guarantee.
func (r *Rank) sendRaw(p *sim.Proc, dst int, tag uint64, buf []byte) {
	r.enter(p)
	msg := make([]byte, msgHeader+len(buf))
	binary.LittleEndian.PutUint64(msg[0:8], tag)
	binary.LittleEndian.PutUint64(msg[8:16], uint64(len(buf)))
	copy(msg[msgHeader:], buf)
	r.qps[dst].Send(p, msg, false, tag)
}

// PutAsync posts a one-sided write into dst's window without waiting for
// completion. The buffer must remain untouched until a Fence to the same
// rank returns (the caller typically hands over a freshly filled
// write-combine buffer).
func (r *Rank) PutAsync(p *sim.Proc, dst int, off int, buf []byte) {
	r.enter(p)
	target := r.w.ranks[dst]
	if target.window == nil {
		panic("mpi: PutAsync to rank without an exposed window")
	}
	r.qps[dst].Write(p, buf, transport.Addr{MR: target.window, Off: off}, transport.WriteOptions{})
}

// Fence blocks until all previously posted puts to dst are complete
// (MPI_Win_flush): it posts a signaled zero-byte write, whose in-order
// completion implies completion of everything before it.
func (r *Rank) Fence(p *sim.Proc, dst int) {
	target := r.w.ranks[dst]
	if target.window == nil {
		panic("mpi: Fence to rank without an exposed window")
	}
	qp := r.qps[dst]
	qp.Write(p, nil, transport.Addr{MR: target.window}, transport.WriteOptions{Signaled: true})
	for {
		c := qp.SendCQ().Wait(p)
		if c.Op == transport.OpWrite {
			return
		}
	}
}
