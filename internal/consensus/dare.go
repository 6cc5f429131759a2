package consensus

import (
	"encoding/binary"
	"fmt"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/ycsb"
)

// RunDARE executes the DARE baseline (Poke & Hoefler, HPDC 2015): a
// replicated key-value store over a hand-crafted RDMA consensus protocol.
// It is implemented directly on transport verbs — no DFI — and models
// the two properties the paper identifies as DARE's bottlenecks (§6.3.2):
//
//  1. Clients are closed-loop: each submits its next request only after
//     receiving the result of the previous one, bounding throughput by
//     clients/RTT regardless of replica capacity.
//  2. The leader's write protocol serializes requests: log replication
//     happens one batch at a time via one-sided WRITEs into follower
//     logs, and reads and writes are batched separately, so a mixed
//     stream keeps interrupting batches. Read batches are not free
//     either: lacking leases, DARE confirms leadership with a round to a
//     majority of followers before answering a read batch.
//
// Load is varied by the number of clients (cfg.Clients); cfg.Rate is
// ignored.
func RunDARE(cfg Config) (Result, error) {
	k, c := buildEnv(cfg)
	followers := cfg.Replicas - 1
	leaderNode := c.Node(0)

	// Follower logs: one-sided write targets.
	const entrySize = 64
	logSize := (cfg.Requests + 16) * entrySize
	followerLogs := make([]transport.Region, followers)
	logQPs := make([]transport.Queue, followers)
	for i := 0; i < followers; i++ {
		followerLogs[i] = c.OpenRegion(c.Node(i+1), logSize)
		logQPs[i], _ = c.Dial(leaderNode, c.Node(i+1))
	}

	// Client connections to the leader.
	clientQPs := make([]transport.Queue, cfg.Clients) // client end
	leaderQPs := make([]transport.Queue, cfg.Clients) // leader end
	for i := 0; i < cfg.Clients; i++ {
		cq, lq := c.Dial(clientNode(c, cfg, i), leaderNode)
		clientQPs[i], leaderQPs[i] = cq, lq
	}

	rec := newRecorder(cfg.Requests)
	kv := NewKVStore(leaderNode, execCost)
	majority := followers/2 + 1

	// Message layout: reqid(8) op(8) key(8) value(8), zero-padded to 64B.
	const reqBytes = 64
	type request struct {
		client int
		id     uint64
		op     ycsb.Op
		key    int64
		value  int64
	}

	// Leader: drain client queues, then process batches — the maximal
	// prefix of same-type requests forms one batch (DARE's read/write
	// batch interruption).
	k.Spawn("dare-leader", func(p *sim.Proc) {
		for i := range leaderQPs {
			for r := 0; r < 4; r++ {
				leaderQPs[i].PostRecv(make([]byte, reqBytes), uint64(i))
			}
		}
		doneClients := 0
		var queue []request
		logTail := 0
		respond := func(req request, result int64) {
			var resp [16]byte
			binary.LittleEndian.PutUint64(resp[0:8], req.id)
			binary.LittleEndian.PutUint64(resp[8:16], uint64(result))
			leaderQPs[req.client].Send(p, resp[:], false, 0)
		}
		commitWrites := func(batch []request) {
			// Serialize the batch into one log region and replicate it
			// with one one-sided WRITE per follower; majority completion
			// commits (DARE's log replication).
			blob := make([]byte, len(batch)*entrySize)
			for i, req := range batch {
				binary.LittleEndian.PutUint64(blob[i*entrySize:], req.id)
				binary.LittleEndian.PutUint64(blob[i*entrySize+8:], uint64(req.key))
			}
			for f := 0; f < followers; f++ {
				logQPs[f].Write(p, blob, transport.Addr{MR: followerLogs[f], Off: logTail},
					transport.WriteOptions{Signaled: true, ID: uint64(f)})
			}
			// Majority commit: wait for the write completions of the first
			// majority followers (completions on distinct QPs arrive
			// independently; the slowest of the majority gates commit).
			for f := 0; f < majority; f++ {
				logQPs[f].SendCQ().Wait(p)
			}
			logTail += len(blob)
			for _, req := range batch {
				result := kv.Apply(p, req.op, req.key, req.value)
				respond(req, result)
			}
		}
		for doneClients < cfg.Clients || len(queue) > 0 {
			// Drain arrivals.
			for i := range leaderQPs {
				for leaderQPs[i].RecvCQ().Len() > 0 {
					comp, ok := leaderQPs[i].RecvCQ().Poll(p)
					if !ok {
						break
					}
					id := binary.LittleEndian.Uint64(comp.Buf[0:8])
					if id == ^uint64(0) {
						doneClients++
					} else {
						queue = append(queue, request{
							client: i,
							id:     id,
							op:     ycsb.Op(binary.LittleEndian.Uint64(comp.Buf[8:16])),
							key:    int64(binary.LittleEndian.Uint64(comp.Buf[16:24])),
							value:  int64(binary.LittleEndian.Uint64(comp.Buf[24:32])),
						})
					}
					leaderQPs[i].PostRecv(comp.Buf, comp.ID)
				}
			}
			if len(queue) == 0 {
				if doneClients >= cfg.Clients {
					break
				}
				// Idle: DARE's leader polls the client request regions at a
				// coarser granularity than a dedicated CQ wait.
				p.Sleep(500 * time.Nanosecond)
				continue
			}
			// Maximal same-type prefix forms the batch.
			kind := queue[0].op
			n := 1
			for n < len(queue) && queue[n].op == kind {
				n++
			}
			batch := queue[:n]
			queue = append([]request(nil), queue[n:]...)
			// Per-request protocol work at the leader (request-region
			// polling, log management, response bookkeeping): DARE's
			// hand-crafted data path keeps all of it on the leader.
			leaderNode.Compute(p, time.Duration(len(batch))*900*time.Nanosecond)
			if kind == ycsb.OpRead {
				// Leadership confirmation round: one-sided reads of a
				// majority of follower states gate the whole read batch.
				check := make([]byte, 8)
				for f := 0; f < majority; f++ {
					logQPs[f].Read(p, check, transport.Addr{MR: followerLogs[f]}, true, 1<<40)
				}
				for f := 0; f < majority; f++ {
					logQPs[f].SendCQ().Wait(p)
				}
				for _, req := range batch {
					respond(req, kv.Apply(p, req.op, req.key, req.value))
				}
			} else {
				commitWrites(batch)
			}
		}
	})

	// Closed-loop clients.
	perClient := cfg.Requests / cfg.Clients
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		k.Spawn(fmt.Sprintf("dare-client-%d", ci), func(p *sim.Proc) {
			qp := clientQPs[ci]
			gen := ycsb.New(cfg.ReadFraction, keySpace, cfg.Seed+int64(ci))
			for i := 0; i < perClient; i++ {
				op, key := gen.Next()
				id := reqKey(ci, i)
				var req [reqBytes]byte
				binary.LittleEndian.PutUint64(req[0:8], id)
				binary.LittleEndian.PutUint64(req[8:16], uint64(op))
				binary.LittleEndian.PutUint64(req[16:24], key)
				binary.LittleEndian.PutUint64(req[24:32], uint64(i))
				rec.sent(id, p.Now())
				resp := make([]byte, 16)
				qp.PostRecv(resp, 0)
				qp.Send(p, req[:], false, 0)
				qp.RecvCQ().Wait(p) // closed loop: block on the result
				rec.completed(binary.LittleEndian.Uint64(resp[0:8]), p.Now())
			}
			var done [reqBytes]byte
			binary.LittleEndian.PutUint64(done[0:8], ^uint64(0))
			qp.Send(p, done[:], false, 0)
		})
	}

	if err := k.Run(); err != nil {
		return Result{}, err
	}
	return rec.result(warmupFraction), nil
}
