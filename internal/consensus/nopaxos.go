package consensus

import (
	"fmt"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/ycsb"
)

// RunNOPaxos executes the normal-operation protocol of NOPaxos (Li et
// al., OSDI 2016) on top of DFI's ordered unreliable multicast: clients
// multicast requests through a globally-ordered replicate flow (sequence
// numbers from DFI's tuple sequencer), every replica processes them in
// the same global order, and the *clients* collect the response quorum —
// leader plus f replicas — which unburdens the leader relative to
// Multi-Paxos (the paper's explanation for NOPaxos' higher saturation
// point in Figure 15).
//
// Lost multicasts show as sequence gaps at the replicas, and NOPaxos' gap
// agreement is DFI's gap ladder: a replica NACKs the gap and the owning
// client retransmits it, and a gap whose owner failed is settled by
// DFI's gap agreement, so all replicas converge on the same log.
// Result.Gaps counts the replicas' NACKs.
func RunNOPaxos(cfg Config) (Result, error) {
	k, c := buildEnv(cfg)
	reg := registry.New(k)

	clientEPs := make([]core.Endpoint, cfg.Clients)
	for i := range clientEPs {
		clientEPs[i] = core.Endpoint{Node: clientNode(c, cfg, i), Thread: i}
	}
	replicaEPs := make([]core.Endpoint, cfg.Replicas)
	for i := range replicaEPs {
		replicaEPs[i] = core.Endpoint{Node: c.Node(i), Thread: 0}
	}

	oum := core.FlowSpec{
		Name: "nopaxos-oum", Type: core.ReplicateFlow,
		Sources: clientEPs,
		Targets: replicaEPs,
		Schema:  RequestSchema,
		Options: core.Options{
			Optimization:   core.OptimizeLatency,
			Multicast:      true,
			GlobalOrdering: true,
		},
	}
	resp := core.FlowSpec{
		Name:       "nopaxos-response",
		Sources:    replicaEPs,
		Targets:    clientEPs,
		Schema:     ResponseSchema,
		ShuffleKey: -1,
		Routing: func(t schema.Tuple) int {
			return int(ResponseSchema.Int64(t, 1))
		},
		Options: core.Options{Optimization: core.OptimizeLatency},
	}

	rec := newRecorder(cfg.Requests)
	quorum := cfg.Replicas/2 + 1 // f+1 including the leader

	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, c, oum); err != nil {
			panic(err)
		}
		if err := core.FlowInit(p, reg, c, resp); err != nil {
			panic(err)
		}
	})

	// Replicas: consume the ordered stream, speculatively execute (leader
	// computes results; followers only log), reply directly to clients.
	gaps := 0
	for ri := 0; ri < cfg.Replicas; ri++ {
		ri := ri
		node := replicaEPs[ri].Node
		isLeader := ri == 0
		k.Spawn(fmt.Sprintf("replica-%d", ri), func(p *sim.Proc) {
			in, err := core.TargetOpen(p, reg, "nopaxos-oum", ri)
			if err != nil {
				panic(err)
			}
			out, err := core.SourceOpen(p, reg, "nopaxos-response", ri)
			if err != nil {
				panic(err)
			}
			kv := NewKVStore(node, execCost)
			reply := ResponseSchema.NewTuple()
			for {
				tup, ok := in.Consume(p)
				if !ok {
					break
				}
				var result int64
				if isLeader {
					result = kv.Apply(p, ycsb.Op(RequestSchema.Int64(tup, 2)),
						RequestSchema.Int64(tup, 3), RequestSchema.Int64(tup, 4))
				} else {
					node.Compute(p, execCost/2) // log append only
				}
				ResponseSchema.PutUint64(reply, 0, RequestSchema.Uint64(tup, 0))
				ResponseSchema.PutInt64(reply, 1, RequestSchema.Int64(tup, 1))
				ResponseSchema.PutInt64(reply, 2, result)
				if isLeader {
					ResponseSchema.PutInt64(reply, 3, 1)
				} else {
					ResponseSchema.PutInt64(reply, 3, 0)
				}
				if err := out.Push(p, reply); err != nil {
					panic(err)
				}
			}
			out.Close(p)
			gaps += int(in.Stats().McNacksSent)
		})
	}

	// Clients: open-loop submitters; receivers assemble quorums.
	perClient := cfg.Requests / cfg.Clients
	gap := cfg.interArrival()
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		k.Spawn(fmt.Sprintf("client-submit-%d", ci), func(p *sim.Proc) {
			src, err := core.SourceOpen(p, reg, "nopaxos-oum", ci)
			if err != nil {
				panic(err)
			}
			gen := ycsb.New(cfg.ReadFraction, keySpace, cfg.Seed+int64(ci))
			tup := RequestSchema.NewTuple()
			for i := 0; i < perClient; i++ {
				op, key := gen.Next()
				id := reqKey(ci, i)
				RequestSchema.PutUint64(tup, 0, id)
				RequestSchema.PutInt64(tup, 1, int64(ci))
				RequestSchema.PutInt64(tup, 2, int64(op))
				RequestSchema.PutInt64(tup, 3, int64(key))
				RequestSchema.PutInt64(tup, 4, int64(i))
				rec.sent(id, p.Now())
				if err := src.Push(p, tup); err != nil {
					panic(err)
				}
				p.Sleep(gap)
			}
			src.Close(p)
		})
		k.Spawn(fmt.Sprintf("client-recv-%d", ci), func(p *sim.Proc) {
			tgt, err := core.TargetOpen(p, reg, "nopaxos-response", ci)
			if err != nil {
				panic(err)
			}
			votes := make(map[uint64]int, 64)
			leaderSeen := make(map[uint64]bool, 64)
			completed := make(map[uint64]bool, perClient)
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				id := ResponseSchema.Uint64(tup, 0)
				if completed[id] {
					continue
				}
				votes[id]++
				if ResponseSchema.Int64(tup, 3) == 1 {
					leaderSeen[id] = true
				}
				if votes[id] >= quorum && leaderSeen[id] {
					completed[id] = true
					delete(votes, id)
					delete(leaderSeen, id)
					rec.completed(id, p.Now())
				}
			}
		})
	}

	if err := k.Run(); err != nil {
		return Result{}, err
	}
	res := rec.result(warmupFraction)
	res.Gaps = gaps
	return res, nil
}
