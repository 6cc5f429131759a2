package consensus

import (
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/ycsb"
)

// RunMultiPaxos executes the failure-free operation of classical
// Multi-Paxos composed from DFI flows exactly as in the paper's Figure 3:
//
//	f1  N:1 shuffle   clients → leader        (submit request)
//	f2  replicate     leader  → followers     (propose, via RDMA multicast)
//	f3  N:1 shuffle   followers → leader      (vote)
//	f4  1:N shuffle   leader  → clients       (response, keyed by client id)
//
// The leader executes a request once a majority of replicas (itself plus
// two of four followers) has voted for it.
//
// With CrashAfterProposals set, follower CrashFollower's node crashes
// after that many proposals; its lease (FailureTimeout) lapses, the
// registry evicts it from the propose and vote flows, and the leader
// commits on the surviving majority.
func RunMultiPaxos(cfg Config) (Result, error) {
	k, c := buildEnv(cfg)
	reg := registry.New(k)
	followers := cfg.Replicas - 1
	leaderNode := c.Node(0)

	clientEPs := make([]core.Endpoint, cfg.Clients)
	for i := range clientEPs {
		clientEPs[i] = core.Endpoint{Node: clientNode(c, cfg, i), Thread: i}
	}
	followerEPs := make([]core.Endpoint, followers)
	for i := range followerEPs {
		followerEPs[i] = core.Endpoint{Node: c.Node(i + 1), Thread: 0}
	}

	lat := core.Options{Optimization: core.OptimizeLatency}
	f1 := core.FlowSpec{
		Name: "paxos-submit", Sources: clientEPs,
		Targets: []core.Endpoint{{Node: leaderNode, Thread: 0}},
		Schema:  RequestSchema, Options: lat,
	}
	// FailureTimeout is the lease TTL of the two flows a crashed follower
	// can stall: the leader's propose stream (per-target credit) and the
	// leader-side vote collection. The registry evicts the crashed
	// follower from both once its lease lapses, and that is the only
	// verdict: while the propose stream waits on the dead target, the
	// healthy followers' votes stall too, but their leases keep them in.
	proposeOpts := core.Options{Optimization: core.OptimizeLatency, Multicast: true, LeaseTTL: cfg.FailureTimeout}
	voteOpts := lat
	voteOpts.LeaseTTL = cfg.FailureTimeout
	f2 := core.FlowSpec{
		Name: "paxos-propose", Type: core.ReplicateFlow,
		Sources: []core.Endpoint{{Node: leaderNode, Thread: 0}},
		Targets: followerEPs,
		Schema:  RequestSchema,
		Options: proposeOpts,
	}
	f3 := core.FlowSpec{
		Name: "paxos-vote", Sources: followerEPs,
		Targets: []core.Endpoint{{Node: leaderNode, Thread: 1}},
		Schema:  VoteSchema, Options: voteOpts,
	}
	f4 := core.FlowSpec{
		Name:       "paxos-response",
		Sources:    []core.Endpoint{{Node: leaderNode, Thread: 1}},
		Targets:    clientEPs,
		Schema:     ResponseSchema,
		ShuffleKey: -1,
		Routing: func(t schema.Tuple) int {
			return int(ResponseSchema.Int64(t, 1))
		},
		Options: lat,
	}

	rec := newRecorder(cfg.Requests)
	kv := NewKVStore(leaderNode, execCost)
	majority := followers/2 + 1 // follower votes needed (leader self-vote implied)

	// Leader-local request side table shared by the proposer and committer
	// threads (both run on the leader node, sharing its memory).
	requestLog := make(map[uint64][4]int64, 1024)

	k.Spawn("init", func(p *sim.Proc) {
		for _, spec := range []core.FlowSpec{f1, f2, f3, f4} {
			if err := core.FlowInit(p, reg, c, spec); err != nil {
				panic(err)
			}
		}
	})

	// Leader thread 0: order client requests and propose them.
	k.Spawn("leader-proposer", func(p *sim.Proc) {
		in, err := core.TargetOpen(p, reg, "paxos-submit", 0)
		if err != nil {
			panic(err)
		}
		out, err := core.SourceOpen(p, reg, "paxos-propose", 0)
		if err != nil {
			panic(err)
		}
		for {
			tup, ok := in.Consume(p)
			if !ok {
				break
			}
			// Ordering + log append on the leader.
			leaderNode.Compute(p, execCost/2)
			requestLog[RequestSchema.Uint64(tup, 0)] = [4]int64{
				RequestSchema.Int64(tup, 2), // op
				RequestSchema.Int64(tup, 3), // key
				RequestSchema.Int64(tup, 4), // value
				RequestSchema.Int64(tup, 1), // client
			}
			if err := out.Push(p, tup); err != nil {
				panic(err)
			}
		}
		out.Close(p)
	})

	// Followers: append proposals to their logs and vote.
	for fi := 0; fi < followers; fi++ {
		fi := fi
		node := followerEPs[fi].Node
		k.Spawn(fmt.Sprintf("follower-%d", fi), func(p *sim.Proc) {
			in, err := core.TargetOpen(p, reg, "paxos-propose", fi)
			if err != nil {
				panic(err)
			}
			out, err := core.SourceOpen(p, reg, "paxos-vote", fi)
			if err != nil {
				panic(err)
			}
			vote := VoteSchema.NewTuple()
			handled := 0
			for {
				tup, ok := in.Consume(p)
				if !ok {
					break
				}
				node.Compute(p, execCost/2) // append to log
				VoteSchema.PutUint64(vote, 0, RequestSchema.Uint64(tup, 0))
				VoteSchema.PutInt64(vote, 1, int64(fi))
				if err := out.Push(p, vote); err != nil {
					panic(err)
				}
				handled++
				if cfg.CrashAfterProposals > 0 && fi == cfg.CrashFollower &&
					handled >= cfg.CrashAfterProposals {
					// Crash the follower's node: its lease stops being
					// renewed, and the registry evicts it from both flows.
					// A process that merely returned would keep its lease
					// alive — slow is not dead.
					c.Config().Faults.CrashNode(node.ID(), p.Now())
					return
				}
			}
			out.Close(p)
		})
	}

	// Leader thread 1: collect votes, execute on majority, respond.
	k.Spawn("leader-committer", func(p *sim.Proc) {
		in, err := core.TargetOpen(p, reg, "paxos-vote", 0)
		if err != nil {
			panic(err)
		}
		out, err := core.SourceOpen(p, reg, "paxos-response", 0)
		if err != nil {
			panic(err)
		}
		votes := make(map[uint64]int, 1024)
		resp := ResponseSchema.NewTuple()
		// Per-vote bookkeeping (match against the log, quorum tracking):
		// this is the leader-side work NOPaxos moves to the clients, which
		// is why its leader saturates earlier (paper §6.3.2).
		const voteCost = 250 * time.Nanosecond
		for {
			tup, ok := in.Consume(p)
			if !ok {
				break
			}
			leaderNode.Compute(p, voteCost)
			id := VoteSchema.Uint64(tup, 0)
			votes[id]++
			if votes[id] != majority {
				continue
			}
			// Execute and acknowledge, looking the request up in the
			// proposer's leader-local side table.
			e := requestLog[id]
			delete(requestLog, id)
			res := kv.Apply(p, ycsb.Op(e[0]), e[1], e[2])
			client := e[3]
			ResponseSchema.PutUint64(resp, 0, id)
			ResponseSchema.PutInt64(resp, 1, client)
			ResponseSchema.PutInt64(resp, 2, res)
			ResponseSchema.PutInt64(resp, 3, 1)
			if err := out.Push(p, resp); err != nil {
				panic(err)
			}
		}
		out.Close(p)
	})

	// Clients: open-loop submitters plus response consumers.
	done := sim.NewWaitGroup(k)
	perClient := cfg.Requests / cfg.Clients
	gap := cfg.interArrival()
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		done.Add(1)
		k.Spawn(fmt.Sprintf("client-submit-%d", ci), func(p *sim.Proc) {
			src, err := core.SourceOpen(p, reg, "paxos-submit", ci)
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
			done.Done()
		})
		k.Spawn(fmt.Sprintf("client-recv-%d", ci), func(p *sim.Proc) {
			tgt, err := core.TargetOpen(p, reg, "paxos-response", ci)
			if err != nil {
				panic(err)
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				rec.completed(ResponseSchema.Uint64(tup, 0), p.Now())
			}
		})
	}

	if err := k.Run(); err != nil {
		return Result{}, err
	}
	return rec.result(warmupFraction), nil
}
