package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/schema"
	"dfi/internal/sim"
)

// runRPC64 is the request/response use of the ring: 4 closed-loop client
// threads on node 0 send 64 B requests round-robin over a
// latency-optimized "ping" flow to 8 servers, which echo them over a
// "pong" flow whose RoutingFunc reads the client's index from the key.
// A client sends its next request only once the reply arrived.
//
// The seed picks each client's first server and a think time of 0-255 ns
// before every request, so which requests meet on node 0's link and at a
// server (the tail of the round-trip distribution) depends on it.
func runRPC64(r *round) {
	const clients, servers, tupleSize = 4, 8, 64
	trips := r.scaled(6_000)
	e := newDES(r, 1+servers, 0)
	sch := paddedSchema(tupleSize)

	var clientEPs, serverEPs []core.Endpoint
	for c := 0; c < clients; c++ {
		clientEPs = append(clientEPs, core.Endpoint{Node: e.c.Node(0), Thread: c})
	}
	for s := 0; s < servers; s++ {
		serverEPs = append(serverEPs, core.Endpoint{Node: e.c.Node(1 + s)})
	}
	lat := core.Options{Optimization: core.OptimizeLatency}
	flows := []core.FlowSpec{
		{Name: "ping", Sources: clientEPs, Targets: serverEPs, Schema: sch, ShuffleKey: -1, Options: lat},
		{Name: "pong", Sources: serverEPs, Targets: clientEPs, Schema: sch, ShuffleKey: -1, Options: lat,
			Routing: func(t schema.Tuple) int { return int(binary.LittleEndian.Uint64(t[keyOff:]) % clients) }},
	}
	e.expect(clients+servers, clients)

	e.k.Spawn("init", func(p *sim.Proc) {
		for f := range flows {
			sp := r.tr.span("flow_init", f, p)
			if err := core.FlowInit(p, e.reg, e.c, flows[f]); err != nil {
				r.problem("init %s: %v", flows[f].Name, err)
			}
			sp.end(p)
		}
	})

	var gens []*gen
	var sinks []*sink
	var srcStats []core.SourceStats
	endpoint := func() (*gen, *sink) {
		g, k := newGen(r.seed, len(gens), tupleSize), &sink{size: tupleSize}
		gens, sinks = append(gens, g), append(sinks, k)
		return g, k
	}

	for c := 0; c < clients; c++ {
		c := c
		g, k := endpoint()
		first := int(g.next() % servers)
		e.k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			sp := r.tr.span("source_open", 0, p)
			src, err := core.SourceOpen(p, e.reg, "ping", c)
			sp.end(p)
			if err != nil {
				r.problem("client %d: open ping: %v", c, err)
				return
			}
			sp = r.tr.span("target_open", 1, p)
			tgt, err := core.TargetOpen(p, e.reg, "pong", c)
			sp.end(p)
			if err != nil {
				r.problem("client %d: open pong: %v", c, err)
				return
			}
			e.arrive(r, p)
			tup := sch.NewTuple()
			wrongEcho := uint64(0)
			for i := 0; i < trips; {
				stop := min(i+spanBlock/4, trips)
				sp := r.tr.span("rpc", 0, p)
				var pushNs, consumeNs int64
				n := stop - i
				for ; i < stop; i++ {
					// The key's residue names the client, so that the
					// servers' RoutingFunc brings the echo home.
					key := g.next()/clients*clients + uint64(c)
					clientEPs[c].Node.Compute(p, time.Duration(key>>56))
					t0 := p.Now()
					g.fill(tup, key, true, t0)
					if err := src.PushTo(p, tup, (first+i)%servers); err != nil {
						r.problem("client %d: push: %v", c, err)
						return
					}
					t1 := p.Now()
					reply, ok := tgt.Consume(p)
					if !ok {
						r.problem("client %d: pong flow ended after %d of %d round trips", c, i, trips)
						return
					}
					t2 := p.Now()
					if _, pushed := k.take(reply); binary.LittleEndian.Uint64(reply[keyOff:]) != key || pushed != t0 {
						wrongEcho++
					}
					k.deliver = append(k.deliver, int64(t2-t0))
					pushNs += int64(t1 - t0)
					consumeNs += int64(t2 - t1)
				}
				r.tr.add("push", n, pushNs)
				r.tr.add("consume", n, consumeNs)
				sp.endN(p, 2*n)
			}
			e.done(r, p)
			if wrongEcho > 0 {
				k.corrupt += wrongEcho
				r.problem("client %d: %d replies did not echo their request", c, wrongEcho)
			}
			if err := src.Close(p); err != nil {
				r.problem("client %d: close ping: %v", c, err)
			}
			srcStats = append(srcStats, src.Stats())
			for {
				if _, ok := tgt.Consume(p); !ok {
					break
				}
				r.problem("client %d: a reply arrived that nobody asked for", c)
			}
		})
	}

	for s := 0; s < servers; s++ {
		s := s
		g, k := endpoint()
		e.k.Spawn(fmt.Sprintf("server%d", s), func(p *sim.Proc) {
			sp := r.tr.span("target_open", 0, p)
			tgt, err := core.TargetOpen(p, e.reg, "ping", s)
			sp.end(p)
			if err != nil {
				r.problem("server %d: open ping: %v", s, err)
				return
			}
			sp = r.tr.span("source_open", 1, p)
			src, err := core.SourceOpen(p, e.reg, "pong", s)
			sp.end(p)
			if err != nil {
				r.problem("server %d: open pong: %v", s, err)
				return
			}
			e.arrive(r, p)
			for {
				req, ok := tgt.Consume(p)
				if !ok {
					break
				}
				k.take(req)
				g.note(binary.LittleEndian.Uint64(req[keyOff:]))
				if err := src.Push(p, req); err != nil {
					r.problem("server %d: echo: %v", s, err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				r.problem("server %d: close pong: %v", s, err)
			}
			srcStats = append(srcStats, src.Stats())
		})
	}

	e.run(r, flows)
	r.settle(gens, sinks, tupleSize)
	// Sources idle between requests, so stall shares are taken against
	// the whole timed phase of every source.
	r.coreLayer(srcStats, (r.v1-r.v0)*(clients+servers))
	r.layer["registry.lease_renew_rpcs"] = float64(e.renewRPCs())
	r.flows = float64(len(flows))
}
