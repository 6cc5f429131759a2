package fabric

import (
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// multicastGroup models InfiniBand unreliable-datagram multicast with
// switch-side replication: a sender serializes a message once on its own
// link; the switch fans it out to every member's receive link in parallel.
// It implements transport.Group.
//
// As with real UD multicast, delivery is unreliable: a message arriving at
// a member with no posted receive is dropped, and loss can additionally be
// injected with Config.MulticastLoss. Reliability (credits, NACKs,
// sequence numbers) is the responsibility of the layer above — DFI's
// replicate flow implements it.
type multicastGroup struct {
	c       *Cluster
	members []*mcEndpoint

	// detached marks members that were dropped from the group (an evicted
	// flow target): the switch stops replicating to their port, so they
	// neither receive traffic nor count drops.
	detached []bool
}

// mcEndpoint is one member's attachment to a multicast group: a receive
// queue and a completion queue. It implements transport.GroupEndpoint.
type mcEndpoint struct {
	node  *Node
	recvq []transport.RecvWR
	rcq   *completionQueue
	drops int64 // messages lost here: no posted receive, or injected loss
}

// Multicast builds a multicast group over the given members, one endpoint
// per member, in order.
func (c *Cluster) Multicast(members ...transport.Endpoint) transport.Group {
	g := &multicastGroup{c: c}
	for _, m := range members {
		g.members = append(g.members, &mcEndpoint{node: node(m), rcq: c.newCQ()})
	}
	g.detached = make([]bool, len(g.members))
	return g
}

// Detach removes member i from switch-side replication: subsequent Sends
// skip its port. Idempotent. The endpoint object stays valid so a later
// Reattach can replace it.
func (g *multicastGroup) Detach(i int) { g.detached[i] = true }

// Reattach re-joins slot i to the group on ep with a fresh endpoint
// (empty receive queue, fresh CQ) and resumes switch-side replication to
// it. Stale receives posted by the slot's previous incarnation are gone —
// exactly the semantics of re-joining an IB multicast group.
func (g *multicastGroup) Reattach(i int, ep transport.Endpoint) transport.GroupEndpoint {
	m := &mcEndpoint{node: node(ep), rcq: g.c.newCQ()}
	g.members[i] = m
	g.detached[i] = false
	return m
}

// Member returns the endpoint of member i.
func (g *multicastGroup) Member(i int) transport.GroupEndpoint { return g.members[i] }

// PostRecv posts a receive buffer at the endpoint. Unlike RC queue pairs,
// a UD message that finds no posted receive is dropped, so the layer above
// must pre-populate the queue (DFI sizes it by its credit score).
func (ep *mcEndpoint) PostRecv(buf []byte, id uint64) {
	ep.recvq = append(ep.recvq, transport.RecvWR{Buf: buf, ID: id})
}

// RecvCQ returns the endpoint's receive completion queue.
func (ep *mcEndpoint) RecvCQ() transport.CompletionQueue { return ep.rcq }

// Owner returns the endpoint's node as a transport endpoint.
func (ep *mcEndpoint) Owner() transport.Endpoint { return ep.node }

// DropCount returns the number of messages lost at this endpoint.
func (ep *mcEndpoint) DropCount() int64 { return ep.drops }

// Send multicasts src from the given endpoint to every member endpoint
// (including the sender's own endpoint if it is a member, unless
// excludeSelf). The sender's link is used exactly once; replication
// happens in the switch, which is why replicate-flow bandwidth can exceed
// the sender's link speed (Figure 8b in the paper).
func (g *multicastGroup) Send(p transport.Ctx, sender transport.Endpoint, src []byte, excludeSelf bool) {
	from := node(sender)
	cfg := &g.c.cfg
	from.Compute(p, cfg.PostOverhead)

	k := g.c.K
	ser := cfg.serialization(len(src))
	txStart, txEnd := from.reserveTx(k.Now()+cfg.NICStartup, ser)

	var staged []byte
	k.At(txEnd, func() {
		staged = make([]byte, len(src))
		copy(staged, src)
	})

	arriveSwitch := txStart + cfg.Propagation + cfg.SwitchDelay
	for mi, ep := range g.members {
		ep := ep
		if g.detached[mi] {
			continue // evicted member: the switch no longer replicates to it
		}
		if excludeSelf && ep.node == from {
			continue
		}
		// Each member's delivery draws its own fault verdict (real UD
		// multicast loss is per receive port, not per message).
		fv := g.c.fault(transport.OpSend, from, ep.node, arriveSwitch+ser)
		disp := transport.Delivered
		if fv.drop {
			disp = transport.Dropped
		}
		g.c.trace(transport.OpSend, from, ep.node, len(src), k.Now(), arriveSwitch+ser+fv.delay, disp)
		if ep.node == from {
			// Loopback delivery does not traverse the switch twice; model
			// it as arriving after the local serialization only.
			g.deliver(ep, txEnd, ser, &staged, fv)
			continue
		}
		g.deliver(ep, arriveSwitch, ser, &staged, fv)
	}
}

// deliver schedules arrival of a staged message at one endpoint under the
// fault verdict fv.
func (g *multicastGroup) deliver(ep *mcEndpoint, from sim.Time, ser sim.Time, staged *[]byte, fv verdict) {
	cfg := &g.c.cfg
	k := g.c.K
	_, rxEnd := ep.node.reserveRx(from, ser)
	arrive := func() {
		if len(ep.recvq) == 0 {
			ep.drops++ // UD: no posted receive, packet lost
			return
		}
		wr := ep.recvq[0]
		ep.recvq = ep.recvq[1:]
		n := copy(wr.Buf, *staged)
		ep.rcq.push(transport.Completion{ID: wr.ID, Op: transport.OpRecv, Bytes: n, Buf: wr.Buf})
	}
	k.At(rxEnd+fv.delay, func() {
		if fv.drop || (cfg.MulticastLoss > 0 && k.Rand().Float64() < cfg.MulticastLoss) {
			ep.drops++
			return
		}
		arrive()
	})
	if fv.duplicate {
		k.At(rxEnd+fv.delay+cfg.Faults.dupDelay(), arrive)
	}
}
