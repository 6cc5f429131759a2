package fabric

import (
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// This file is the fabric-backend adapter: the only place where the
// transport interfaces meet the fabric's concrete types. *Cluster
// implements transport.Transport, *Node transport.Endpoint, *QP
// transport.Queue, *CQ transport.CompletionQueue, *MemoryRegion
// transport.Region and *McEndpoint transport.GroupEndpoint directly;
// MulticastGroup keeps its concrete method set for fabric tests (which
// reach into member endpoints), so mcGroup wraps it for transport.Group.

var (
	_ transport.Transport       = (*Cluster)(nil)
	_ transport.Endpoint        = (*Node)(nil)
	_ transport.Queue           = (*QP)(nil)
	_ transport.CompletionQueue = (*CQ)(nil)
	_ transport.Region          = (*MemoryRegion)(nil)
	_ transport.GroupEndpoint   = (*McEndpoint)(nil)
	_ transport.Group           = mcGroup{}
)

// node asserts a transport endpoint back to the fabric's concrete node.
func node(ep transport.Endpoint) *Node {
	n, ok := ep.(*Node)
	if !ok {
		panic("fabric: endpoint is not a fabric node")
	}
	return n
}

// Dial connects endpoints a and b with a reliable queue pair.
func (c *Cluster) Dial(a, b transport.Endpoint) (transport.Queue, transport.Queue) {
	qa, qb := c.CreateQPPair(node(a), node(b))
	return qa, qb
}

// OpenRegion registers a memory region of the given size on ep.
func (c *Cluster) OpenRegion(ep transport.Endpoint, size int) transport.Region {
	return c.RegisterMemory(node(ep), size)
}

// Multicast creates an unreliable multicast group over the members.
func (c *Cluster) Multicast(members ...transport.Endpoint) transport.Group {
	nodes := make([]*Node, len(members))
	for i, m := range members {
		nodes[i] = node(m)
	}
	return mcGroup{g: c.CreateMulticast(nodes...)}
}

// NewCond returns a condition variable parked on the sim kernel.
func (c *Cluster) NewCond() transport.Cond {
	return &simCond{c: sim.NewCond(c.K)}
}

// Spawn starts fn as a new sim process named name.
func (c *Cluster) Spawn(parent transport.Ctx, name string, fn func(transport.Ctx)) {
	proc(parent).Spawn(name, func(sp *sim.Proc) { fn(sp) })
}

// SwitchEndpoint returns a fresh in-network-processing endpoint.
func (c *Cluster) SwitchEndpoint() transport.Endpoint { return c.NewSwitchNode() }

// simCond adapts *sim.Cond to transport.Cond by pairing it with a
// broadcast counter (the kernel runs one process at a time, so the
// counter needs no lock).
type simCond struct {
	c   *sim.Cond
	seq uint64
}

func (s *simCond) Seq() uint64 { return s.seq }

func (s *simCond) Wait(p transport.Ctx, since uint64, d time.Duration) bool {
	sp := proc(p)
	deadline := sp.Now() + d
	for s.seq == since {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return false
		}
		s.c.WaitTimeout(sp, remain)
	}
	return true
}

func (s *simCond) Broadcast() {
	s.seq++
	s.c.Broadcast()
}

// mcGroup adapts *MulticastGroup to transport.Group.
type mcGroup struct{ g *MulticastGroup }

func (m mcGroup) Send(p transport.Ctx, from transport.Endpoint, src []byte, excludeSelf bool) {
	m.g.Send(p, node(from), src, excludeSelf)
}

func (m mcGroup) Members() int { return m.g.Members() }

func (m mcGroup) Member(i int) transport.GroupEndpoint { return m.g.Member(i) }

func (m mcGroup) EndpointFor(ep transport.Endpoint) transport.GroupEndpoint {
	if e := m.g.EndpointFor(node(ep)); e != nil {
		return e
	}
	return nil
}

func (m mcGroup) Detach(i int) { m.g.Detach(i) }

func (m mcGroup) Detached(i int) bool { return m.g.Detached(i) }

func (m mcGroup) Reattach(i int, ep transport.Endpoint) transport.GroupEndpoint {
	return m.g.Reattach(i, node(ep))
}
