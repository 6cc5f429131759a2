package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// TestPropertyWriteIntegrity: arbitrary sequences of WRITEs (random
// sizes, offsets, commit tails) from multiple senders into disjoint
// regions always deliver byte-exact payloads once the last signaled
// completion is observed and the data has drained.
func TestPropertyWriteIntegrity(t *testing.T) {
	type params struct {
		Senders uint8
		Writes  uint8
		Size    uint16
		Tail    uint8
	}
	prop := func(ps params) bool {
		senders := int(ps.Senders%3) + 1
		writes := int(ps.Writes%20) + 1
		size := int(ps.Size%4000) + 1
		tail := int(ps.Tail) % (size + 1)

		k := sim.New(5)
		k.Deadline = time.Minute
		c := NewCluster(k, senders+1, DefaultConfig())
		dst := c.Node(senders)
		mrs := make([]transport.Region, senders)
		srcs := make([][]byte, senders)

		for s := 0; s < senders; s++ {
			s := s
			mrs[s] = c.OpenRegion(dst, size)
			qp, _ := c.Dial(c.Node(s), dst)
			srcs[s] = make([]byte, size)
			for i := range srcs[s] {
				srcs[s][i] = byte(s*31 + i)
			}
			k.Spawn(fmt.Sprintf("w%d", s), func(p *sim.Proc) {
				buf := make([]byte, size)
				for w := 0; w < writes; w++ {
					copy(buf, srcs[s])
					qp.Write(p, buf, transport.Addr{MR: mrs[s]}, transport.WriteOptions{
						Signaled:   true,
						CommitTail: tail,
					})
					qp.SendCQ().Wait(p) // completion before reusing buf
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Log(err)
			return false
		}
		for s := 0; s < senders; s++ {
			if !bytes.Equal(mrs[s].Bytes(), srcs[s]) {
				t.Logf("params %+v: sender %d payload corrupted", ps, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFetchAddLinearizable: concurrent fetch-and-adds from many
// nodes return a permutation of 0..n-1 and leave the counter at n,
// regardless of node count and per-node operation counts.
func TestPropertyFetchAddLinearizable(t *testing.T) {
	prop := func(nodes, perNode uint8) bool {
		n := int(nodes%5) + 1
		ops := int(perNode%30) + 1

		k := sim.New(3)
		k.Deadline = time.Minute
		c := NewCluster(k, n+1, DefaultConfig())
		mr := c.OpenRegion(c.Node(n), 8)
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			qp, _ := c.Dial(c.Node(i), c.Node(n))
			k.Spawn(fmt.Sprintf("a%d", i), func(p *sim.Proc) {
				for j := 0; j < ops; j++ {
					old, ok := qp.FetchAdd(p, transport.Addr{MR: mr}, 1)
					if !ok {
						panic("fetch-add failed on a healthy node")
					}
					if seen[old] {
						panic("duplicate")
					}
					seen[old] = true
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Log(err)
			return false
		}
		total := uint64(n * ops)
		if binary.LittleEndian.Uint64(mr.Bytes()) != total || uint64(len(seen)) != total {
			return false
		}
		for v := uint64(0); v < total; v++ {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySendRecvFIFO: two-sided messages between a pair of nodes
// are delivered reliably and in order for arbitrary message counts and
// sizes.
func TestPropertySendRecvFIFO(t *testing.T) {
	prop := func(count uint8, size uint16) bool {
		n := int(count%40) + 1
		sz := int(size%2048) + 8

		k := sim.New(9)
		k.Deadline = time.Minute
		c := NewCluster(k, 2, DefaultConfig())
		qa, qb := c.Dial(c.Node(0), c.Node(1))

		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				msg := make([]byte, sz)
				msg[0] = byte(i)
				qa.Send(p, msg, false, uint64(i))
			}
		})
		ok := true
		k.Spawn("receiver", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				buf := make([]byte, sz)
				qb.PostRecv(buf, uint64(i))
				comp := qb.RecvCQ().Wait(p)
				if comp.Bytes != sz || comp.Buf[0] != byte(i) {
					ok = false
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Log(err)
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
