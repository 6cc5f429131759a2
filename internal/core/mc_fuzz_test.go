package core

import (
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// FuzzMcIngest feeds arbitrary bytes, cut at an arbitrary length, to the
// two decoders of a multicast flow that read what a peer wrote: the
// target's classification of a received message (agreement control /
// segment / end marker, mcFeed.ingest) and the source's control decode
// (mcTx.handleControl). Neither may panic, a held segment is exactly the
// bytes received, and a payload handed out lies inside them. mode bit 0
// orders the flow, bit 1 leases it (which arms gap agreement on an
// ordered flow). The seed corpus lives under testdata/fuzz/FuzzMcIngest
// and is replayed by plain `go test`.
func FuzzMcIngest(f *testing.F) {
	f.Add(make([]byte, transport.SegDescBytes), uint16(transport.SegDescBytes), uint8(0))
	f.Add(ctrlMsg{ctrlGapProbe, 0, 3}.encode(nil), uint16(ctrlBytes), uint8(3))
	f.Fuzz(func(t *testing.T, msg []byte, n uint16, mode uint8) {
		k := sim.New(1)
		k.Deadline = time.Second
		c := fabric.NewCluster(k, 2, fabric.DefaultConfig())
		reg := registry.New(k)
		spec := FlowSpec{
			Name:    "fuzz",
			Type:    ReplicateFlow,
			Sources: []Endpoint{{Node: c.Node(0)}},
			Targets: []Endpoint{{Node: c.Node(1)}},
			Schema:  kvSchema,
			Options: Options{Multicast: true, GlobalOrdering: mode&1 != 0, SegmentSize: 4 * kvSchema.TupleSize()},
		}
		if mode&2 != 0 {
			spec.Options.LeaseTTL = 100 * time.Microsecond
		}
		k.Spawn("fuzz", func(p *sim.Proc) {
			if err := FlowInit(p, reg, c, spec); err != nil {
				t.Error(err)
				return
			}
			// The target first: a source waits for it to publish.
			tgt, err := TargetOpen(p, reg, spec.Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			src, err := SourceOpen(p, reg, spec.Name, 0)
			if err != nil {
				t.Error(err)
				return
			}
			// Let the lease agents go once the decoders have run.
			defer src.closed.Store(true)
			defer tgt.done.Store(true)

			feed := tgt.feed.(*mcFeed)
			buf := feed.takeBuf()
			for i := range buf {
				buf[i] = 0xa5 // what an earlier message left behind
			}
			bytes := min(int(n), copy(buf, msg))
			feed.ingest(p, buf, bytes, feed.ep)
			for _, st := range feed.streams {
				for _, held := range st.pending {
					if len(held) != bytes || &held[0] != &buf[0] {
						t.Errorf("a %d-byte message is held as %d bytes", bytes, len(held))
					}
				}
			}
			if data, ok := feed.scan(p); ok && len(data) > 0 {
				if len(data) > bytes-transport.SegDescBytes || &data[0] != &buf[transport.SegDescBytes] {
					t.Errorf("a %d-byte message handed out a %d-byte payload outside it", bytes, len(data))
				}
			}

			x := src.legs[0].tx.(*mcTx)
			x.handleControl(p, 0, transport.Completion{ID: 0, Bytes: min(int(n), copy(x.ctrlBufs[0], msg))})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
