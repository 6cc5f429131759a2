package experiments

import (
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/scenario"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// padSchema returns a tuple schema of exactly size bytes: an 8-byte key
// followed by padding.
func padSchema(size int) *schema.Schema {
	if size < 16 {
		size = 16
	}
	return schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(size - 8)},
	)
}

// segFor returns a bandwidth-mode segment size that can hold at least one
// tuple of the given size (the 8 KiB default otherwise).
func segFor(tupleSize int) int {
	if tupleSize > 8<<10 {
		return tupleSize
	}
	return 8 << 10
}

// onNodes places threads endpoints on each of count nodes of b, starting
// at node first.
func onNodes(b *scenario.Backend, first, count, threads int) []core.Endpoint {
	var eps []core.Endpoint
	for n := first; n < first+count; n++ {
		for th := 0; th < threads; th++ {
			eps = append(eps, core.Endpoint{Node: b.Node(n), Thread: th})
		}
	}
	return eps
}

// shuffleSenderBW is the aggregate sender bandwidth of a bandwidth-mode
// shuffle flow on b, every source pushing volumePerSource bytes of
// random-key tuples: all pushed bytes over the instant the last target
// drained them.
func shuffleSenderBW(b *scenario.Backend, sources, targets []core.Endpoint, tupleSize int, volumePerSource int64, segs int) (float64, error) {
	sch := padSchema(tupleSize)
	n := int(volumePerSource) / sch.TupleSize()
	res := scenario.Run(b, scenario.Scenario{
		Spec: core.FlowSpec{
			Name: "bw", Sources: sources, Targets: targets, Schema: sch,
			Options: core.Options{SegmentsPerRing: segs},
		},
		Tuples: n,
	})
	return bw(int64(len(sources)*n*sch.TupleSize()), res.End), res.Err()
}

// RunFig7a reproduces Figure 7a: sender bandwidth of a bandwidth-optimized
// 1:8 shuffle flow over tuple sizes × source threads.
func RunFig7a(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig7a",
		Title:   "Shuffle flow sender bandwidth (1:8), 8 KiB segments",
		Columns: []string{"tuple size", "1 thread", "2 threads", "4 threads"},
		Notes:   []string{"link speed 100 Gbps = 11.64 GiB/s; paper: ≥2 threads saturate the link for tuples >128 B"},
	}
	volume := int64(32 << 20)
	if opt.Quick {
		volume = 4 << 20
	}
	for _, size := range []int{64, 256, 1024} {
		row := []string{sizeLabel(size)}
		for _, threads := range []int{1, 2, 4} {
			b := scenario.Fabric(9, opt.Seed, fabric.DefaultConfig())
			v, err := shuffleSenderBW(b, onNodes(b, 0, 1, threads), onNodes(b, 1, 8, 1), size, volume/int64(threads), 32)
			if err != nil {
				return nil, fmt.Errorf("fig7a size=%d threads=%d: %w", size, threads, err)
			}
			row = append(row, gibps(v))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// RunFig7b reproduces Figure 7b: median round-trip latency of
// latency-optimized shuffle flows vs a raw-verb ping-pong (the
// ib_write_lat stand-in), for 1, 4 and 8 target servers.
func RunFig7b(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig7b",
		Title:   "Median round-trip latency, latency-optimized shuffle flows",
		Columns: []string{"tuple size", "ib_write_lat (N=1)", "DFI N=1", "DFI N=4", "DFI N=8"},
	}
	iters := 200
	if opt.Quick {
		iters = 40
	}
	sizes := []int{16, 64, 256, 1024, 4096, 16384}
	for _, size := range sizes {
		row := []string{sizeLabel(size)}
		raw, err := rawVerbPingPong(opt.Seed, size, iters)
		if err != nil {
			return nil, err
		}
		row = append(row, fmtDur(raw))
		for _, n := range []int{1, 4, 8} {
			m, err := roundTrip(opt.Seed, size, n, iters, core.ShuffleFlow, false)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(m))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// rawVerbPingPong measures the raw one-sided WRITE round trip the way
// perftest's ib_write_lat does: two nodes write size-byte messages into
// each other's registered memory and poll for the trailing byte flip.
func rawVerbPingPong(seed int64, size, iters int) (time.Duration, error) {
	k := sim.New(seed)
	k.Deadline = time.Minute
	cfg := fabric.DefaultConfig()
	c := fabric.NewCluster(k, 2, cfg)
	qab, qba := c.Dial(c.Node(0), c.Node(1))
	mrA := c.OpenRegion(c.Node(0), size)
	mrB := c.OpenRegion(c.Node(1), size)
	msg := make([]byte, size)
	var rtts []time.Duration

	k.Spawn("pinger", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			start := p.Now()
			msg[size-1] = byte(i + 1)
			qab.Write(p, msg, transport.Addr{MR: mrB}, transport.WriteOptions{CommitTail: 1})
			for mrA.Bytes()[size-1] != byte(i+1) {
				mrA.WaitChange(p, 10*time.Microsecond)
			}
			rtts = append(rtts, p.Now()-start)
		}
	})
	k.Spawn("ponger", func(p *sim.Proc) {
		reply := make([]byte, size)
		for i := 0; i < iters; i++ {
			for mrB.Bytes()[size-1] != byte(i+1) {
				mrB.WaitChange(p, 10*time.Microsecond)
			}
			reply[size-1] = byte(i + 1)
			qba.Write(p, reply, transport.Addr{MR: mrA}, transport.WriteOptions{CommitTail: 1})
		}
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// roundTrip measures the median request/response RTT between one client
// and n servers over two latency-optimized flows: the request flow of
// type req and a shuffle flow carrying the replies back. A shuffle
// request goes to server i%n and waits for its one reply; a replicate
// request (over a multicast group when multicast is set) reaches every
// server and waits for all n replies.
func roundTrip(seed int64, size, n, iters int, req core.FlowType, multicast bool) (time.Duration, error) {
	k := sim.New(seed)
	k.Deadline = time.Minute
	cfg := fabric.DefaultConfig()
	c := fabric.NewCluster(k, n+1, cfg)
	reg := registry.New(k)
	sch := padSchema(size)

	servers := make([]core.Endpoint, n)
	for i := range servers {
		servers[i] = core.Endpoint{Node: c.Node(i + 1)}
	}
	client := []core.Endpoint{{Node: c.Node(0)}}
	lat := core.Options{Optimization: core.OptimizeLatency}
	ping := core.FlowSpec{Name: "ping", Type: req, Sources: client, Targets: servers, Schema: sch, Options: lat}
	ping.Options.Multicast = multicast
	pong := core.FlowSpec{Name: "pong", Sources: servers, Targets: client, Schema: sch, Options: lat}
	replies := 1
	if req == core.ReplicateFlow {
		replies = n
	}

	var rtts []time.Duration
	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, c, ping); err != nil {
			panic(err)
		}
		if err := core.FlowInit(p, reg, c, pong); err != nil {
			panic(err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		src, err := core.SourceOpen(p, reg, "ping", 0)
		if err != nil {
			panic(err)
		}
		tgt, err := core.TargetOpen(p, reg, "pong", 0)
		if err != nil {
			panic(err)
		}
		tup := sch.NewTuple()
		for i := 0; i < iters; i++ {
			start := p.Now()
			if req == core.ReplicateFlow {
				err = src.Push(p, tup)
			} else {
				err = src.PushTo(p, tup, i%n)
			}
			if err != nil {
				panic(err)
			}
			for got := 0; got < replies; got++ {
				if _, ok := tgt.Consume(p); !ok {
					panic("pong flow ended early")
				}
			}
			rtts = append(rtts, p.Now()-start)
		}
		src.Close(p)
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
		}
	})
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("server%d", i), func(p *sim.Proc) {
			tgt, err := core.TargetOpen(p, reg, "ping", i)
			if err != nil {
				panic(err)
			}
			src, err := core.SourceOpen(p, reg, "pong", i)
			if err != nil {
				panic(err)
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					break
				}
				if err := src.Push(p, tup); err != nil {
					panic(err)
				}
			}
			src.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// RunFig7c reproduces Figure 7c: aggregated sender bandwidth scaling out
// from 2 to 8 servers with 4 and 14 source/target threads per server.
func RunFig7c(opt Options) ([]Table, error) {
	t := Table{
		ID:      "fig7c",
		Title:   "Scale-out: aggregated sender bandwidth (N:N shuffle)",
		Columns: []string{"servers", "4 thr/server", "14 thr/server"},
		Notes: []string{
			"paper: linear scaling with the link speed of each added node",
			"14-thread series uses 8-segment rings to bound host memory (−8% per §6.1.4)",
		},
	}
	volume := int64(8 << 20)
	serversList := []int{2, 4, 6, 8}
	if opt.Quick {
		volume = 1 << 20
		serversList = []int{2, 4}
	}
	for _, servers := range serversList {
		row := []string{fmt.Sprintf("%d", servers)}
		for _, threads := range []int{4, 14} {
			segs := 32
			if threads == 14 {
				segs = 8
			}
			b := scenario.Fabric(servers, opt.Seed, fabric.DefaultConfig())
			eps := onNodes(b, 0, servers, threads)
			v, err := shuffleSenderBW(b, eps, eps, 1024, volume, segs)
			if err != nil {
				return nil, fmt.Errorf("fig7c servers=%d threads=%d: %w", servers, threads, err)
			}
			row = append(row, gibps(v))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// RunMemory reproduces the §6.1.4 memory-consumption discussion: the
// registered bytes per node of the scale-out configuration, and the
// segment-count ablation (32 → 16 → 8 segments per ring).
func RunMemory(opt Options) ([]Table, error) {
	mem := Table{
		ID:      "mem",
		Title:   "Registered ring-buffer memory per node (N:N shuffle, 32 × 8 KiB segments)",
		Columns: []string{"configuration", "per-node", "paper"},
	}
	type cfg struct {
		servers, threads, segs int
		paper                  string
		scaleTo32              bool
	}
	cases := []cfg{
		{2, 4, 32, "16 MiB", false},
		{8, 4, 32, "64 MiB", false},
		{8, 14, 8, "785.5 MiB", true},
	}
	for _, cs := range cases {
		perNode, err := measureFlowMemory(opt.Seed, cs.servers, cs.threads, cs.segs)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d servers × %d threads", cs.servers, cs.threads)
		val := float64(perNode)
		if cs.scaleTo32 {
			// Measured with 8-segment rings to bound host memory; ring
			// memory is linear in the segment count (verified on the
			// smaller configurations), so scale to the paper's 32.
			val *= 4
			label += " (8-seg measured ×4)"
		}
		mem.AddRow(label, fmt.Sprintf("%.1f MiB", val/(1<<20)), cs.paper)
	}

	abl := Table{
		ID:      "mem-ablation",
		Title:   "Segment-count ablation: bandwidth vs ring size (8 servers × 4 threads)",
		Columns: []string{"segments/ring", "aggregated BW", "relative"},
		Notes:   []string{"paper: 16 segments −2.7%, 8 segments −8%"},
	}
	volume := int64(8 << 20)
	if opt.Quick {
		volume = 1 << 20
	}
	var base float64
	for _, segs := range []int{32, 16, 8} {
		b := scenario.Fabric(8, opt.Seed, fabric.DefaultConfig())
		eps := onNodes(b, 0, 8, 4)
		v, err := shuffleSenderBW(b, eps, eps, 1024, volume, segs)
		if err != nil {
			return nil, err
		}
		if segs == 32 {
			base = v
		}
		abl.AddRow(fmt.Sprintf("%d", segs), gibps(v), fmt.Sprintf("%+.1f%%", (v/base-1)*100))
	}
	return []Table{mem, abl}, nil
}

// measureFlowMemory opens an N:N shuffle flow and reports the maximum
// per-node registered memory once every endpoint has allocated.
func measureFlowMemory(seed int64, servers, threads, segs int) (int64, error) {
	k := sim.New(seed)
	k.Deadline = scenario.Deadline
	c := fabric.NewCluster(k, servers, fabric.DefaultConfig())
	reg := registry.New(k)
	var sources, targets []core.Endpoint
	for n := 0; n < servers; n++ {
		for th := 0; th < threads; th++ {
			sources = append(sources, core.Endpoint{Node: c.Node(n), Thread: th})
			targets = append(targets, core.Endpoint{Node: c.Node(n), Thread: th})
		}
	}
	spec := core.FlowSpec{
		Name: "memprobe", Sources: sources, Targets: targets,
		Schema:  padSchema(64),
		Options: core.Options{SegmentsPerRing: segs},
	}
	var perNode int64
	opened := sim.NewBarrier(k, len(sources))
	k.Spawn("init", func(p *sim.Proc) {
		if err := core.FlowInit(p, reg, c, spec); err != nil {
			panic(err)
		}
	})
	for ti := range targets {
		ti := ti
		k.Spawn("tgt", func(p *sim.Proc) {
			tgt, err := core.TargetOpen(p, reg, spec.Name, ti)
			if err != nil {
				panic(err)
			}
			for {
				if _, ok := tgt.Consume(p); !ok {
					return
				}
			}
		})
	}
	for si := range sources {
		si := si
		k.Spawn("src", func(p *sim.Proc) {
			src, err := core.SourceOpen(p, reg, spec.Name, si)
			if err != nil {
				panic(err)
			}
			opened.Await(p)
			if si == 0 {
				for n := 0; n < servers; n++ {
					if b := c.Node(n).RegisteredBytes(); b > perNode {
						perNode = b
					}
				}
			}
			src.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return perNode, nil
}
