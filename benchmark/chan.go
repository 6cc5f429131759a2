package main

import (
	"sync"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// runChanBatch64 is the one workload on the wall-clock backend: real
// goroutines moving real bytes, no sim kernel. One source goroutine
// pushes 64 B tuples in batches of 64 carved out of one buffer, one
// target goroutine drains them with ConsumeBatch. The transport clock is
// the host's, so the virt_* metrics are host-clock numbers here and vary
// from run to run like every other host metric.
func runChanBatch64(r *round) {
	const tupleSize, batch = 64, 64
	// chanStampEvery is the stamping stride: one clock read per 64
	// batches, so the stamps cost the source well under a percent.
	const chanStampEvery = 4096
	total := r.scaled(3_750_000)

	net := chanloop.New()
	reg := r.tr.wrapRegistry(registry.NewLocal())
	r.tr.attach(net, 0, false)
	sch := paddedSchema(tupleSize)
	spec := core.FlowSpec{
		Name:    "chan",
		Sources: []core.Endpoint{{Node: net.NewEndpoint()}},
		Targets: []core.Endpoint{{Node: net.NewEndpoint()}},
		Schema:  sch,
	}
	ctx := net.NewCtx()
	sp := r.tr.span("flow_init", 0, ctx)
	if err := core.FlowInit(ctx, reg, net, spec); err != nil {
		r.problem("init: %v", err)
		return
	}
	sp.end(ctx)

	g, k := newGen(r.seed, 0, tupleSize), &sink{size: tupleSize}
	var srcStats core.SourceStats

	// Both goroutines open their endpoint, then meet; the second to
	// arrive opens the timed phase before either proceeds. A failed open
	// leaves the peer waiting here until main's watchdog ends the run.
	var wg, ready sync.WaitGroup
	ready.Add(2)
	var once sync.Once
	meet := func(p transport.Ctx) {
		ready.Done()
		ready.Wait()
		once.Do(func() { r.begin(p.Now(), 0) })
	}

	wg.Add(2)
	go func() {
		defer wg.Done()
		p := net.NewCtx()
		sp := r.tr.span("source_open", 0, p)
		src, err := core.SourceOpen(p, reg, spec.Name, 0)
		sp.end(p)
		if err != nil {
			r.problem("open source: %v", err)
			return
		}
		meet(p)
		buf := make([]byte, batch*tupleSize)
		tuples := make([]schema.Tuple, batch)
		for i := range tuples {
			tuples[i] = buf[i*tupleSize : (i+1)*tupleSize]
		}
		for i := 0; i < total; {
			stop := min(i+spanBlock, total)
			sp := r.tr.span("push", 0, p)
			from := i
			for i < stop {
				n := min(batch, stop-i)
				for j := 0; j < n; j++ {
					var now time.Duration
					sampled := (i+j)%chanStampEvery == 0
					if sampled {
						now = p.Now()
					}
					g.fill(tuples[j], g.next(), sampled, now)
				}
				if err := src.PushBatch(p, tuples[:n]); err != nil {
					r.problem("push: %v", err)
					return
				}
				i += n
			}
			sp.endN(p, i-from)
		}
		sp = r.tr.span("source_close", 0, p)
		if err := src.Close(p); err != nil {
			r.problem("close source: %v", err)
		}
		sp.end(p)
		srcStats = src.Stats()
	}()
	go func() {
		defer wg.Done()
		p := net.NewCtx()
		sp := r.tr.span("target_open", 0, p)
		tgt, err := core.TargetOpen(p, reg, spec.Name, 0)
		sp.end(p)
		if err != nil {
			r.problem("open target: %v", err)
			return
		}
		meet(p)
		views := make([]schema.Tuple, batch)
		for more := true; more; {
			sp := r.tr.span("consume", 0, p)
			got := 0
			for got < spanBlock {
				n, ok := tgt.ConsumeBatch(p, views)
				if !ok {
					more = false
					break
				}
				for _, tup := range views[:n] {
					if sampled, pushed := k.take(tup); sampled {
						k.deliver = append(k.deliver, int64(p.Now()-pushed))
					}
				}
				got += n
			}
			sp.endN(p, got)
		}
		r.end(p.Now(), 0)
		if got := tgt.Stats().TuplesConsumed; got != k.count {
			r.problem("target: Stats counts %d tuples, ConsumeBatch returned %d", got, k.count)
		}
	}()
	wg.Wait()
	if r.t1.IsZero() {
		r.problem("the timed phase never ended")
		return
	}

	r.settle([]*gen{g}, []*sink{k}, tupleSize)
	r.coreLayer([]core.SourceStats{srcStats}, r.v1-r.v0)
	r.flows = 1
}
