package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/metrics"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// Scrape suite (run under -race): a real OS goroutine hammers the
// observability surface — Source.Stats, Target.Stats, Recorder.Summary,
// the metrics registry, and the event log — while the simulation runs a
// shuffle under faults. The simulation itself is single-logical-thread;
// these are exactly the cross-goroutine reads the ops plane must make
// safe.

func TestScrapeRaceWhileShuffleRuns(t *testing.T) {
	scrapeWhileFlowRuns(t, chaosPlan(), FlowSpec{
		Name: "scrape",
		Options: Options{
			SegmentSize:       512,
			SegmentsPerRing:   8,
			RetransmitTimeout: 50 * time.Microsecond,
		},
	})
}

// TestScrapeRaceWhileMulticastRuns is the same scrape over a leased,
// ordered multicast flow, whose segment counters are the group leg's and
// the readers' like any other kind's, and whose recovery counters (NACKs,
// retransmissions: the fault plan drops sends) are the kind's own.
func TestScrapeRaceWhileMulticastRuns(t *testing.T) {
	plan := &fabric.FaultPlan{DropSend: 0.03, Delay: time.Microsecond, DelayJitter: 3 * time.Microsecond}
	scrapeWhileFlowRuns(t, plan, FlowSpec{
		Name: "scrape-mc",
		Type: ReplicateFlow,
		Options: Options{
			Multicast:       true,
			GlobalOrdering:  true,
			SegmentSize:     512,
			SegmentsPerRing: 8,
			LeaseTTL:        100 * time.Microsecond,
		},
	})
}

// scrapeWhileFlowRuns runs spec as a 2:2 flow of key/value tuples under
// the fault plan with the scraper beside it.
func scrapeWhileFlowRuns(t *testing.T, plan *fabric.FaultPlan, spec FlowSpec) {
	rec := transport.NewRecorder(128)
	rec.WireOverheadBytes = 42
	e := newEnv(t, 4, withFaults(plan))
	e.c.SetTracer(rec)

	m := metrics.NewRegistry()
	rec.PublishMetrics(m)
	e.reg.PublishMetrics(m)
	events := metrics.NewEventLog(256)
	e.reg.SetEventSink(events)

	spec.Sources = []Endpoint{{Node: e.c.Node(0)}, {Node: e.c.Node(1)}}
	spec.Targets = []Endpoint{{Node: e.c.Node(2)}, {Node: e.c.Node(3)}}
	spec.Schema = kvSchema
	const n = 1500
	delivered := 2 * n // a replicate flow delivers every tuple to both targets
	if spec.Type == ReplicateFlow {
		delivered *= 2
	}

	// Endpoint handles cross from sim processes to the scraper through
	// this mutex; everything behind the handles is what's under test.
	var mu sync.Mutex
	var srcs []*Source
	var tgts []*Target

	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	for si := 0; si < 2; si++ {
		si := si
		e.k.Spawn(fmt.Sprintf("src%d", si), func(p *sim.Proc) {
			src, err := SourceOpen(p, e.reg, spec.Name, si)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			srcs = append(srcs, src)
			src.PublishMetrics(m)
			mu.Unlock()
			for i := 0; i < n; i++ {
				if err := src.Push(p, mkTuple(int64(si*n+i), int64(2*(si*n+i)))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Errorf("source %d close: %v", si, err)
			}
		})
	}
	var consumed [2]int
	for ti := 0; ti < 2; ti++ {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			tgts = append(tgts, tgt)
			tgt.PublishMetrics(m)
			mu.Unlock()
			for {
				if _, ok := tgt.Consume(p); !ok {
					return
				}
				consumed[ti]++
			}
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	pushedSeen, consumedSeen := map[*Source]*trail{}, map[*Target]*trail{}
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			ss := append([]*Source(nil), srcs...)
			ts := append([]*Target(nil), tgts...)
			mu.Unlock()
			for _, s := range ss {
				if pushedSeen[s] == nil {
					pushedSeen[s] = &trail{what: fmt.Sprintf("source %d TuplesPushed", s.Slot())}
				}
				pushedSeen[s].see(t, s.Stats().TuplesPushed)
			}
			for _, tg := range ts {
				if consumedSeen[tg] == nil {
					consumedSeen[tg] = &trail{what: fmt.Sprintf("target %d TuplesConsumed", tg.Slot())}
				}
				consumedSeen[tg].see(t, tg.Stats().TuplesConsumed)
				_ = tg.FailedSources()
			}
			rec.Summary(io.Discard, 3)
			if err := m.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			_ = events.Total()
			_ = e.reg.Status()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	e.run(t)
	close(stop)
	wg.Wait()

	// Counter contract: what a scraper saw mid-run never went back and
	// never ran ahead of the final totals.
	for s, tr := range pushedSeen {
		tr.settle(t, s.Stats().TuplesPushed)
	}
	for tg, tr := range consumedSeen {
		tr.settle(t, tg.Stats().TuplesConsumed)
	}

	// Accuracy contract: the scraped exposition agrees with the final
	// Stats() summaries, counter for counter.
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pushed, tuplesConsumed uint64
	for _, s := range srcs {
		pushed += s.Stats().TuplesPushed
	}
	for _, tg := range tgts {
		tuplesConsumed += tg.Stats().TuplesConsumed
	}
	if pushed != 2*n {
		t.Fatalf("pushed %d tuples, want %d", pushed, 2*n)
	}
	if got := metrics.SumSeries(parsed, "dfi_source_tuples_pushed_total"); got != float64(pushed) {
		t.Fatalf("scraped pushed = %v, stats say %d", got, pushed)
	}
	if got := metrics.SumSeries(parsed, "dfi_target_tuples_consumed_total"); got != float64(tuplesConsumed) {
		t.Fatalf("scraped consumed = %v, stats say %d", got, tuplesConsumed)
	}
	if consumed[0]+consumed[1] != delivered {
		t.Fatalf("delivered %d tuples, want %d", consumed[0]+consumed[1], delivered)
	}
	if got := metrics.SumSeries(parsed, "dfi_source_segments_written_total"); got == 0 {
		t.Fatal("scraped no segments written")
	}
	if got := metrics.SumSeries(parsed, "dfi_target_segments_consumed_total"); got == 0 {
		t.Fatal("scraped no segments consumed")
	}
	if events.Total() == 0 {
		t.Fatal("no events were emitted")
	}
}

// trail follows one counter through a scraper's eyes. Sources and
// targets count on their own side and publish at segment boundaries, so
// a mid-run reading may lag — but it is a count that was true a moment
// ago: readings never go back, and none exceeds the final total.
type trail struct {
	what     string
	last     uint64
	readings int
}

func (tr *trail) see(t *testing.T, v uint64) {
	if v < tr.last {
		t.Errorf("%s went back from %d to %d", tr.what, tr.last, v)
	}
	tr.last = v
	tr.readings++
}

func (tr *trail) settle(t *testing.T, final uint64) {
	if tr.last > final {
		t.Errorf("%s read %d mid-run, more than the final %d", tr.what, tr.last, final)
	}
	t.Logf("%s: %d readings, last %d of %d", tr.what, tr.readings, tr.last, final)
}

// TestScrapeCountersOnChanloop holds the same counter contract on the
// wall-clock backend, where source, target and scraper really are three
// goroutines: the flow of TestChanloopSteadyStateAllocs (PushBatch and
// ConsumeBatch of 64 tuples of 64 bytes) runs while a scraper follows
// both endpoints' Stats, and once the flow has ended Stats and the
// exposition are exact.
func TestScrapeCountersOnChanloop(t *testing.T) {
	const batch, total = 64, 4_000 * 64
	sch := wideSchema
	b := newDiffChan(2)
	spec := FlowSpec{
		Name:    "scrape-chan",
		Sources: []Endpoint{{Node: b.node(0)}},
		Targets: []Endpoint{{Node: b.node(1)}},
		Schema:  sch,
	}
	b.run(t, []func(transport.Ctx){func(p transport.Ctx) {
		if err := FlowInit(p, b.reg, b.tpt, spec); err != nil {
			t.Error(err)
		}
	}})
	m := metrics.NewRegistry()
	var src *Source
	var tgt *Target
	// Open first, so the scraper has both handles for the whole run.
	b.run(t, []func(transport.Ctx){
		func(p transport.Ctx) {
			var err error
			if src, err = SourceOpen(p, b.reg, spec.Name, 0); err != nil {
				t.Error(err)
			}
		},
		func(p transport.Ctx) {
			var err error
			if tgt, err = TargetOpen(p, b.reg, spec.Name, 0); err != nil {
				t.Error(err)
			}
		},
	})
	if t.Failed() {
		t.FailNow()
	}
	src.PublishMetrics(m)
	tgt.PublishMetrics(m)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	pushedSeen := &trail{what: "TuplesPushed"}
	consumedSeen := &trail{what: "TuplesConsumed"}
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pushedSeen.see(t, src.Stats().TuplesPushed)
			consumedSeen.see(t, tgt.Stats().TuplesConsumed)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	b.run(t, []func(transport.Ctx){
		func(p transport.Ctx) {
			size := sch.TupleSize()
			buf := make([]byte, batch*size)
			tuples := make([]schema.Tuple, batch)
			for i := range tuples {
				tuples[i] = buf[i*size : (i+1)*size]
			}
			for i := 0; i < total; i += batch {
				for j, tup := range tuples {
					sch.PutInt64(tup, 0, int64(i+j))
				}
				if err := src.PushBatch(p, tuples); err != nil {
					t.Error(err)
					return
				}
			}
			if err := src.Close(p); err != nil {
				t.Error(err)
			}
		},
		func(p transport.Ctx) {
			views := make([]schema.Tuple, batch)
			for ok := true; ok; {
				_, ok = tgt.ConsumeBatch(p, views)
			}
		},
	})
	close(stop)
	wg.Wait()

	pushedSeen.settle(t, src.Stats().TuplesPushed)
	consumedSeen.settle(t, tgt.Stats().TuplesConsumed)
	if got := src.Stats().TuplesPushed; got != total {
		t.Errorf("Stats().TuplesPushed = %d after Close, want %d", got, total)
	}
	if got := tgt.Stats().TuplesConsumed; got != total {
		t.Errorf("Stats().TuplesConsumed = %d after flow end, want %d", got, total)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.SumSeries(parsed, "dfi_source_tuples_pushed_total"); got != total {
		t.Errorf("scraped pushed = %v, want %d", got, total)
	}
	if got := metrics.SumSeries(parsed, "dfi_target_tuples_consumed_total"); got != total {
		t.Errorf("scraped consumed = %v, want %d", got, total)
	}
}

// TestScrapeRaceDuringEviction scrapes while a lease expires and the
// flow reroutes — the eviction path mutates the writer slices that
// Stats() walks (statsMu coverage) and emits lease/eviction events from
// scheduler context.
func TestScrapeRaceDuringEviction(t *testing.T) {
	const (
		crashAt  = 300 * time.Microsecond
		leaseTTL = 80 * time.Microsecond
		n        = 3000
		deadIdx  = 2
	)
	plan := (&fabric.FaultPlan{}).CrashNode(3, crashAt)
	e := newEnv(t, 4, withFaults(plan))
	m := metrics.NewRegistry()
	e.reg.PublishMetrics(m)
	events := metrics.NewEventLog(0)
	e.reg.SetEventSink(events)

	spec := FlowSpec{
		Name:    "scrape-evict",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}, {Node: e.c.Node(2)}, {Node: e.c.Node(3)}},
		Schema:  kvSchema,
		Options: Options{
			SegmentSize:     256,
			SegmentsPerRing: 8,
			LeaseTTL:        leaseTTL,
		},
	}

	var mu sync.Mutex
	var src *Source
	e.k.Spawn("init", func(p *sim.Proc) {
		if err := FlowInit(p, e.reg, e.c, spec); err != nil {
			t.Error(err)
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		s, err := SourceOpen(p, e.reg, spec.Name, 0)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		src = s
		s.PublishMetrics(m)
		mu.Unlock()
		for i := 0; i < n; i++ {
			if err := s.Push(p, mkTuple(int64(i), int64(2*i))); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			p.Sleep(200 * time.Nanosecond)
		}
		if err := s.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for ti := 0; ti < 3; ti++ {
		ti := ti
		e.k.Spawn(fmt.Sprintf("tgt%d", ti), func(p *sim.Proc) {
			tgt, err := TargetOpen(p, e.reg, spec.Name, ti)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok := tgt.Consume(p); !ok {
					return
				}
			}
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			s := src
			mu.Unlock()
			if s != nil {
				_ = s.Stats()
			}
			if err := m.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			_ = e.reg.Status()
			_ = events.Events()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	e.run(t)
	close(stop)
	wg.Wait()

	st := e.reg.Status()
	if len(st.Flows) == 0 {
		t.Fatal("status snapshot has no flows")
	}
	var sawEvict bool
	for _, ev := range events.Events() {
		if ev.Type == metrics.EvEviction {
			sawEvict = true
		}
	}
	if !sawEvict {
		t.Fatal("no eviction event emitted")
	}
}
