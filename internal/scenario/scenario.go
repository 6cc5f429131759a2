// Package scenario runs a declared flow end to end: it spawns the flow's
// init, source and target processes on a backend (the simulated fabric
// or the in-process chan transport), pushes each source's tuples, drains
// every target and tallies per-endpoint statistics. It is the one flow
// driver behind cmd/dfiflow and the bandwidth figures of
// internal/experiments; PAPER.md §1 makes a flow a declaration, and a
// Scenario is that declaration plus a workload.
package scenario

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"dfi/internal/core"
	"dfi/internal/metrics"
	"dfi/internal/registry"
	"dfi/internal/transport"
)

// Scenario declares one run: a flow, or a fleet of identical flows, and
// the workload its endpoints drive. The zero value of every field but
// Spec is the plain run: one flow, every source pushing Tuples random-key
// tuples through Push, every target draining segment by segment.
type Scenario struct {
	// Spec is the flow; its schema's first column is an Int64 key.
	Spec core.FlowSpec
	// Flows > 1 runs that many copies of Spec concurrently, named
	// Spec.Name-0, Spec.Name-1, ….
	Flows int
	// Tuples is the number of tuples each source pushes.
	Tuples int
	// Key draws each tuple's key from the context's random source (on the
	// fabric the kernel's, which backoff draws from too); nil draws
	// rng.Int63(). On chan it is called from concurrent sources.
	Key func(rng *rand.Rand) int64
	// PushToSelf sends source i's tuples to target i with PushTo instead
	// of routing them by key.
	PushToSelf bool
	// ScanCost is a per-tuple scan charged on the source's node, 1024
	// tuples at a time: a table scan feeding the flow.
	ScanCost time.Duration

	// Evictions strike target slots, in every flow, at their times.
	Evictions []Eviction
	// Rejoins re-attaches an evicted target slot at its time.
	Rejoins map[int]time.Duration
	// Publish is handed every source and target opened (not combiner
	// targets): the ops plane's hook. Nil publishes nothing.
	Publish func(Publisher)
	// Log receives one line per endpoint error, eviction, rejoin and
	// failed-source verdict. Nil discards them.
	Log io.Writer
}

// Eviction evicts a target slot at a time since the start of the run.
type Eviction struct {
	Target int
	At     time.Duration
}

// Publisher is an endpoint that registers its metric series.
type Publisher interface{ PublishMetrics(*metrics.Registry) }

// Result is what a run reports. Flow f's source i is Sources[f*S+i] and
// its target j is Targets[f*T+j], for S sources and T targets per flow.
type Result struct {
	Sources []core.SourceStats
	Targets []core.TargetStats
	// Aggregates holds each combiner target's groups (combiner flows only).
	Aggregates [][]core.AggResult
	// End is when the last target finished.
	End time.Duration

	// Init is FlowInit's rejection of the spec; nothing ran.
	Init error
	// Kernel is the backend's error when it could not run every body to
	// completion.
	Kernel error
	// Broken is the first endpoint error the failure rule counts, or a
	// rejected rejoin. With a fault plan or evictions injected an
	// endpoint error is expected and counts only if it is ErrFlowBroken;
	// without, every endpoint error counts.
	Broken error
}

// Err joins the run's errors; nil means the run completed cleanly.
func (r Result) Err() error { return errors.Join(r.Init, r.Kernel, r.Broken) }

// lockedWriter serializes writes from concurrent goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// Run runs sc on b and returns once every body has finished (or the
// backend gave up). Spawn order is fixed: init, then one striker per
// eviction, then for each flow its sources followed by its targets.
// b serves one Run.
func Run(b *Backend, sc Scenario) Result {
	spec := sc.Spec
	sch := spec.Schema
	ns, nt := len(spec.Sources), len(spec.Targets)
	names := []string{spec.Name}
	if sc.Flows > 1 {
		names = make([]string, sc.Flows)
		for f := range names {
			names[f] = fmt.Sprintf("%s-%d", spec.Name, f)
		}
	}
	combiner := spec.Type == core.CombinerFlow
	res := Result{
		Sources: make([]core.SourceStats, len(names)*ns),
		Targets: make([]core.TargetStats, len(names)*nt),
	}
	if combiner {
		res.Aggregates = make([][]core.AggResult, len(names)*nt)
	}
	key := sc.Key
	if key == nil {
		key = (*rand.Rand).Int63
	}
	publish := sc.Publish
	if publish == nil {
		publish = func(Publisher) {}
	}
	var log io.Writer = io.Discard
	if sc.Log != nil {
		log = &lockedWriter{w: sc.Log}
	}

	// What the bodies report back; mu orders them on the wall clock.
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if res.Broken == nil {
			res.Broken = err
		}
		mu.Unlock()
	}
	injected := b.faulted || len(sc.Evictions) > 0
	died := func(kind string, idx int, err error) {
		fmt.Fprintf(log, "%s %d: %v\n", kind, idx, err)
		if !injected || errors.Is(err, core.ErrFlowBroken) {
			fail(err)
		}
	}

	b.Spawn("init", func(p transport.Ctx) {
		for _, name := range names {
			spec := spec
			spec.Name = name
			if res.Init = core.FlowInit(p, b.Registry, b.Transport, spec); res.Init != nil {
				b.Abort()
				return
			}
		}
	})
	for _, ev := range sc.Evictions {
		b.Spawn(fmt.Sprintf("evict%d", ev.Target), func(p transport.Ctx) {
			p.Sleep(ev.At)
			for _, flow := range names {
				if err := b.Registry.Evict(p, flow, registry.RoleTarget, ev.Target); err != nil {
					fmt.Fprintf(log, "evict target %d: %v\n", ev.Target, err)
				}
			}
		})
	}
	for fi, flow := range names {
		for si := 0; si < ns; si++ {
			b.Spawn(fmt.Sprintf("src%d.%d", fi, si), func(p transport.Ctx) {
				src, err := core.SourceOpen(p, b.Registry, flow, si)
				if err != nil {
					died("source", si, fmt.Errorf("open: %w", err))
					return
				}
				publish(src)
				node := spec.Sources[si].Node
				tup := sch.NewTuple()
				rng := p.Rand()
				for i := 0; i < sc.Tuples; i++ {
					sch.PutInt64(tup, 0, key(rng))
					if sc.PushToSelf {
						err = src.PushTo(p, tup, si)
					} else {
						err = src.Push(p, tup)
					}
					if err != nil {
						// Expected under an injected crash: report, stop pushing.
						died("source", si, fmt.Errorf("push: %w", err))
						break
					}
					if sc.ScanCost > 0 && i%1024 == 1023 {
						node.Compute(p, 1024*sc.ScanCost)
					}
				}
				if err := src.Close(p); err != nil {
					died("source", si, fmt.Errorf("close: %w", err))
				}
				res.Sources[fi*ns+si] = src.Stats()
			})
		}
		for ti := 0; ti < nt; ti++ {
			b.Spawn(fmt.Sprintf("tgt%d.%d", fi, ti), func(p transport.Ctx) {
				defer func() {
					mu.Lock()
					res.End = max(res.End, p.Now())
					mu.Unlock()
				}()
				if combiner {
					ct, err := core.CombinerTargetOpen(p, b.Registry, flow, ti)
					if err != nil {
						died("target", ti, fmt.Errorf("open: %w", err))
						return
					}
					ct.Run(p)
					res.Aggregates[fi*nt+ti] = ct.Results()
					return
				}
				tgt, err := core.TargetOpen(p, b.Registry, flow, ti)
				if err != nil {
					died("target", ti, fmt.Errorf("open: %w", err))
					return
				}
				publish(tgt)
				drain := func(tgt *core.Target) {
					for {
						if _, _, ok := tgt.ConsumeSegment(p); !ok {
							return
						}
					}
				}
				drain(tgt)
				if tgt.Evicted() {
					if len(names) == 1 {
						fmt.Fprintf(log, "target %d: evicted from the flow membership\n", ti)
					} else {
						fmt.Fprintf(log, "target %d (%s): evicted from the flow membership\n", ti, flow)
					}
				}
				if at, ok := sc.Rejoins[ti]; ok {
					if at > p.Now() {
						p.Sleep(at - p.Now())
					}
					again, err := tgt.Reattach(p)
					if err != nil {
						fmt.Fprintf(log, "target %d: rejoin rejected: %v\n", ti, err)
						fail(fmt.Errorf("target %d: rejoin rejected: %w", ti, err))
					} else {
						fmt.Fprintf(log, "target %d: rejoined at %v, resumed from %d consumed tuples\n", ti, p.Now(), again.ResumedFrom())
						drain(again)
						tgt = again
					}
				}
				if dead := tgt.FailedSources(); len(dead) > 0 {
					fmt.Fprintf(log, "target %d: sources declared failed: %v\n", ti, dead)
				}
				res.Targets[fi*nt+ti] = tgt.Stats()
			})
		}
	}
	res.Kernel = b.Wait()
	return res
}
