package chanloop_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport/chanloop"
)

// TestQuickstartFlow runs the quickstart example's key-shuffled flow —
// one source pushing ten tuples to two targets — over chanloop: real
// goroutines, real bytes, no sim kernel. The core data path is the same
// code the DES runs; only the backend and registry differ. Run with
// -race. The backend starts no goroutine of its own, so once the flow's
// three have returned the count is back where it started.
func TestQuickstartFlow(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	net := chanloop.New()
	eps := make([]*chanloop.Endpoint, 3)
	for i := range eps {
		eps[i] = net.NewEndpoint()
	}
	reg := registry.NewLocal()

	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "value", Type: schema.Int64},
	)
	spec := core.FlowSpec{
		Name:       "quickstart",
		Sources:    []core.Endpoint{{Node: eps[0], Thread: 0}},
		Targets:    []core.Endpoint{{Node: eps[1], Thread: 0}, {Node: eps[2], Thread: 0}},
		Schema:     sch,
		ShuffleKey: 0,
	}
	if err := core.FlowInit(net.NewCtx(), reg, net, spec); err != nil {
		t.Fatalf("FlowInit: %v", err)
	}

	const tuples = 10
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		p := net.NewCtx()
		src, err := core.SourceOpen(p, reg, "quickstart", 0)
		if err != nil {
			t.Errorf("SourceOpen: %v", err)
			return
		}
		tup := sch.NewTuple()
		for i := int64(0); i < tuples; i++ {
			sch.PutInt64(tup, 0, i)
			sch.PutInt64(tup, 1, 10*i)
			if err := src.Push(p, tup); err != nil {
				t.Errorf("Push(%d): %v", i, err)
				return
			}
		}
		src.Close(p)
	}()

	// got[target][key] = value, collected concurrently then merged.
	got := make([]map[int64]int64, 2)
	for ti := 0; ti < 2; ti++ {
		ti := ti
		got[ti] = make(map[int64]int64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := net.NewCtx()
			tgt, err := core.TargetOpen(p, reg, "quickstart", ti)
			if err != nil {
				t.Errorf("TargetOpen(%d): %v", ti, err)
				return
			}
			for {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				k, v := sch.Int64(tup, 0), sch.Int64(tup, 1)
				if prev, dup := got[ti][k]; dup {
					t.Errorf("target %d: key %d delivered twice (%d, %d)", ti, k, prev, v)
				}
				got[ti][k] = v
			}
		}()
	}
	wg.Wait()
	// Done is not a goroutine's last instruction: give the flow's own three
	// the moment they need to return. Nothing of the backend's winds down.
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the flow, %d before it: the backend left some behind", n, goroutines)
	}

	// Exactly the pushed payloads, each key at the target its shuffle
	// picked, no loss, no duplication, no corruption.
	all := make(map[int64]int64)
	for ti, m := range got {
		for k, v := range m {
			if _, dup := all[k]; dup {
				t.Errorf("key %d delivered at both targets", k)
			}
			all[k] = v
			_ = ti
		}
	}
	if len(all) != tuples {
		t.Fatalf("delivered %d distinct keys, want %d: %v", len(all), tuples, all)
	}
	for i := int64(0); i < tuples; i++ {
		if all[i] != 10*i {
			t.Errorf("key %d: value %d, want %d", i, all[i], 10*i)
		}
	}
	if len(got[0]) == 0 || len(got[1]) == 0 {
		t.Errorf("shuffle sent everything to one target: %d/%d", len(got[0]), len(got[1]))
	}
	t.Logf("shuffle split %d/%d", len(got[0]), len(got[1]))
}
