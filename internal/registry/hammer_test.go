package registry

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfi/internal/transport/chanloop"
)

// TestLocalRegistryHammer is the monitor's race test: eight goroutines
// throw random commands at one wall-clock registry — publishes, target
// rendezvous, lease acquire / renew / batched renew / release, evict,
// rejoin, and real waits that only another goroutine's publish ends —
// while millisecond lease timers fire on their own goroutines and a
// ninth goroutine reads Status and every Membership accessor. Run under
// -race; the only assertions are that every wait returns and epochs
// never go backwards.
func TestLocalRegistryHammer(t *testing.T) {
	const workers, ops, nFlows, nSlots = 8, 300, 4, 3
	const ttl = 2 * time.Millisecond
	r := NewLocal()
	net := chanloop.New()
	flowName := func(i int) string { return fmt.Sprintf("flow%d", i) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := net.NewCtx()
			rnd := rand.New(rand.NewSource(int64(w)))
			flow := func() string { return flowName(rnd.Intn(nFlows)) }
			role := func() Role { return Role(rnd.Intn(2)) }
			for i := 0; i < ops; i++ {
				switch rnd.Intn(10) {
				case 0:
					_ = r.Publish(p, flow(), i)
				case 1:
					_ = r.PublishTarget(p, flow(), rnd.Intn(nSlots), i)
				case 2, 3:
					_ = r.AcquireLease(p, flow(), role(), rnd.Intn(nSlots), ttl, ttl/2)
				case 4:
					_ = r.RenewLease(p, flow(), role(), rnd.Intn(nSlots))
				case 5:
					refs := make([]LeaseRef, 1+rnd.Intn(6))
					for j := range refs {
						refs[j] = LeaseRef{Flow: flow(), Role: role(), Idx: rnd.Intn(nSlots)}
					}
					_ = r.RenewLeaseBatch(p, refs)
				case 6:
					r.ReleaseLease(p, flow(), role(), rnd.Intn(nSlots))
				case 7:
					_ = r.Evict(p, flow(), role(), rnd.Intn(nSlots))
				case 8:
					_ = r.Rejoin(p, flow(), role(), rnd.Intn(nSlots))
				case 9:
					// A wait nothing has satisfied yet: a flow of this
					// worker's own, published by a helper goroutine.
					name := fmt.Sprintf("w%d-%d", w, i)
					wg.Add(1)
					go func() {
						defer wg.Done()
						hp := net.NewCtx()
						_ = r.Publish(hp, name, i)
						if i%2 == 0 {
							_ = r.PublishTarget(hp, name, 0, i)
						} else {
							_ = r.Evict(hp, name, RoleTarget, 0)
						}
					}()
					r.WaitFlow(p, name)
					if _, evicted := r.WaitTargetLive(p, name, 0); evicted != (i%2 == 1) {
						t.Errorf("WaitTargetLive(%s): evicted=%v", name, evicted)
					}
					r.Remove(p, name)
				}
			}
		}()
	}

	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := make([]uint64, nFlows)
		for !stop.Load() {
			_ = len(r.Status().Flows)
			_ = r.LeaseRenewRPCs()
			_ = r.Flows()
			for f := 0; f < nFlows; f++ {
				m := r.MembershipOf(flowName(f))
				if m == nil {
					continue
				}
				if e := m.Epoch(); e < last[f] {
					t.Errorf("%s: epoch went from %d to %d", flowName(f), last[f], e)
				} else {
					last[f] = e
				}
				for idx := 0; idx < nSlots; idx++ {
					_ = m.State(RoleTarget, idx)
					_ = m.Evicted(RoleSource, idx)
					_ = m.TargetEvicted(idx)
					_ = m.SourceEvicted(idx)
					_ = m.Incarnation(RoleTarget, idx)
				}
				_ = m.EvictedTargets()
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-readerDone
}
