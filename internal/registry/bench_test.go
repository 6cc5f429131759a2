package registry

import (
	"fmt"
	"testing"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// BenchmarkLeaseRenew is the control plane's heartbeat cost: one op
// renews 64 leased slots of one flow, either one RenewLease per slot or
// one RenewLeaseBatch carrying all 64, on the kernel clock (New) and on
// the wall clock (NewLocal). renew_rpcs/op is the registry's own count
// of renewal round trips (64 against 1); no timing is asserted.
//
//	go test -run '^$' -bench LeaseRenew ./internal/registry/
func BenchmarkLeaseRenew(b *testing.B) {
	clocks := []struct {
		name string
		run  func(b *testing.B, body func(transport.Ctx, *Registry))
	}{
		{"kernel", func(b *testing.B, body func(transport.Ctx, *Registry)) {
			k := sim.New(1)
			r := New(k)
			r.RPCDelay = time.Microsecond // a round trip takes virtual time
			k.Spawn("heartbeat", func(p *sim.Proc) { body(p, r) })
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}},
		{"wall", func(b *testing.B, body func(transport.Ctx, *Registry)) {
			body(chanloop.New().NewCtx(), NewLocal())
		}},
	}
	for _, clock := range clocks {
		for _, batched := range []bool{false, true} {
			name := clock.name + "/single"
			if batched {
				name = clock.name + "/batch64"
			}
			b.Run(name, func(b *testing.B) {
				clock.run(b, func(p transport.Ctx, r *Registry) { benchRenew(b, p, r, batched) })
			})
		}
	}
}

// benchRenew renews for one TTL at a time, then stops the benchmark
// clock for two more so the timers those renewals armed fall due, and
// their callbacks finish, outside the measurement: on the kernel every
// renewal queues one event, and left queued they would pile up by the
// million (the wall clock keeps one timer per slot). A slot left
// unrenewed through a pause goes Suspect and its next renewal rescues
// it; the grace period outlasts the run, so no slot is evicted.
func benchRenew(b *testing.B, p transport.Ctx, r *Registry, batched bool) {
	const slots, ttl, grace = 64, 5 * time.Millisecond, time.Hour
	if err := r.Publish(p, "f", nil); err != nil {
		b.Fatal(err)
	}
	refs := make([]LeaseRef, slots)
	for i := range refs {
		refs[i] = LeaseRef{Flow: "f", Role: RoleSource, Idx: i}
		if err := r.AcquireLease(p, "f", RoleSource, i, ttl, grace); err != nil {
			b.Fatal(err)
		}
	}
	before := r.LeaseRenewRPCs()
	burst := p.Now()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if batched {
			if failed := r.RenewLeaseBatch(p, refs); len(failed) > 0 {
				b.Fatalf("batched renewal failed for %v", failed)
			}
		} else {
			for _, ref := range refs {
				if err := r.RenewLease(p, ref.Flow, ref.Role, ref.Idx); err != nil {
					b.Fatal(fmt.Errorf("renewing slot %d: %w", ref.Idx, err))
				}
			}
		}
		if p.Now()-burst >= ttl {
			b.StopTimer()
			p.Sleep(2 * ttl)
			b.StartTimer()
			burst = p.Now()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.LeaseRenewRPCs()-before)/float64(b.N), "renew_rpcs/op")
	for _, ref := range refs {
		r.ReleaseLease(p, ref.Flow, ref.Role, ref.Idx)
	}
}
