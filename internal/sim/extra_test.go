package sim

import (
	"testing"
	"time"
)

func TestAtAbsoluteScheduling(t *testing.T) {
	k := New(1)
	var order []int
	k.At(2*time.Millisecond, func() { order = append(order, 2) })
	k.At(time.Millisecond, func() { order = append(order, 1) })
	k.At(0, func() { order = append(order, 0) }) // clamped to now
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	k := New(1)
	var ranAt Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		k.At(time.Millisecond, func() { ranAt = k.Now() }) // in the past
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ranAt != 5*time.Millisecond {
		t.Fatalf("past-scheduled callback ran at %v, want clamped to 5ms", ranAt)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	run := func() []int64 {
		k := New(77)
		var draws []int64
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 5; i++ {
				d := time.Duration(p.Rand().Int63n(1000)) * time.Nanosecond
				draws = append(draws, int64(d))
				p.Sleep(d)
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Duration(p.Rand().Int63n(1000)) * time.Nanosecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		draws = append(draws, int64(k.Events()))
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestEventsCounterAdvances(t *testing.T) {
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Events() < 3 {
		t.Fatalf("events = %d", k.Events())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := New(1)
	r := NewResource(k, "fifo", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("u", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // arrival order 0..4
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestWaitGroupReuse(t *testing.T) {
	k := New(1)
	wg := NewWaitGroup(k)
	rounds := 0
	k.Spawn("driver", func(p *Proc) {
		for r := 0; r < 3; r++ {
			wg.Add(2)
			for j := 0; j < 2; j++ {
				p.Spawn("w", func(c *Proc) {
					c.Sleep(time.Microsecond)
					wg.Done()
				})
			}
			wg.Wait(p)
			rounds++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestCondWaitTimeoutExactness(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var woke Time
	k.Spawn("w", func(p *Proc) {
		c.WaitTimeout(p, 7*time.Microsecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7*time.Microsecond {
		t.Fatalf("timeout fired at %v", woke)
	}
}

func TestSpawnFromEventCallback(t *testing.T) {
	k := New(1)
	ran := false
	k.After(time.Millisecond, func() {
		k.Spawn("late", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process spawned from callback never ran")
	}
}

func TestBarrierPanicsOnZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(New(1), 0)
}

func TestResourcePanicsOnOverRelease(t *testing.T) {
	k := New(1)
	r := NewResource(k, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}
