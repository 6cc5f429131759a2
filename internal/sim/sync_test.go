package sim

import (
	"testing"
	"time"
)

func TestCondSignalWakesOne(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		if woken != 1 {
			t.Errorf("after one Signal, woken=%d", woken)
		}
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken=%d, want 3", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var timedOut, signaled bool
	k.Spawn("timeout", func(p *Proc) {
		if ok := c.WaitTimeout(p, time.Millisecond); !ok {
			timedOut = true
		}
	})
	k.Spawn("signaled", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // start waiting after the first timed out
		if ok := c.WaitTimeout(p, time.Hour); ok {
			signaled = true
		}
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("first waiter should have timed out")
	}
	if !signaled {
		t.Error("second waiter should have been signaled")
	}
	if c.Waiters() != 0 {
		t.Errorf("stale waiters: %d", c.Waiters())
	}
}

func TestCondTimeoutRemovesWaiter(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("w", func(p *Proc) {
		c.WaitTimeout(p, time.Millisecond)
		if c.Waiters() != 0 {
			t.Errorf("waiter not removed after timeout: %d", c.Waiters())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := New(1)
	r := NewResource(k, "link", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Use(p, time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := New(1)
	r := NewResource(k, "pool", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Use(p, time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 1ms, 1ms, 2ms, 2ms.
	if ends[1] != time.Millisecond || ends[3] != 2*time.Millisecond {
		t.Fatalf("ends = %v", ends)
	}
}

func TestResourceTryAcquireAndRelease(t *testing.T) {
	k := New(1)
	r := NewResource(k, "latch", 1)
	k.Spawn("p", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("TryAcquire on free resource failed")
		}
		if r.TryAcquire() {
			t.Error("TryAcquire on held resource succeeded")
		}
		r.Release()
		if r.InUse() != 0 {
			t.Errorf("InUse = %d", r.InUse())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	wg := NewWaitGroup(k)
	done := 0
	wg.Add(3)
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			done++
			wg.Done()
		})
	}
	var joinedAt Time
	k.Spawn("joiner", func(p *Proc) {
		wg.Wait(p)
		joinedAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 || joinedAt != 3*time.Millisecond {
		t.Fatalf("done=%d joinedAt=%v", done, joinedAt)
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	k := New(1)
	const n = 4
	b := NewBarrier(k, n)
	var round1, round2 []Time
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn("party", func(p *Proc) {
			p.Sleep(d)
			b.Await(p)
			round1 = append(round1, p.Now())
			p.Sleep(d)
			b.Await(p)
			round2 = append(round2, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range round1 {
		if ts != n*time.Millisecond {
			t.Fatalf("round1 = %v", round1)
		}
	}
	for _, ts := range round2 {
		if ts != 2*n*time.Millisecond {
			t.Fatalf("round2 = %v", round2)
		}
	}
}
