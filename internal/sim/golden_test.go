package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// The golden dispatch-order test: a seeded random program exercising every
// way a process can give up and regain the baton, logging (now, proc, step)
// at each point. Its log length, Kernel.Events() and an FNV-1a hash of the
// log are pinned for three seeds. The constants were generated on commit
// 97f6a16 (scheduler-goroutine kernel), so any kernel that passes dispatches
// this program in exactly that kernel's (at, seq) order.
var goldenRuns = []struct {
	seed   int64
	steps  int
	events uint64
	hash   uint64
}{
	{seed: 1, steps: 1242, events: 1420, hash: 0xb03e24ad47890911},
	{seed: 2, steps: 1157, events: 1359, hash: 0xdb593164f497fcad},
	{seed: 3, steps: 1165, events: 1331, hash: 0x4b984535f97eb6af},
}

// goldenLog accumulates the dispatch log as a running hash.
type goldenLog struct {
	k     *Kernel
	steps int
	h     hash.Hash64
}

func (l *goldenLog) add(proc, step string) {
	l.steps++
	fmt.Fprintf(l.h, "%d|%s|%s\n", l.k.Now(), proc, step)
}

// goldenSignal is a pooled-op callback (AtOp) that wakes one waiter.
type goldenSignal struct {
	l *goldenLog
	c *Cond
}

func (s *goldenSignal) RunOp(arg uint64) {
	s.l.add("op", fmt.Sprint("signal", arg))
	s.c.Signal()
}

// goldenProgram spawns the program on k. The program draws from its own
// rng, not k.Rand(), so the pinned log does not depend on how the kernel
// seeds its source; one rng is safe because exactly one process or
// callback runs at a time.
func goldenProgram(k *Kernel, seed int64) *goldenLog {
	const (
		workers  = 12
		steps    = 48
		barrier1 = steps / 3
		barrier2 = 2 * steps / 3
	)
	l := &goldenLog{k: k, h: fnv.New64a()}
	rng := rand.New(rand.NewSource(seed))
	ns := func(n int) Time { return Time(rng.Intn(n)) * time.Nanosecond }

	conds := make([]*Cond, 4)
	for i := range conds {
		conds[i] = NewCond(k)
	}
	res := NewResource(k, "res", 2)
	bar := NewBarrier(k, workers)
	done := NewWaitGroup(k)
	done.Add(workers)
	remaining := workers
	children := 0

	child := func(name string, wg *WaitGroup) func(*Proc) {
		n := 1 + rng.Intn(3)
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				l.add(name, "child-sleep")
				p.Sleep(ns(400))
			}
			l.add(name, "child-exit")
			if wg != nil {
				wg.Done()
			}
		}
	}

	worker := func(id int) func(*Proc) {
		name := fmt.Sprint("w", id)
		return func(p *Proc) {
			defer func() {
				remaining--
				done.Done()
			}()
			for s := 0; s < steps; s++ {
				if s == barrier1 || s == barrier2 {
					l.add(name, "barrier")
					bar.Await(p)
					l.add(name, "released")
					continue
				}
				if s > barrier2 && rng.Intn(40) == 0 {
					l.add(name, "early-exit")
					return
				}
				c := conds[rng.Intn(len(conds))]
				switch a := rng.Intn(12); a {
				case 0:
					l.add(name, "sleep")
					p.Sleep(ns(2000)) // zero is a no-op, short ones hop the clock
				case 1:
					l.add(name, "yield")
					p.Yield()
				case 2:
					l.add(name, "wait")
					c.Wait(p) // the pulse process wakes it eventually
				case 3, 4:
					// WaitTimeout against a signal scheduled before, at, or
					// after the deadline: the race goes both ways.
					d := 100*time.Nanosecond + ns(600)
					sig := d + Time(rng.Intn(3)-1)*Time(rng.Intn(100))
					if a == 3 {
						k.After(sig, func() {
							l.add("fn", "signal")
							c.Signal()
						})
					} else {
						k.AtOp(k.Now()+sig, &goldenSignal{l: l, c: c}, uint64(id))
					}
					l.add(name, "wait-timeout")
					ok := c.WaitTimeout(p, d)
					l.add(name, fmt.Sprint("woke-", ok))
				case 5:
					l.add(name, "signal")
					c.Signal()
				case 6:
					l.add(name, "broadcast")
					c.Broadcast()
				case 7:
					children++
					cn := fmt.Sprint(name, ".c", children)
					l.add(name, "spawn")
					if rng.Intn(2) == 0 {
						wg := NewWaitGroup(k)
						wg.Add(1)
						p.Spawn(cn, child(cn, wg))
						wg.Wait(p)
						l.add(name, "joined")
					} else {
						p.Spawn(cn, child(cn, nil))
					}
				case 8:
					children++
					cn := fmt.Sprint(name, ".f", children)
					fn := child(cn, nil)
					k.After(ns(300), func() {
						l.add("fn", "spawn")
						k.Spawn(cn, fn)
					})
				case 9:
					l.add(name, "use")
					res.Use(p, ns(500))
					l.add(name, "used")
				case 10:
					l.add(name, "acquire")
					res.Acquire(p)
					p.Yield()
					l.add(name, "release")
					res.Release()
				case 11:
					l.add(name, "sleep-past-callback")
					k.After(ns(200), func() { l.add("fn", "tick") })
					p.Sleep(200*time.Nanosecond + ns(200))
				}
			}
			l.add(name, "exit")
		}
	}

	k.Spawn("main", func(p *Proc) {
		for i := 0; i < workers; i++ {
			p.Spawn(fmt.Sprint("w", i), worker(i))
		}
		done.Wait(p)
		l.add("main", "joined")
	})
	// pulse guarantees progress: every plain Wait is eventually woken.
	k.Spawn("pulse", func(p *Proc) {
		for remaining > 0 {
			p.Sleep(150*time.Nanosecond + ns(300))
			c := conds[rng.Intn(len(conds))]
			if rng.Intn(3) == 0 {
				l.add("pulse", "broadcast")
				c.Broadcast()
			} else {
				l.add("pulse", "signal")
				c.Signal()
			}
		}
		l.add("pulse", "exit")
	})
	return l
}

func TestGoldenDispatchOrder(t *testing.T) {
	for _, g := range goldenRuns {
		k := New(g.seed)
		l := goldenProgram(k, g.seed)
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		if l.steps != g.steps || k.Events() != g.events || l.h.Sum64() != g.hash {
			t.Errorf("seed %d: steps %d events %d hash %#x, golden %d / %d / %#x",
				g.seed, l.steps, k.Events(), l.h.Sum64(), g.steps, g.events, g.hash)
		}
	}
}
