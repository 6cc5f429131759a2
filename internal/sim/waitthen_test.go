package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Cond.WaitThen and WaitTimeoutThen hand the sleep that follows a wake to
// the kernel, which runs it when the wake pops instead of resuming the
// process just to park it again. These tests hold the kernel to the claim
// that this is exact: a program written with Wait/WaitTimeout followed by
// Sleep and the same program written with the *Then forms log the same
// (now, proc, step) lines, count the same events and end at the same
// instant — under every MaxEvents and Deadline that stops the run in
// between — and only the number of process switches goes down.

// thenStats counts the cases a thenProgram run covered, so the exactness
// tests can show they exercised them.
type thenStats struct {
	broadcastMany int // a Broadcast that found two or more waiters
	tieSignal     int // a timed wait whose signal is scheduled at its deadline
	zeroThen      int // a wait whose post-wake sleep is 0
	woke, timeout int // timed waits ended by a signal / by the deadline
}

// thenProgram spawns a seeded random program on k. Every wait is followed
// by a sleep: with kernelThen the program uses WaitThen/WaitTimeoutThen,
// without it Wait/WaitTimeout and then Sleep, and nothing runs between the
// wake and the sleep. Times sit on a coarse 10 ns grid so that wakes,
// timers, deadlines and callbacks often meet at one instant. The program
// draws from its own rng; both forms draw in the same order as long as the
// processes run in the same order.
func thenProgram(k *Kernel, seed int64, workers, steps int, kernelThen bool) (*dispatchLog, *thenStats) {
	l := &dispatchLog{k: k}
	st := &thenStats{}
	rng := rand.New(rand.NewSource(seed))
	grid := func(n int) Time { return Time(rng.Intn(n)) * 10 * time.Nanosecond }
	conds := []*Cond{NewCond(k), NewCond(k), NewCond(k)}
	remaining := workers

	wait := func(p *Proc, c *Cond, d Time) {
		if d == 0 {
			st.zeroThen++
		}
		if kernelThen {
			c.WaitThen(p, d)
			return
		}
		c.Wait(p)
		p.Sleep(d)
	}
	waitTimeout := func(p *Proc, c *Cond, to, d Time) bool {
		if d == 0 {
			st.zeroThen++
		}
		if kernelThen {
			return c.WaitTimeoutThen(p, to, d)
		}
		ok := c.WaitTimeout(p, to)
		if ok {
			p.Sleep(d)
		}
		return ok
	}
	wake := func(c *Cond, all bool) {
		if all {
			if c.Waiters() >= 2 {
				st.broadcastMany++
			}
			c.Broadcast()
			return
		}
		c.Signal()
	}

	for w := 0; w < workers; w++ {
		name := fmt.Sprint("w", w)
		k.Spawn(name, func(p *Proc) {
			defer func() { remaining-- }()
			for s := 0; s < steps; s++ {
				c := conds[rng.Intn(len(conds))]
				d := grid(4) // a quarter of the post-wake sleeps are 0
				switch rng.Intn(8) {
				case 0:
					l.add("%s sleep", name)
					p.Sleep(grid(20))
				case 1, 2:
					l.add("%s wait-then %v", name, d)
					wait(p, c, d)
					l.add("%s woke", name)
				case 3, 4:
					to := 50*time.Nanosecond + grid(10)
					sig := to + Time(rng.Intn(3)-1)*grid(4)
					if sig == to {
						st.tieSignal++
					}
					all := rng.Intn(2) == 0
					if rng.Intn(2) == 0 {
						k.After(sig, func() {
							l.add("fn wake %v", all)
							wake(c, all)
						})
					} else {
						k.AtOp(k.Now()+sig, logOp{l}, uint64(s))
						k.At(k.Now()+sig, func() { wake(c, all) })
					}
					l.add("%s wait-timeout-then %v %v", name, to, d)
					ok := waitTimeout(p, c, to, d)
					if ok {
						st.woke++
					} else {
						st.timeout++
					}
					l.add("%s woke %v", name, ok)
				case 5:
					l.add("%s wake", name)
					wake(c, rng.Intn(2) == 0)
				case 6:
					l.add("%s yield", name)
					p.Yield()
				case 7:
					// A callback due exactly when the sleep ends, and one
					// before it: Sleep dispatches both inline or parks
					// behind them, and a post-wake sleep must do the same.
					at := k.Now() + grid(6)
					k.At(at, func() { l.add("fn tick") })
					k.AtOp(at+grid(3), logOp{l}, 7)
					l.add("%s sleep-past-callback", name)
					p.Sleep(at - k.Now() + grid(3))
				}
			}
			l.add("%s exit", name)
		})
	}
	// pulse keeps every plain wait from waiting forever.
	k.Spawn("pulse", func(p *Proc) {
		for remaining > 0 {
			p.Sleep(30*time.Nanosecond + grid(8))
			l.add("pulse")
			wake(conds[rng.Intn(len(conds))], rng.Intn(3) == 0)
		}
	})
	return l, st
}

// thenRun is one run of thenProgram: its log, event count, final instant,
// switches and Run's error text.
type thenRun struct {
	lines    []string
	events   uint64
	now      Time
	switches uint64
	err      string
	stats    *thenStats
}

func runThen(seed int64, workers, steps int, kernelThen bool, maxEvents uint64, deadline Time) thenRun {
	k := New(seed)
	if maxEvents > 0 {
		k.MaxEvents = maxEvents
	}
	k.Deadline = deadline
	l, st := thenProgram(k, seed, workers, steps, kernelThen)
	err := k.Run()
	return thenRun{lines: l.lines, events: k.Events(), now: k.Now(), switches: k.Switches(), err: fmt.Sprint(err), stats: st}
}

// sameRun reports how a and b differ, or "" when they do not (switches
// aside: saving them is the point).
func sameRun(a, b thenRun) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("Run() = %s, want %s", b.err, a.err)
	case a.events != b.events:
		return fmt.Sprintf("Events() = %d, want %d", b.events, a.events)
	case a.now != b.now:
		return fmt.Sprintf("Now() = %v, want %v", b.now, a.now)
	case !slices.Equal(a.lines, b.lines):
		i := 0
		for i < len(a.lines) && i < len(b.lines) && a.lines[i] == b.lines[i] {
			i++
		}
		return fmt.Sprintf("logs part at line %d of %d/%d: %q vs %q", i, len(a.lines), len(b.lines),
			a.lines[min(i, len(a.lines)-1)], b.lines[min(i, len(b.lines)-1)])
	}
	return ""
}

// TestWaitThenMatchesWaitAndSleep: the seeded random program logs, counts
// and ends the same with the sleep in the process and in the kernel, over
// ten seeds, and the kernel form makes fewer process switches. Across the
// seeds the program covers a Broadcast waking several waiters, a signal
// scheduled at the deadline of the wait it ends, post-wake sleeps of 0,
// and timed waits ended both ways.
func TestWaitThenMatchesWaitAndSleep(t *testing.T) {
	var cover thenStats
	var plainSw, thenSw uint64
	for seed := int64(1); seed <= 10; seed++ {
		plain := runThen(seed, 8, 40, false, 0, 0)
		then := runThen(seed, 8, 40, true, 0, 0)
		if plain.err != "<nil>" {
			t.Fatalf("seed %d: %s", seed, plain.err)
		}
		if diff := sameRun(plain, then); diff != "" {
			t.Errorf("seed %d: %s", seed, diff)
		}
		if then.switches > plain.switches {
			t.Errorf("seed %d: %d switches with the sleep in the kernel, %d without", seed, then.switches, plain.switches)
		}
		plainSw += plain.switches
		thenSw += then.switches
		s := plain.stats
		cover.broadcastMany += s.broadcastMany
		cover.tieSignal += s.tieSignal
		cover.zeroThen += s.zeroThen
		cover.woke += s.woke
		cover.timeout += s.timeout
	}
	t.Logf("switches: %d with Wait+Sleep, %d with WaitThen; coverage %+v", plainSw, thenSw, cover)
	if thenSw >= plainSw {
		t.Errorf("WaitThen saved no switches: %d vs %d", thenSw, plainSw)
	}
	if cover.broadcastMany == 0 || cover.tieSignal == 0 || cover.zeroThen == 0 || cover.woke == 0 || cover.timeout == 0 {
		t.Errorf("the program missed a case: %+v", cover)
	}
}

// TestWaitThenStopsExactly: MaxEvents and Deadline can stop the run
// anywhere, also between a wake and the timer of its post-wake sleep, and
// both forms stop at the same event, the same instant and the same log
// line. Every budget from 1 to a full run's events, and every instant at
// which the full run logged, is tried.
func TestWaitThenStopsExactly(t *testing.T) {
	const seed, workers, steps = 3, 3, 12
	full := runThen(seed, workers, steps, false, 0, 0)
	if full.err != "<nil>" {
		t.Fatal(full.err)
	}
	for max := uint64(1); max <= full.events; max++ {
		plain := runThen(seed, workers, steps, false, max, 0)
		then := runThen(seed, workers, steps, true, max, 0)
		if diff := sameRun(plain, then); diff != "" {
			t.Errorf("MaxEvents=%d: %s", max, diff)
		}
	}
	seen := map[Time]bool{}
	for _, line := range full.lines {
		var at int64
		fmt.Sscan(line, &at)
		for _, d := range []Time{Time(at) - 1, Time(at)} {
			if d <= 0 || seen[d] {
				continue
			}
			seen[d] = true
			plain := runThen(seed, workers, steps, false, 0, d)
			then := runThen(seed, workers, steps, true, 0, d)
			if diff := sameRun(plain, then); diff != "" {
				t.Errorf("Deadline=%v: %s", d, diff)
			}
		}
	}
}

// TestWaitThenSelfHostedWake: a waiter whose own wake pops on its own
// stack (it hosts the loop, nothing else runs) sleeps on in the kernel as
// it would in Sleep: same instant, same events, and no switch besides its
// start either way.
func TestWaitThenSelfHostedWake(t *testing.T) {
	for _, kernelThen := range []bool{false, true} {
		k := New(1)
		c := NewCond(k)
		var woke Time
		k.Spawn("w", func(p *Proc) {
			k.After(10*time.Nanosecond, c.Signal)
			if kernelThen {
				c.WaitThen(p, 5*time.Nanosecond)
			} else {
				c.Wait(p)
				p.Sleep(5 * time.Nanosecond)
			}
			woke = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// start, the signal, the wake, the sleep's timer+wake pair.
		if woke != 15*time.Nanosecond || k.Events() != 5 || k.Switches() != 1 {
			t.Errorf("kernelThen=%v: woke at %v, Events() = %d, Switches() = %d; want 15ns, 5, 1",
				kernelThen, woke, k.Events(), k.Switches())
		}
	}
}

// TestWaitTimeoutThenTimedOutSleepsNot: a wait that times out returns
// false at its deadline, with no post-wake sleep, and a later WaitThen of
// the same process still gets its own.
func TestWaitTimeoutThenTimedOutSleepsNot(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var got []string
	k.Spawn("w", func(p *Proc) {
		ok := c.WaitTimeoutThen(p, 20*time.Nanosecond, 1000*time.Nanosecond)
		got = append(got, fmt.Sprint(p.Now(), " ", ok))
		k.After(5*time.Nanosecond, c.Signal)
		ok = c.WaitTimeoutThen(p, 20*time.Nanosecond, 7*time.Nanosecond)
		got = append(got, fmt.Sprint(p.Now(), " ", ok))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"20ns false", "32ns true"}; !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	if len(k.tmos) != 0 {
		t.Errorf("%d deadlines left in the timeout heap", len(k.tmos))
	}
}

// TestSwitchesCount pins Kernel.Switches: each hand-off of the baton to a
// process other than the one hosting the loop counts once, and resuming
// the host does not count.
func TestSwitchesCount(t *testing.T) {
	t.Run("sleeper", func(t *testing.T) {
		// Run starts the process (one switch); each parked Sleep's wake
		// then pops on the sleeper's own stack.
		k := New(1)
		k.Spawn("s", func(p *Proc) {
			for i := 0; i < 10; i++ {
				k.After(time.Nanosecond, func() {}) // the Sleep must park
				p.Sleep(2 * time.Nanosecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if k.Switches() != 1 {
			t.Errorf("Switches() = %d, want 1", k.Switches())
		}
	})
	t.Run("ping-pong", func(t *testing.T) {
		// Two starts; every Wait but ping's first hands the baton to the
		// peer its Signal woke (2·rounds − 1), and the process that ends
		// first hands it to the peer its last Signal released.
		const rounds = 50
		k := New(1)
		c := NewCond(k)
		for _, name := range []string{"ping", "pong"} {
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < rounds; i++ {
					c.Signal()
					c.Wait(p)
				}
				c.Signal()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if want := uint64(2 + 2*rounds); k.Switches() != want {
			t.Errorf("Switches() = %d, want %d", k.Switches(), want)
		}
	})
}
