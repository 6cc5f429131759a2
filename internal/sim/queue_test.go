package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// The kernel keeps pending entries in three queues — the current-instant
// FIFO, the event heap and the timeout heap — and a timer whose instant is
// otherwise quiet dispatches its process without queueing the wake. These
// tests pin the dispatch order and the event count where those meet, with
// logs written against the single-heap kernel: a mismatch means the queues
// changed what runs, not only how fast.

// dispatchLog records "<virtual ns> <what>" lines.
type dispatchLog struct {
	k     *Kernel
	lines []string
}

func (l *dispatchLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("%d %s", l.k.Now(), fmt.Sprintf(format, args...)))
}

func (l *dispatchLog) check(t *testing.T, want []string) {
	t.Helper()
	if !slices.Equal(l.lines, want) {
		t.Errorf("dispatch log:\n\t%s\nwant:\n\t%s", strings.Join(l.lines, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// logOp is a pooled-op callback that logs its argument.
type logOp struct{ l *dispatchLog }

func (o logOp) RunOp(arg uint64) { o.l.add("op %d", arg) }

// TestSameInstantOrderAcrossQueues: at one instant, events the heap held
// since earlier instants, events scheduled now from a callback, from a
// process (At, AtOp, Spawn, Signal) and by Yield, and a zero-length
// timeout all run strictly by sequence number.
func TestSameInstantOrderAcrossQueues(t *testing.T) {
	const t0 = 100 * time.Nanosecond
	k := New(1)
	l := &dispatchLog{k: k}
	op := logOp{l}
	c := NewCond(k)
	k.After(t0, func() {
		l.add("h1")
		k.At(0, func() { l.add("f1 from h1") }) // clamped to now
	})
	k.Spawn("p", func(p *Proc) {
		p.Sleep(t0) // the heap holds h1, h2 at t0: the timer queues behind them
		l.add("p woke")
		k.AtOp(p.Now(), op, 1)
		p.Spawn("child", func(*Proc) { l.add("child started") })
		c.Signal()
		k.After(0, func() { l.add("f3 from p") })
		p.Yield()
		l.add("p yielded")
	})
	k.Spawn("q", func(p *Proc) {
		k.After(t0/2, func() {
			l.add("h3")
			k.At(t0, func() { l.add("h4 from h3") }) // heap, after p's timer
		})
		c.Wait(p)
		l.add("q woke")
		k.AtOp(p.Now(), op, 2)
		l.add("q timed wait: %v", c.WaitTimeout(p, 0))
	})
	k.After(t0, func() {
		l.add("h2")
		k.AtOp(k.Now(), op, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	l.check(t, []string{
		"50 h3",
		"100 h1",
		"100 h2",
		"100 h4 from h3",
		"100 f1 from h1",
		"100 op 0",
		"100 p woke",
		"100 op 1",
		"100 child started",
		"100 q woke",
		"100 f3 from p",
		"100 op 2",
		"100 p yielded",
		"100 q timed wait: false",
	})
	if got := k.Events(); got != 19 {
		t.Errorf("Events() = %d, want 19", got)
	}
}

// TestTimerRunsAfterEventsDueAtItsInstant: a timer pops with another entry
// due at its instant — in the heap, in the FIFO or in the timeout heap —
// so its process resumes after that entry, not in the timer's place. The
// sleeper logs whether the other process's timed wait has expired yet,
// which is all a deadline that pops shows before its process resumes.
func TestTimerRunsAfterEventsDueAtItsInstant(t *testing.T) {
	const t0 = 100 * time.Nanosecond
	for _, tc := range []struct {
		name string
		// other is spawned after the sleeper and puts an entry due at t0
		// behind the sleeper's timer.
		other func(k *Kernel, l *dispatchLog, p *Proc)
		want  []string
	}{
		{"heap", func(k *Kernel, l *dispatchLog, p *Proc) {
			k.At(t0, func() { l.add("callback") })
		}, []string{"100 callback", "100 sleeper, other timed out: false"}},
		{"fifo", func(k *Kernel, l *dispatchLog, p *Proc) {
			p.Sleep(t0 - 1)                 // in place: nothing else runs before
			k.At(t0, func() { l.add("x") }) // heap, behind the sleeper's timer
			p.Sleep(1)                      // parks; its timer pops behind the sleeper's wake
			l.add("other")
		}, []string{"100 x", "100 sleeper, other timed out: false", "100 other"}},
		{"timeout", func(k *Kernel, l *dispatchLog, p *Proc) {
			l.add("other timed wait: %v", NewCond(k).WaitTimeout(p, t0))
		}, []string{"100 sleeper, other timed out: true", "100 other timed wait: false"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(1)
			l := &dispatchLog{k: k}
			var other *Proc
			k.Spawn("sleeper", func(p *Proc) {
				p.Sleep(t0)
				l.add("sleeper, other timed out: %v", other.timedOut)
			})
			k.Spawn("other", func(p *Proc) {
				other = p
				tc.other(k, l, p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			l.check(t, tc.want)
		})
	}
}

// TestMaxEventsBetweenTimerAndWake: a budget that runs out on the timer
// stops Run before the wake it requests, at the event count the two-event
// path gives; one more event lets the process resume.
func TestMaxEventsBetweenTimerAndWake(t *testing.T) {
	for _, tc := range []struct {
		max     uint64
		resumed bool
		err     string
	}{
		{max: 5, err: "sim: exceeded MaxEvents=5 at t=100ns (possible livelock)"},
		{max: 6, resumed: true},
	} {
		k := New(1)
		k.MaxEvents = tc.max
		resumed := false
		// start p, start q, q's in-place sleep (2), p's timer: 5 events.
		k.Spawn("p", func(p *Proc) {
			p.Sleep(100 * time.Nanosecond)
			resumed = true
		})
		k.Spawn("q", func(p *Proc) { p.Sleep(30 * time.Nanosecond) })
		err := k.Run()
		if got := fmt.Sprint(err); (tc.err == "" && err != nil) || (tc.err != "" && got != tc.err) {
			t.Errorf("MaxEvents=%d: Run() = %v, want %q", tc.max, err, tc.err)
		}
		if k.Events() != tc.max || resumed != tc.resumed {
			t.Errorf("MaxEvents=%d: Events() = %d, resumed = %v; want %d, %v",
				tc.max, k.Events(), resumed, tc.max, tc.resumed)
		}
	}
}
