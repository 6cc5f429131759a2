package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// round is one build-run-measure cycle of a workload: everything the
// program needs (kernel, cluster, registry, flows) is built afresh from
// the seed, a fixed number of tuples moves, and the measurements stay
// here. Work is fixed in tuples, not seconds, so a seed's counts and
// simulated times repeat exactly round after round and commit after
// commit.
type round struct {
	seed int64
	// div divides every workload size; 1 is full size, the package test
	// runs at 200.
	div int
	tr  *tracer // nil with tracing off

	start    time.Time // round start, host clock
	setupEnd time.Time // first timed push is about to happen
	t0, t1   time.Time // timed phase, host clock
	cpu0     int64     // process CPU ns at t0
	cpu1     int64
	// Process CPU ns at round start and at setupEnd (traced rounds).
	cpuSetup0, cpuSetup1 int64
	ms0, ms1             runtime.MemStats
	v0, v1               time.Duration // timed phase, transport clock
	ev0, ev1             uint64        // sim kernel events at v0 and v1 (0 on chanloop)

	mu        sync.Mutex // guards what concurrent chanloop goroutines report
	tuples    uint64     // returned by Consume*
	attempted uint64
	failed    uint64
	payload   uint64  // tuple bytes returned by Consume*
	deliver   []int64 // sampled Push-call to Consume-return, transport-clock ns
	problems  []string

	// layer holds the per-layer counts a workload can read from outside
	// the program (Stats(), pool links, the registry's own counter).
	layer map[string]float64
	flows float64 // flows initialised, for per-flow set-up cost
}

// scaled returns a full-scale size divided by the round's divisor.
func (r *round) scaled(n int) int {
	if n /= r.div; n < 1 {
		return 1
	}
	return n
}

// problem records an oracle complaint; any complaint makes the run
// incorrect.
func (r *round) problem(format string, args ...any) {
	r.mu.Lock()
	if len(r.problems) < 32 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// begin opens the timed phase. The last party to become ready calls it,
// once, just before every party is released to push and consume.
func (r *round) begin(virt time.Duration, events uint64) {
	r.setupEnd = time.Now()
	r.cpuSetup1 = processCPU()
	r.tr.beginTimed()
	r.v0, r.ev0 = virt, events
	runtime.ReadMemStats(&r.ms0)
	r.cpu0 = processCPU()
	r.t0 = time.Now()
}

// end closes the timed phase. The last target to finish calls it, once.
func (r *round) end(virt time.Duration, events uint64) {
	r.t1 = time.Now()
	r.cpu1 = processCPU()
	runtime.ReadMemStats(&r.ms1)
	r.v1, r.ev1 = virt, events
	r.tr.endTimed()
}

// processCPU returns the user+system CPU time of the process in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// endToEndValues derives the round's end-to-end metrics (all but
// host_peak_rss_mib, which belongs to the process).
func (r *round) endToEndValues() map[string]float64 {
	tuples := float64(r.tuples)
	wall := r.t1.Sub(r.t0).Seconds()
	sort.Slice(r.deliver, func(i, j int) bool { return r.deliver[i] < r.deliver[j] })
	return map[string]float64{
		"setup_s":                r.setupEnd.Sub(r.start).Seconds(),
		"host_tuples_per_s":      tuples / wall,
		"host_cpu_ns_per_tuple":  float64(r.cpu1-r.cpu0) / tuples,
		"host_allocs_per_ktuple": 1 + float64(r.ms1.Mallocs-r.ms0.Mallocs)/(tuples/1000),
		"virt_gib_per_s":         float64(r.payload) / (r.v1 - r.v0).Seconds() / (1 << 30),
		"virt_deliver_p50_us":    percentile(r.deliver, 0.50) / 1e3,
		"virt_deliver_p99_us":    percentile(r.deliver, 0.99) / 1e3,
	}
}

// percentile returns the q-quantile of sorted clock readings. The clocks
// count whole nanoseconds, so a reading v stands for [v, v+1); where the
// quantile's rank falls inside a run of equal readings the result is
// interpolated across that run (the grouped-data quantile). A simulated
// latency distribution is a few point masses, and this keeps the
// quantile sensitive to how the mass shifts between them.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted))
	i := int(math.Ceil(rank)) - 1
	if i < 0 {
		i = 0
	}
	v := sorted[i]
	lo := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= v })
	hi := sort.Search(len(sorted), func(j int) bool { return sorted[j] > v })
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

// Tuple layout shared by every workload: the key at offset 0, at offset
// 8 the transport-clock time of the Push call plus 1 (0 when the tuple is
// not sampled; the plus 1 keeps a push at time 0 sampled), and on tuples of 32 bytes or more a guard word in the
// last 8 bytes that must equal key^tailGuard on arrival.
const (
	keyOff    = 0
	stampOff  = 8
	tailGuard = 0x5bd1e9955bd1e995
)

// gen is one source's seeded tuple generator (splitmix64, so the harness
// costs a few ns per tuple and needs no shared state). It also keeps the
// generator's side of the oracle: what it handed to Push.
type gen struct {
	state uint64
	size  int
	count uint64
	sum   uint64
	xor   uint64
}

func newGen(seed int64, stream, tupleSize int) *gen {
	return &gen{state: uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9, size: tupleSize}
}

func (g *gen) next() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill writes a tuple into tup; sampled tuples carry the time of their
// Push call.
func (g *gen) fill(tup []byte, key uint64, sampled bool, now time.Duration) {
	var stamp uint64
	if sampled {
		stamp = uint64(now) + 1
	}
	binary.LittleEndian.PutUint64(tup[keyOff:], key)
	binary.LittleEndian.PutUint64(tup[stampOff:], stamp)
	if g.size >= 32 {
		binary.LittleEndian.PutUint64(tup[g.size-8:], key^tailGuard)
	}
	g.note(key)
}

// note accounts a key handed to Push without filling a tuple (the rpc
// servers echo the tuple they consumed).
func (g *gen) note(key uint64) {
	g.count++
	g.sum += key
	g.xor ^= key
}

// sink is one target's side of the oracle.
type sink struct {
	size    int
	count   uint64
	sum     uint64
	xor     uint64
	corrupt uint64 // guard word mismatch
	deliver []int64
}

// take accounts one consumed tuple and reports whether it is sampled and
// when it was pushed.
func (s *sink) take(tup []byte) (sampled bool, pushed time.Duration) {
	key := binary.LittleEndian.Uint64(tup[keyOff:])
	s.count++
	s.sum += key
	s.xor ^= key
	if s.size >= 32 && binary.LittleEndian.Uint64(tup[s.size-8:]) != key^tailGuard {
		s.corrupt++
	}
	stamp := binary.LittleEndian.Uint64(tup[stampOff:])
	return stamp != 0, time.Duration(stamp - 1)
}

// settle compares what the generators pushed with what the sinks
// consumed and folds the result into the round: counts, key sum and key
// XOR must agree and no guard word may be wrong.
func (r *round) settle(gens []*gen, sinks []*sink, tupleSize int) {
	var g, s gen
	var corrupt uint64
	for _, x := range gens {
		g.count, g.sum, g.xor = g.count+x.count, g.sum+x.sum, g.xor^x.xor
	}
	for _, x := range sinks {
		s.count, s.sum, s.xor = s.count+x.count, s.sum+x.sum, s.xor^x.xor
		corrupt += x.corrupt
		r.deliver = append(r.deliver, x.deliver...)
	}
	r.attempted += g.count
	r.tuples += s.count
	r.payload += s.count * uint64(tupleSize)
	switch {
	case s.count < g.count:
		r.failed += g.count - s.count
		r.problem("%d of %d tuples missing", g.count-s.count, g.count)
	case s.count > g.count:
		r.failed += s.count - g.count
		r.problem("%d tuples duplicated", s.count-g.count)
	case s.sum != g.sum || s.xor != g.xor:
		r.failed++
		r.problem("key sum/xor mismatch: pushed %x/%x, consumed %x/%x", g.sum, g.xor, s.sum, s.xor)
	}
	if corrupt > 0 {
		r.failed += corrupt
		r.problem("%d tuples arrived with a wrong guard word", corrupt)
	}
}
