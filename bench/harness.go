package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	vnros "github.com/verified-os/vnros"
)

// sliceLen is how long the clients run between two calibrations.
const sliceLen = 500 * time.Millisecond

// calRef is how long the calibration kernel takes on the reference box
// in a calm hour (the fastest twentieth of ~900 readings).
const calRef = 35 * time.Millisecond

var (
	calA, calB = make([]byte, 1<<20), make([]byte, 1<<20)
	calKeep    [8][]byte
)

// speed runs the calibration kernel and returns how fast the machine is
// right now as a share of the reference box's calm speed. The reference
// box is a 2-vCPU virtual machine whose host changes speed under it: for
// minutes at a time neighbours on the sibling hyperthreads, the shared
// cache and the hypervisor take 20-40 % of every rate away (one afternoon
// read syscall_mix at 75k, 49k and 36k ops/s with no code change, and a
// plain 16 KiB copy loop 3x apart within a minute), while a dependent
// ALU chain barely moves. So the benchmark does not trust its clock: all
// clients stop every sliceLen, this kernel runs alone, and the slice's
// time counts in proportion to the speed it read (see runPhase). The
// kernel is the benchmark's own code, so no change to the program moves
// it, and it does what the program's hot paths do — copies that fit the
// L1, copies that fit the L2, and allocating and filling 16 KiB blocks
// (the size of syscall_mix's view copies) — because those are what the
// interference slows. It runs on one goroutine: waking the second vCPU
// takes this VM anything up to milliseconds, which is noise of its own.
func speed() float64 {
	t0 := time.Now()
	for i := 0; i < 80000; i++ {
		copy(calA[:16<<10], calB[:16<<10])
		calA[i&1023]++
	}
	for i := 0; i < 800; i++ {
		copy(calA, calB)
		calA[i]++
	}
	for i := 0; i < 3000; i++ {
		x := make([]byte, 16<<10)
		copy(x, calB[:16<<10])
		calKeep[i&7] = x
	}
	return float64(calRef) / float64(time.Since(t0))
}

// client is one closed-loop caller: it owns its PID, its descriptors
// and its position in the pre-generated op stream, and issues its next
// request only after the previous one completed.
type client struct {
	id  int
	sys *vnros.Sys
	tr  *tracer // nil while tracing is off
	st  any     // workload-owned state (descriptors, shadow model, streams)

	next int // position in the op stream; persists across phases

	lat       []uint32          // one latency sample per request, ns
	end       time.Time         // when the client finished its slice
	attempted uint64            // ops attempted this phase
	failed    uint64            // ops failed this phase
	cmd       chan stint        // slices to run; closed to retire the client
	done      chan struct{}     // one token per finished slice
	step      func(*client) int // one request; returns its failed ops
	opsPer    uint64            // ops per request
}

// stint is one slice's order to a client: run until the deadline.
type stint struct {
	deadline   time.Time
	maxSamples int // stop early once the client holds this many samples (0 = none)
}

// serve is the client's goroutine body: run each slice it is handed,
// return when the command channel closes. For contract-checked
// workloads this is the body of the vnros.Program, so the syscalls come
// from the process's own goroutine exactly as a user program's would.
func (c *client) serve() {
	for sl := range c.cmd {
		c.run(sl)
		c.done <- struct{}{}
	}
}

// run is the timed loop. It allocates nothing: samples land in the
// pre-sized lat buffer, and every input the step consumes was generated
// before the window opened.
func (c *client) run(sl stint) {
	t := time.Now()
	for {
		failed := c.step(c)
		t2 := time.Now()
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, uint32(t2.Sub(t)))
		}
		c.attempted += c.opsPer
		c.failed += uint64(failed)
		t = t2
		if !t.Before(sl.deadline) || (sl.maxSamples > 0 && len(c.lat) >= sl.maxSamples) {
			break
		}
	}
	c.end = t
}

// phaseResult is what one phase measured.
type phaseResult struct {
	elapsed   time.Duration // the slices' lengths summed, calibration excluded
	attempted uint64
	failed    uint64
	samples   int
	overflow  bool // a latency buffer filled: percentiles cover a prefix only

	opsPerS     float64 // successful ops per second at the reference speed
	rawOpsPerS  float64 // the same per second of this machine's clock
	sliceSpread float64 // IQR of the slices' calibrated rates as a share of their median
	p50us       float64
	p99us       float64
	topPct      float64 // highest percentile with >= 10 samples beyond it
	topUs       float64
	allocsOp    float64
	bytesOp     float64

	classes map[string][]uint32 // traced phases: root-span durations by op class
}

// runPhase drives every client through one phase and reduces their
// samples. sampleCap sizes each client's latency buffer (chosen by the
// caller from the warm-up's observed rate).
//
// A phase bounded by time (maxSamples 0) is cut into slices of sliceLen:
// the clients run a slice, finish the request they are in, and stand
// still while speed() reads the machine; the slice then counts as its
// length times that speed, in seconds of the reference box. ops_per_s is
// successful ops over the sum of those, so a stretch the host slowed
// down weighs as the shorter stretch of undisturbed time it was worth.
// Allocation is counted slice by slice, so the kernel's own is left out.
// A phase bounded by maxSamples is one slice on the machine's own clock.
func runPhase(cs []*client, dur time.Duration, maxSamples, sampleCap int, traced bool) phaseResult {
	for _, c := range cs {
		if cap(c.lat) < sampleCap {
			c.lat = make([]uint32, 0, sampleCap)
		}
		c.lat = c.lat[:0]
		c.attempted, c.failed = 0, 0
		if traced {
			c.tr = newTracer(c.id, 4*maxSamples)
		} else {
			c.tr = nil
		}
	}
	requests := func() (n int) {
		for _, c := range cs {
			n += len(c.lat)
		}
		return n
	}

	var r phaseResult
	var refSeconds float64 // the slices' lengths in seconds of the reference box
	var rates []float64    // requests per reference second, slice by slice
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	runtime.GC()
	for r.elapsed < dur {
		before := requests()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		sl := stint{deadline: start.Add(min(sliceLen, dur-r.elapsed)), maxSamples: maxSamples}
		if maxSamples > 0 {
			sl.deadline = start.Add(dur)
		}
		for _, c := range cs {
			c.cmd <- sl
		}
		for _, c := range cs {
			<-c.done
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		end := start
		for _, c := range cs {
			if c.end.After(end) {
				end = c.end
			}
		}
		length := end.Sub(start)
		r.elapsed += length
		if maxSamples > 0 {
			refSeconds = length.Seconds()
			break
		}
		ref := length.Seconds() * speed()
		refSeconds += ref
		rates = append(rates, float64(requests()-before)/ref)
	}

	var all []uint32
	for _, c := range cs {
		r.attempted += c.attempted
		r.failed += c.failed
		r.samples += len(c.lat)
		r.overflow = r.overflow || len(c.lat) == cap(c.lat)
		all = append(all, c.lat...)
	}
	sortU32(all)
	if ok := r.attempted - r.failed; ok > 0 {
		r.opsPerS = float64(ok) / refSeconds
		r.rawOpsPerS = float64(ok) / r.elapsed.Seconds()
		r.allocsOp = float64(mallocs) / float64(ok)
		r.bytesOp = float64(bytes) / float64(ok)
	}
	if sort.Float64s(rates); len(rates) >= 4 {
		q1, q3 := quartiles(rates)
		r.sliceSpread = (q3 - q1) / median(rates)
	}
	if len(all) > 0 {
		r.p50us = float64(rank(all, 50)) / 1e3
		r.p99us = float64(rank(all, 99)) / 1e3
	}
	for _, pct := range []float64{50, 90, 99, 99.9, 99.99, 99.999} {
		if float64(len(all))*(1-pct/100) >= 10 {
			r.topPct, r.topUs = pct, float64(rank(all, pct))/1e3
		}
	}
	if traced {
		r.classes = make(map[string][]uint32)
		for _, c := range cs {
			c.tr.rootDurations(r.classes)
		}
	}
	return r
}

// rank returns the nearest-rank percentile of sorted samples.
func rank(sorted []uint32, pct float64) uint32 {
	i := int(float64(len(sorted))*pct/100+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortU32(s []uint32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the regression gate applies across
// runs, so a spread printed here reads on the same scale.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		n := len(sorted)
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return sorted[0]
		}
		if j >= n {
			return sorted[n-1]
		}
		return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
	}
	return at(0.25), at(0.75)
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return median(s)
}

// memDelta runs f and returns its wall time plus the mallocs and bytes
// it allocated (process-wide: callers run it with nothing else going).
func memDelta(f func()) (time.Duration, uint64, uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// invalid marks a run whose outputs cannot be trusted (contract
// violation, diverged replicas, lost durable bytes): not a failed op
// but a failed benchmark.
type invalid struct{ err error }

func (e invalid) Error() string { return "invalid run: " + e.err.Error() }
func (e invalid) Unwrap() error { return e.err }

func invalidf(format string, args ...any) error {
	return invalid{fmt.Errorf(format, args...)}
}
