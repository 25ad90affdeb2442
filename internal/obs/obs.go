// Package obs is the kernel observability subsystem: low-overhead
// statistics ("kstats") and event tracing for the simulated OS. The
// paper's refinement argument (§4.3–4.4) promises that NR's
// flat-combining log and the syscall state machine behave as specified;
// obs makes that behavior visible at runtime — combiner batch sizes,
// log-full stalls, per-opcode syscall latencies, journal commits — so
// perf work on the hot paths is measurable instead of guessed at.
//
// Design constraints, in priority order:
//
//  1. The record path must be allocation-free and nearly free when
//     stats are disabled: one atomic load of the global gate.
//  2. When enabled, concurrent recorders must not contend: counters
//     and histogram buckets are sharded into cache-line-padded cells,
//     indexed by a caller-supplied shard hint (replica id, core id,
//     PID — anything stable per recording thread).
//  3. Reading is rare and may be slow: Snapshot() sums shards and
//     copies the trace ring under no lock, tolerating torn totals
//     (each individual cell is read atomically).
//
// The global gate defaults to off, so the subsystem costs one predicted
// branch per instrumentation site unless a tool (`vnros stats`, the
// benchmark's obs.enable_overhead_ratio probe) turns it on.
//
// Even enabled, the expensive recordings — anything that needs a clock
// read (latency tokens), a histogram bucket update, or a trace-ring
// slot — are *sampled*: by default 1 in 64 events pays the full cost,
// the rest fall out after a cheap per-thread random draw. Counters and
// per-opcode counts are always exact (a single padded atomic add).
// Uniform sampling leaves the latency *distribution* unbiased, which is
// what percentiles are computed from; tools that want every event
// (tiny demo workloads) call SetSampleRate(1).
package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global gate. All record paths check it first.
var enabled atomic.Bool

// Enable turns stat recording on.
func Enable() { enabled.Store(true) }

// Disable turns stat recording off. Already-recorded values remain
// until Reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// DefaultSampleRate is the default 1-in-N sampling of clock reads,
// histogram updates, and trace emits.
const DefaultSampleRate = 64

// sampleMask is rate-1 for a power-of-two rate; 0 means every event.
var sampleMask = func() (m atomic.Uint64) {
	m.Store(DefaultSampleRate - 1)
	return
}()

// SetSampleRate sets the sampling rate for the expensive record paths:
// 1 in n Start tokens, histogram records, and trace emits go through.
// n is rounded up to a power of two; n <= 1 records everything.
func SetSampleRate(n int) {
	m := uint64(0)
	for int(m)+1 < n {
		m = m<<1 | 1
	}
	sampleMask.Store(m)
}

// sampled is the per-event sampling draw. rand/v2's global generator
// reads per-thread state, so concurrent recorders don't contend.
func sampled() bool {
	m := sampleMask.Load()
	return m == 0 || rand.Uint64()&m == 0
}

// Start returns a start token for latency measurement: the current
// time when stats are enabled and this event is sampled, the zero Time
// otherwise. Hist.Since ignores zero tokens, so a disabled system never
// calls time.Now, and an enabled one only pays the clock read on
// sampled events.
func Start() (t time.Time) {
	if enabled.Load() && sampled() {
		t = time.Now()
	}
	return
}

// NumShards is the number of independent cells per counter/histogram.
// Power of two; shard hints are masked into range.
const NumShards = 8

const shardMask = NumShards - 1

// shardSeq hands out shard hints for instrumented objects that have no
// natural identity (kernel replicas, page-table instances). Assigning
// at construction keeps the per-operation path free of hashing.
var shardSeq atomic.Uint32

// NextShard returns a fresh shard hint, round-robin over the shard
// space.
func NextShard() uint32 { return shardSeq.Add(1) - 1 }

// registry holds every metric created through the New* constructors, in
// creation order, for Snapshot.
var registry struct {
	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Hist
	ops      []*OpStats
	traces   []*Trace
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Enabled  bool
	Counters map[string]uint64
	Gauges   map[string]uint64
	Hists    map[string]HistSnapshot
	Ops      map[string][]OpSnapshot
	Traces   map[string][]Event
}

// TakeSnapshot sums every registered metric. Concurrent recording is
// allowed; totals may be momentarily torn across metrics but each cell
// is read atomically.
func TakeSnapshot() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{
		Enabled:  enabled.Load(),
		Counters: make(map[string]uint64, len(registry.counters)),
		Gauges:   make(map[string]uint64, len(registry.gauges)),
		Hists:    make(map[string]HistSnapshot, len(registry.hists)),
		Ops:      make(map[string][]OpSnapshot, len(registry.ops)),
		Traces:   make(map[string][]Event, len(registry.traces)),
	}
	for _, c := range registry.counters {
		s.Counters[c.name] = c.Load()
	}
	for _, g := range registry.gauges {
		if g.Touched() {
			s.Gauges[g.name] = g.Load()
		}
	}
	for _, h := range registry.hists {
		s.Hists[h.name] = h.Snapshot()
	}
	for _, o := range registry.ops {
		s.Ops[o.name] = o.Snapshot()
	}
	for _, t := range registry.traces {
		s.Traces[t.name] = t.Snapshot()
	}
	return s
}

// Reset zeroes every registered metric and clears trace rings. Used by
// bench/ between phases.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.reset()
	}
	for _, g := range registry.gauges {
		g.reset()
	}
	for _, h := range registry.hists {
		h.reset()
	}
	for _, o := range registry.ops {
		o.reset()
	}
	for _, t := range registry.traces {
		t.reset()
	}
}

// sortedKeys returns map keys in stable order (render helpers).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
