package obs

import (
	"sync"
	"testing"
	"time"
)

// Metrics here are created fresh per test (not the kernel set) so tests
// do not interfere with each other through the global registry totals.

func withStats(t *testing.T) {
	t.Helper()
	Enable()
	SetSampleRate(1) // tests assert exact totals
	t.Cleanup(func() {
		Disable()
		SetSampleRate(DefaultSampleRate)
		Reset()
	})
}

func TestSampleRateThinsExpensivePaths(t *testing.T) {
	Enable()
	SetSampleRate(4)
	t.Cleanup(func() {
		Disable()
		SetSampleRate(DefaultSampleRate)
		Reset()
	})
	c := NewCounter("test.sampled.counter")
	h := NewHist("test.sampled.hist", UnitCount)
	const n = 100_000
	for i := 0; i < n; i++ {
		c.Add(0, 1)
		h.Record(0, uint64(i))
	}
	if got := c.Load(); got != n {
		t.Fatalf("counters must stay exact under sampling: %d != %d", got, n)
	}
	got := h.Snapshot().Count
	if got < n/8 || got > n/2 {
		t.Fatalf("hist recorded %d of %d at rate 4, want ~%d", got, n, n/4)
	}
	// Rate <= 1 records everything again.
	SetSampleRate(1)
	h.reset()
	for i := 0; i < 1000; i++ {
		h.Record(0, uint64(i))
	}
	if got := h.Snapshot().Count; got != 1000 {
		t.Fatalf("rate 1 dropped records: %d != 1000", got)
	}
}

func TestCounterShardsSum(t *testing.T) {
	withStats(t)
	c := NewCounter("test.counter")
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 2*NumShards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(uint32(g), 1)
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != 2*NumShards*per {
		t.Fatalf("counter = %d, want %d", got, 2*NumShards*per)
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	Disable()
	c := NewCounter("test.disabled.counter")
	h := NewHist("test.disabled.hist", UnitCount)
	tr := NewTrace("test.disabled.trace", 16)
	c.Add(0, 5)
	h.Record(0, 5)
	tr.Emit(0, 1, 2)
	if t0 := Start(); !t0.IsZero() {
		t.Fatal("Start returned non-zero token while disabled")
	}
	h.Since(0, Start())
	if c.Load() != 0 || h.Snapshot().Count != 0 || len(tr.Snapshot()) != 0 {
		t.Fatal("disabled metrics recorded values")
	}
}

func TestHistBucketsAndPercentiles(t *testing.T) {
	withStats(t)
	h := NewHist("test.hist", UnitCount)
	// 100 values: 1..100. p50 ≈ 50, p99 ≈ 99, within log2-bucket error
	// (the estimate may be up to 2x off but must stay in the bucket).
	for v := uint64(1); v <= 100; v++ {
		h.Record(uint32(v), v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if m := s.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	p50 := s.Percentile(0.50)
	if p50 < 32 || p50 > 64 {
		t.Fatalf("p50 = %d outside [32,64]", p50)
	}
	p99 := s.Percentile(0.99)
	if p99 < 64 || p99 > 128 {
		t.Fatalf("p99 = %d outside [64,128]", p99)
	}
	if s.Percentile(0) > 1 {
		t.Fatalf("p0 = %d", s.Percentile(0))
	}
	if got := s.Percentile(1); got < 64 {
		t.Fatalf("p100 = %d", got)
	}
}

func TestHistSince(t *testing.T) {
	withStats(t)
	h := NewHist("test.hist.since", UnitNanos)
	t0 := Start()
	if t0.IsZero() {
		t.Fatal("Start returned zero while enabled")
	}
	time.Sleep(time.Millisecond)
	h.Since(0, t0)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum < uint64(time.Millisecond) {
		t.Fatalf("recorded %v < 1ms", time.Duration(s.Sum))
	}
}

func TestTraceRingKeepsMostRecent(t *testing.T) {
	withStats(t)
	tr := NewTrace("test.trace", 16)
	for i := uint64(0); i < 100; i++ {
		tr.Emit(1, i, i*2)
	}
	evs := tr.Snapshot()
	if len(evs) != tr.Cap() {
		t.Fatalf("got %d events, want %d", len(evs), tr.Cap())
	}
	// The ring holds exactly the last Cap() events, in order.
	for i, e := range evs {
		want := uint64(100 - tr.Cap() + i)
		if e.Seq != want || e.A != want || e.B != want*2 {
			t.Fatalf("event %d = %+v, want seq %d", i, e, want)
		}
	}
}

func TestTraceConcurrentEmitAndSnapshot(t *testing.T) {
	withStats(t)
	tr := NewTrace("test.trace.concurrent", 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					tr.Emit(uint32(g), i, i)
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		evs := tr.Snapshot()
		for j := 1; j < len(evs); j++ {
			if evs[j].Seq <= evs[j-1].Seq {
				t.Fatalf("snapshot out of order at %d", j)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestOpStatsClampAndSnapshot(t *testing.T) {
	withStats(t)
	o := NewOpStats("test.ops", 4)
	o.Observe(1, 0, Start())
	o.Observe(1, 1, Start())
	o.Count(99, 0) // out of range: clamps onto last op
	snap := o.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Op != 1 || snap[0].Count != 2 || snap[0].Latency.Count != 2 {
		t.Fatalf("op1 = %+v", snap[0])
	}
	if snap[1].Op != 3 || snap[1].Count != 1 {
		t.Fatalf("clamped op = %+v", snap[1])
	}
	out := RenderOps("test", snap, func(op uint64) string { return "x" })
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestSnapshotAndReset(t *testing.T) {
	withStats(t)
	c := NewCounter("test.snapreset.counter")
	h := NewHist("test.snapreset.hist", UnitCount)
	c.Add(3, 7)
	h.Record(0, 9)
	s := TakeSnapshot()
	if s.Counters["test.snapreset.counter"] != 7 {
		t.Fatalf("snapshot counter = %d", s.Counters["test.snapreset.counter"])
	}
	if s.Hists["test.snapreset.hist"].Count != 1 {
		t.Fatal("snapshot hist missing")
	}
	if s.RenderSummary() == "" {
		t.Fatal("empty summary")
	}
	Reset()
	if c.Load() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("reset left values")
	}
}

func TestKernelMetricSetRegistered(t *testing.T) {
	s := TakeSnapshot()
	for _, name := range []string{"nr.log_full_stalls", "nr.execute_retries", "fs.meta_ops"} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("kernel counter %s not registered", name)
		}
	}
	for _, name := range []string{"nr.batch_size", "pt.map_latency"} {
		if _, ok := s.Hists[name]; !ok {
			t.Errorf("kernel hist %s not registered", name)
		}
	}
	if _, ok := s.Ops["syscall"]; !ok {
		t.Error("syscall op family not registered")
	}
	if KindName(KindSyscall) != "syscall" {
		t.Errorf("KindName = %q", KindName(KindSyscall))
	}
}

// Overhead guardrails: the disabled record path must be a handful of
// nanoseconds (one atomic load + branch), the enabled path well under
// the microsecond scale of the operations it instruments.

func BenchmarkCounterAddDisabled(b *testing.B) {
	Disable()
	c := NewCounter("bench.counter.disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(0, 1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	Enable()
	defer func() { Disable(); Reset() }()
	c := NewCounter("bench.counter.enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(0, 1)
	}
}

func BenchmarkHistRecordEnabled(b *testing.B) {
	Enable()
	SetSampleRate(1)
	defer func() { Disable(); SetSampleRate(DefaultSampleRate); Reset() }()
	h := NewHist("bench.hist.enabled", UnitNanos)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(0, uint64(i))
	}
}

func BenchmarkStartSinceEnabled(b *testing.B) {
	Enable()
	SetSampleRate(1)
	defer func() { Disable(); SetSampleRate(DefaultSampleRate); Reset() }()
	h := NewHist("bench.hist.since", UnitNanos)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Since(0, Start())
	}
}

// BenchmarkStartSinceSampled measures the production configuration: the
// default sample rate amortizes the clock reads, leaving the cheap
// per-event draw.
func BenchmarkStartSinceSampled(b *testing.B) {
	Enable()
	defer func() { Disable(); Reset() }()
	h := NewHist("bench.hist.since.sampled", UnitNanos)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Since(0, Start())
	}
}

func BenchmarkTraceEmitEnabled(b *testing.B) {
	Enable()
	SetSampleRate(1)
	defer func() { Disable(); SetSampleRate(DefaultSampleRate); Reset() }()
	tr := NewTrace("bench.trace", 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, uint64(i), 0)
	}
}
