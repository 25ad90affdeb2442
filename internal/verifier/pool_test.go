package verifier

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// stressRegistry builds a registry mixing passing, failing, panicking,
// randomized, and slow obligations — the worker pool's worst customers.
func stressRegistry(n int) *Registry {
	g := &Registry{}
	for i := 0; i < n; i++ {
		i := i
		var check func(r *rand.Rand) error
		switch i % 5 {
		case 0:
			check = func(r *rand.Rand) error { return nil }
		case 1:
			check = func(r *rand.Rand) error { return fmt.Errorf("deterministic failure %d", i) }
		case 2:
			check = func(r *rand.Rand) error { panic(fmt.Sprintf("panic %d", i)) }
		case 3:
			// Randomized: fails iff the VC's seeded source says so — the
			// outcome must be identical at every job count.
			check = func(r *rand.Rand) error {
				if r.Intn(2) == 0 {
					return errors.New("seeded coin came up tails")
				}
				return nil
			}
		default:
			check = func(r *rand.Rand) error { time.Sleep(time.Millisecond); return nil }
		}
		g.Register(Obligation{Module: fmt.Sprintf("m%d", i%7), Name: fmt.Sprintf("vc%03d", i),
			Kind: KindSafety, Check: check})
	}
	return g
}

func errStrings(rep *Report) []string {
	var out []string
	for _, r := range rep.Results {
		if r.Err != nil {
			out = append(out, r.Obligation.ID()+": "+r.Err.Error())
		}
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSerial is the soundness claim of the pool: the same
// seed at Jobs=1 and Jobs=8 produces identical error sets, identical
// result ordering, and a byte-identical Summary.
func TestParallelMatchesSerial(t *testing.T) {
	g := stressRegistry(60)
	serial := g.Run(Options{Seed: 2026, Jobs: 1})
	parallel := g.Run(Options{Seed: 2026, Jobs: 8})

	if serial.Jobs != 1 || parallel.Jobs != 8 {
		t.Fatalf("jobs recorded as %d / %d", serial.Jobs, parallel.Jobs)
	}
	se, pe := errStrings(serial), errStrings(parallel)
	if len(se) == 0 {
		t.Fatal("stress registry produced no failures — the comparison is vacuous")
	}
	if len(se) != len(pe) {
		t.Fatalf("error counts differ: serial %d, parallel %d", len(se), len(pe))
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Fatalf("error %d differs:\n  serial:   %s\n  parallel: %s", i, se[i], pe[i])
		}
	}
	for i := range serial.Results {
		if serial.Results[i].Obligation.ID() != parallel.Results[i].Obligation.ID() {
			t.Fatalf("result %d out of order: %s vs %s",
				i, serial.Results[i].Obligation.ID(), parallel.Results[i].Obligation.ID())
		}
	}
	if s, p := serial.Summary(), parallel.Summary(); s != p {
		t.Fatalf("summaries differ across job counts:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestParallelStress hammers the pool with every job count under the
// race detector lane: all obligations complete exactly once and the
// progress callback is serialized.
func TestParallelStress(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 8, 16} {
		g := stressRegistry(80)
		var inProgress, calls int32
		rep := g.Run(Options{Seed: int64(jobs), Jobs: jobs, Progress: func(r Result) {
			if atomic.AddInt32(&inProgress, 1) != 1 {
				t.Error("progress callback ran concurrently")
			}
			atomic.AddInt32(&calls, 1)
			atomic.AddInt32(&inProgress, -1)
		}})
		if len(rep.Results) != 80 || calls != 80 {
			t.Fatalf("jobs=%d: %d results, %d progress calls", jobs, len(rep.Results), calls)
		}
		for i, r := range rep.Results {
			if r.Obligation.ID() == "" || (i > 0 && rep.Results[i-1].Obligation.ID() >= r.Obligation.ID()) {
				t.Fatalf("jobs=%d: results not in strict ID order at %d", jobs, i)
			}
		}
	}
}

// TestPoolOverlapsBlockedVCs pins the wall-clock property: obligations
// that block (here: sleep) overlap on the pool, so the run completes in
// roughly max-duration rather than sum-of-durations. Sleeping keeps the
// test meaningful on single-CPU machines where CPU-bound VCs cannot
// physically speed up.
func TestPoolOverlapsBlockedVCs(t *testing.T) {
	g := &Registry{}
	const n, nap = 8, 60 * time.Millisecond
	for i := 0; i < n; i++ {
		g.Register(Obligation{Module: "m", Name: fmt.Sprintf("sleep%d", i), Kind: KindSafety,
			Check: func(r *rand.Rand) error { time.Sleep(nap); return nil }})
	}
	rep := g.Run(Options{Jobs: n})
	if rep.Total >= n*nap/2 {
		t.Fatalf("pool did not overlap: %d sleeping VCs of %v took %v", n, nap, rep.Total)
	}
	if sp := rep.Speedup(); sp < 2 {
		t.Fatalf("speedup = %.2fx, want >= 2x for fully overlapping VCs", sp)
	}
}

// TestSkipHook checks the Options.Skip hook: skipped VCs are recorded as
// Skipped (not passed, not failed, excluded from the CDF) and their
// checks never run.
func TestSkipHook(t *testing.T) {
	g := &Registry{}
	ran := map[string]bool{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		g.Register(Obligation{Module: "m", Name: name, Kind: KindSafety,
			Check: func(r *rand.Rand) error { ran[name] = true; return nil }})
	}
	rep := g.Run(Options{Jobs: 1, Skip: func(o Obligation) bool { return o.Name == "b" }})
	if ran["b"] {
		t.Fatal("skipped VC ran anyway")
	}
	if !ran["a"] || !ran["c"] {
		t.Fatal("unskipped VCs did not run")
	}
	if sk := rep.Skipped(); len(sk) != 1 || sk[0].Obligation.Name != "b" {
		t.Fatalf("Skipped() = %+v", sk)
	}
	if got := rep.ByModule()["m"]; got != (ModuleTally{Passed: 2, Skipped: 1}) {
		t.Fatalf("tally = %+v", got)
	}
	if pts := rep.CDF(); len(pts) != 2 {
		t.Fatalf("CDF counts skipped VCs: %d points", len(pts))
	}
}

// TestBudgetHook checks the fuzz-budget plumbing: Budget is preferred
// over Check, receives the clamped budget, and <1 clamps to 1.
func TestBudgetHook(t *testing.T) {
	var got []int
	checkRan := false
	g := &Registry{}
	g.Register(Obligation{Module: "m", Name: "budgeted", Kind: KindSafety,
		Check:  func(r *rand.Rand) error { checkRan = true; return nil },
		Budget: func(r *rand.Rand, budget int) error { got = append(got, budget); return nil }})
	g.Run(Options{FuzzBudget: 5})
	g.Run(Options{FuzzBudget: 0})
	g.Run(Options{FuzzBudget: -3})
	if checkRan {
		t.Fatal("Check ran despite a Budget hook")
	}
	if len(got) != 3 || got[0] != 5 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("budgets = %v, want [5 1 1]", got)
	}
}

// TestEmptyReportSafe pins the empty-report paths: CDF, Summary, Max,
// Speedup and the ledger must all handle zero results (e.g. a module
// filter matching nothing).
func TestEmptyReportSafe(t *testing.T) {
	g := &Registry{}
	g.Register(okObl("m", "x", KindSafety))
	rep := g.Run(Options{Module: "does-not-exist"})
	if len(rep.CDF()) != 0 {
		t.Fatal("CDF non-empty for empty report")
	}
	if rep.Max() != 0 || rep.SerialTime() != 0 {
		t.Fatal("Max/SerialTime non-zero for empty report")
	}
	_ = rep.Speedup()
	if s := rep.Summary(); s == "" {
		t.Fatal("empty summary")
	}
	l := rep.Ledger(1, 1)
	if l.VCs != 0 || len(l.Entries) != 0 {
		t.Fatalf("ledger = %+v", l)
	}
}

// TestLedgerShape checks the BENCH_verify.json rows carry the fields CI
// tracks and are sorted by descending duration.
func TestLedgerShape(t *testing.T) {
	g := stressRegistry(20)
	rep := g.Run(Options{Seed: 9, Jobs: 4, Skip: func(o Obligation) bool { return o.Name == "vc000" }})
	l := rep.Ledger(9, 3)
	if l.Seed != 9 || l.FuzzBudget != 3 || l.Jobs != 4 || l.VCs != 20 {
		t.Fatalf("header = %+v", l)
	}
	if l.Passed+l.Failed+l.Skipped != 20 || l.Skipped != 1 {
		t.Fatalf("tallies = %d/%d/%d", l.Passed, l.Failed, l.Skipped)
	}
	for i, e := range l.Entries {
		if e.ID == "" || e.Kind == "" {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
		if i > 0 && e.DurationNs > l.Entries[i-1].DurationNs {
			t.Fatalf("entries not sorted by descending duration at %d", i)
		}
		if e.Pass && e.Err != "" {
			t.Fatalf("entry %d passed with an error: %+v", i, e)
		}
	}
	raw, err := rep.LedgerJSON(9, 3)
	if err != nil || len(raw) == 0 {
		t.Fatalf("LedgerJSON: %v", err)
	}
}
