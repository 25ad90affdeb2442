// Package verifier is the verification-condition engine: the repo's
// executable stand-in for the Verus/SMT pipeline of the paper.
//
// Every module registers named obligations — invariant preservation,
// refinement simulations, serialization round-trip lemmas,
// linearizability of NR histories — and the runner discharges each one,
// individually timed. The per-VC timing distribution regenerates
// Figure 1a; the pass/fail ledger is what this repository means by
// "verified".
//
// Obligations must be deterministic: randomized checks derive their
// randomness from the obligation's seeded source so that a failure
// reproduces. The seed of each VC depends only on Options.Seed and the
// VC's ID — never on execution order — which is what makes the worker
// pool sound: a parallel run (Options.Jobs > 1) discharges the same
// obligations with the same randomness as a serial run, and the report
// collects results in ID order, so the pass/fail ledger is identical at
// every job count.
package verifier

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies an obligation, mirroring the proof categories in the
// paper's methodology (§4.3–§4.4, §5).
type Kind string

// Obligation kinds.
const (
	KindInvariant       Kind = "invariant"       // state invariant preservation
	KindRefinement      Kind = "refinement"      // impl ⊑ spec simulation
	KindRoundTrip       Kind = "round-trip"      // marshalling lemmas (§3)
	KindLinearizability Kind = "linearizability" // NR histories (§4.3)
	KindModelCheck      Kind = "model-check"     // explicit-state exploration
	KindSafety          Kind = "safety"          // memory-safety / bounds probes
	KindDifferential    Kind = "differential"    // randomized trace diffed across kernels
)

// Obligation is one verification condition.
type Obligation struct {
	// Module is the subsystem the VC belongs to, e.g. "pt" or "fs".
	Module string
	// Name identifies the VC within the module, e.g. "map-refines-spec".
	Name string
	Kind Kind
	// Check discharges the VC. It receives a deterministically seeded
	// random source for randomized lemmas.
	Check func(r *rand.Rand) error
	// Budget, if non-nil, is the budgeted form of the VC and is used
	// instead of Check: it additionally receives the run's fuzz budget
	// (Options.FuzzBudget clamped to >= 1) and scales its iteration or
	// trace counts linearly with it. The expensive sweep VCs (crash-point
	// sweeps, interleaving sweeps, differential traces) register through
	// this hook so `vnros-verify -fuzzbudget N` buys proportionally more
	// coverage. An obligation may set Budget without Check.
	Budget func(r *rand.Rand, budget int) error
}

// ID returns the fully qualified VC name.
func (o Obligation) ID() string { return o.Module + ":" + o.Name }

// Registry collects obligations from all modules. The zero value is
// ready to use.
type Registry struct {
	mu   sync.Mutex
	obls []Obligation
	// ids[i] is obls[i].ID(), computed once at registration.
	ids  []string
	seen map[string]bool
}

// Register adds obligations, panicking on duplicate IDs (a duplicate is
// a programming error in module wiring, caught at init/test time).
func (g *Registry) Register(obls ...Obligation) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen == nil {
		g.seen = make(map[string]bool)
	}
	for _, o := range obls {
		id := o.ID()
		if o.Check == nil && o.Budget == nil {
			panic("verifier: obligation " + id + " has nil Check and nil Budget")
		}
		if g.seen[id] {
			panic("verifier: duplicate obligation " + id)
		}
		g.seen[id] = true
		g.obls = append(g.obls, o)
		g.ids = append(g.ids, id)
	}
}

// Obligations returns the registered obligations sorted by ID. The sort
// compares the IDs computed at registration, so it builds no string.
func (g *Registry) Obligations() []Obligation {
	g.mu.Lock()
	defer g.mu.Unlock()
	order := make([]int, len(g.obls))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.ids[order[i]] < g.ids[order[j]] })
	out := make([]Obligation, len(order))
	for i, k := range order {
		out[i] = g.obls[k]
	}
	return out
}

// Len returns the number of registered obligations.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.obls)
}

// Modules returns the sorted set of modules with registered obligations.
func (g *Registry) Modules() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := make(map[string]bool)
	for _, o := range g.obls {
		set[o.Module] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Result is the outcome of discharging one obligation.
type Result struct {
	Obligation Obligation
	Duration   time.Duration
	Err        error
	// Skipped marks a VC elided by the incremental cache (Options.Skip):
	// its module's inputs are unchanged since the last green run. A
	// skipped VC is neither passed nor failed.
	Skipped bool
}

// Report is the outcome of a full verification run — the data behind
// Figure 1a and the §5 "total time to verify" numbers. Results are in
// obligation-ID order regardless of the job count or completion order.
type Report struct {
	Results []Result
	// Total is the wall-clock time of the run.
	Total time.Duration
	// Jobs is the worker count the run used.
	Jobs int
}

// Failed returns the failed results.
func (r *Report) Failed() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.Err != nil {
			out = append(out, res)
		}
	}
	return out
}

// Skipped returns the results elided by the incremental cache.
func (r *Report) Skipped() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.Skipped {
			out = append(out, res)
		}
	}
	return out
}

// Max returns the slowest VC duration (the paper: "all functions are
// individually verified in at most 11 seconds").
func (r *Report) Max() time.Duration {
	var m time.Duration
	for _, res := range r.Results {
		if res.Duration > m {
			m = res.Duration
		}
	}
	return m
}

// SerialTime is the sum of the individual VC durations — what the run
// would have cost at Jobs=1 (modulo scheduling noise). The run footer's
// "speedup vs serial" is SerialTime over Total.
func (r *Report) SerialTime() time.Duration {
	var s time.Duration
	for _, res := range r.Results {
		s += res.Duration
	}
	return s
}

// Speedup is the parallel speedup over a serial discharge of the same
// obligations: SerialTime / Total. 0 when nothing ran.
func (r *Report) Speedup() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.SerialTime()) / float64(r.Total)
}

// CDFPoint is one point of the verification-time CDF.
type CDFPoint struct {
	Duration time.Duration
	Fraction float64 // cumulative fraction of VCs at or below Duration
}

// CDF returns the cumulative distribution of VC times, the series
// plotted in Figure 1a. Skipped VCs are excluded — their zero durations
// are cache hits, not verification times. Empty when no VC ran.
func (r *Report) CDF() []CDFPoint {
	ds := make([]time.Duration, 0, len(r.Results))
	for _, res := range r.Results {
		if res.Skipped {
			continue
		}
		ds = append(ds, res.Duration)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	out := make([]CDFPoint, len(ds))
	for i, d := range ds {
		out[i] = CDFPoint{Duration: d, Fraction: float64(i+1) / float64(len(ds))}
	}
	return out
}

// ModuleTally is one module's row of the summary ledger.
type ModuleTally struct{ Passed, Failed, Skipped int }

// ByModule groups result counts per module for the summary table.
func (r *Report) ByModule() map[string]ModuleTally {
	out := make(map[string]ModuleTally)
	for _, res := range r.Results {
		e := out[res.Obligation.Module]
		switch {
		case res.Skipped:
			e.Skipped++
		case res.Err != nil:
			e.Failed++
		default:
			e.Passed++
		}
		out[res.Obligation.Module] = e
	}
	return out
}

// Options configures a verification run.
type Options struct {
	// Seed is the base seed for randomized obligations. Each VC derives
	// its own source from Seed and its ID so runs are order-independent.
	Seed int64
	// Module, if non-empty, restricts the run to one module.
	Module string
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	// Results are collected in ID order, so the report's ledger is
	// byte-identical at every job count.
	Jobs int
	// FuzzBudget scales the iteration/trace counts of obligations with a
	// Budget hook; values < 1 are clamped to 1 (the standard sweep).
	FuzzBudget int
	// Skip, if non-nil, elides obligations for which it returns true,
	// recording them as Skipped — the incremental cache's hook.
	Skip func(Obligation) bool
	// Progress, if non-nil, is called after each VC completes, in
	// completion order (serialized; never concurrently).
	Progress func(Result)
}

// Run discharges every registered obligation on Options.Jobs workers
// and returns the report. Each VC's randomness derives from
// (Seed, ID) only, so the results are independent of worker count and
// scheduling; Results are collected in ID order.
func (g *Registry) Run(opts Options) *Report {
	var obls []Obligation
	for _, o := range g.Obligations() {
		if opts.Module != "" && o.Module != opts.Module {
			continue
		}
		obls = append(obls, o)
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(obls) && len(obls) > 0 {
		jobs = len(obls)
	}
	budget := opts.FuzzBudget
	if budget < 1 {
		budget = 1
	}

	results := make([]Result, len(obls))
	start := time.Now()
	var progMu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				o := obls[i]
				if opts.Skip != nil && opts.Skip(o) {
					results[i] = Result{Obligation: o, Skipped: true}
				} else {
					src := rand.New(rand.NewSource(opts.Seed ^ int64(hashID(o.ID()))))
					t0 := time.Now()
					err := safeCheck(o, src, budget)
					results[i] = Result{Obligation: o, Duration: time.Since(t0), Err: err}
				}
				if opts.Progress != nil {
					progMu.Lock()
					opts.Progress(results[i])
					progMu.Unlock()
				}
			}
		}()
	}
	for i := range obls {
		idx <- i
	}
	close(idx)
	wg.Wait()

	return &Report{Results: results, Total: time.Since(start), Jobs: jobs}
}

// safeCheck converts a panicking obligation into a failure rather than
// tearing down the whole verification run.
func safeCheck(o Obligation, src *rand.Rand, budget int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("obligation panicked: %v", p)
		}
	}()
	if o.Budget != nil {
		return o.Budget(src, budget)
	}
	return o.Check(src)
}

// hashID is a small FNV-1a so VC seeds differ per obligation.
func hashID(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Summary renders the pass/fail/skipped ledger. It contains only
// deterministic fields (no wall-clock times), so a serial and a
// parallel run of the same registry and seed produce byte-identical
// summaries; timing belongs in the run footer (Total, Max, Speedup).
func (r *Report) Summary() string {
	var b strings.Builder
	byMod := r.ByModule()
	mods := make([]string, 0, len(byMod))
	for m := range byMod {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "module", "passed", "failed", "skipped")
	totP, totF, totS := 0, 0, 0
	for _, m := range mods {
		e := byMod[m]
		fmt.Fprintf(&b, "%-12s %8d %8d %8d\n", m, e.Passed, e.Failed, e.Skipped)
		totP += e.Passed
		totF += e.Failed
		totS += e.Skipped
	}
	fmt.Fprintf(&b, "%-12s %8d %8d %8d\n", "total", totP, totF, totS)
	fmt.Fprintf(&b, "verification conditions: %d   passed: %d   failed: %d   skipped: %d\n",
		len(r.Results), totP, totF, totS)
	return b.String()
}

// Default is the process-wide registry modules register into from their
// RegisterObligations functions.
var Default = &Registry{}
