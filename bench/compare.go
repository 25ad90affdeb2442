package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// gate is one end-to-end metric's regression rule: which direction is
// better and the share of the base value by which the new value may be
// worse before it counts. The same bounds are in BENCHMARK.json.
type gate struct {
	name         string
	higherBetter bool
	bound        float64
	// slack is an absolute allowance for values so small that a share of
	// them is below timer noise (set-up times of a few dozen microseconds).
	slack float64
}

var gates = []gate{
	{name: "setup_s", bound: 0.25, slack: 0.05},
	{name: "ops_per_s", higherBetter: true, bound: 0.25},
	{name: "lat_p50_us", bound: 0.25},
	{name: "lat_p99_us", bound: 0.25},
	{name: "allocs_per_op", bound: 0.10},
	{name: "alloc_bytes_per_op", bound: 0.05},
	{name: "recovery_ms", bound: 0.25},
}

// minRunsForSpread is how many runs a side needs before its spread is
// taken across the runs; with fewer, the spread each run recorded over
// its own slices stands in.
const minRunsForSpread = 4

// compareFiles prints, per workload and end-to-end metric, the base
// value, the new value, their ratio and a verdict, and returns the
// process exit code: 1 if anything is worse or any fail_ratio rose.
func compareFiles(w io.Writer, basePaths, newPaths []string) int {
	base, err := loadResults(basePaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := loadResults(newPaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "verdict")
	worse := 0
	for _, wl := range workloads {
		a, b := base[wl.name], cur[wl.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, g := range gates {
			av, as := series(a, g.name)
			bv, bs := series(b, g.name)
			if len(av) == 0 || len(bv) == 0 {
				continue // null on this workload
			}
			spread := max(as, bs)
			if wl.unsteady != "" && min(len(av), len(bv)) < minRunsForSpread {
				spread = math.Inf(1) // a few runs of it resolve nothing: see workload.unsteady
			}
			v := judge(g, av, bv, spread)
			if v == "worse" {
				worse++
			}
			am, bm := median(av), median(bv)
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %8.3f  %s\n", wl.name, g.name, am, bm, bm/am, v)
		}
		af, _ := series(a, "fail_ratio")
		bf, _ := series(b, "fail_ratio")
		if len(af) > 0 && len(bf) > 0 {
			v := "same"
			if bf[len(bf)-1] > af[len(af)-1] { // any run failing more than the worst base run
				v = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6f %14.6f %8s  %s\n", wl.name, "fail_ratio", af[len(af)-1], bf[len(bf)-1], "", v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d worse\n", worse)
		return 1
	}
	return 0
}

// judge applies the rule of the choosing-metrics guide: beyond the
// bound is a change; where the spread is wider than the bound the
// metric is unresolved, unless every new run beats every base run (and
// each side has enough runs for that to mean something). av and bv are
// sorted.
func judge(g gate, av, bv []float64, spread float64) string {
	am, bm := median(av), median(bv)
	allowance := max(g.bound*am, g.slack)
	delta := bm - am // positive: new is larger
	if g.higherBetter {
		delta = -delta
	} // positive: new is worse
	if delta <= allowance && delta >= -allowance {
		return "same"
	}
	if spread > g.bound {
		apart := bv[len(bv)-1] < av[0]
		if g.higherBetter {
			apart = bv[0] > av[len(av)-1]
		}
		if apart && min(len(av), len(bv)) >= minRunsForSpread {
			return "better"
		}
		return "unresolved"
	}
	if delta > allowance {
		return "worse"
	}
	return "better"
}

// loadResults reads result files and groups their workload results by
// workload name, one entry per run.
func loadResults(paths []string) (map[string][]workloadResult, error) {
	out := make(map[string][]workloadResult)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Schema != 1 {
			return nil, fmt.Errorf("%s: schema %d, want 1", p, f.Schema)
		}
		for _, w := range f.Workloads {
			out[w.Name] = append(out[w.Name], w)
		}
	}
	return out, nil
}

// series returns one end-to-end metric's values over the runs, sorted,
// and the spread to judge them by.
func series(runs []workloadResult, name string) ([]float64, float64) {
	var vs []float64
	var within float64
	for _, r := range runs {
		m := r.EndToEnd[name]
		if m.Value == nil {
			continue
		}
		vs = append(vs, *m.Value)
		within = max(within, m.Spread)
	}
	sort.Float64s(vs)
	if len(vs) < minRunsForSpread {
		return vs, within
	}
	q1, q3 := quartiles(vs)
	if med := median(vs); med > 0 {
		return vs, (q3 - q1) / med
	}
	return vs, 0
}
