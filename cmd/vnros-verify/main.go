// Command vnros-verify runs the full verification-condition suite (the
// repository's analog of the paper's "total time to verify our code"),
// printing the per-module ledger, the Figure 1a CDF, and the §5
// proof-to-code ratio report.
//
// The suite discharges on a worker pool (-j, default GOMAXPROCS); per-VC
// seeds depend only on -seed and the VC's ID, so the ledger is
// byte-identical at every job count. Every run discharges every VC it
// selects; -fuzzbudget scales the sweep VCs' iteration and trace counts;
// -json writes the machine-readable timing ledger, the only file a run
// writes.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/verifier"
	"github.com/verified-os/vnros/internal/verifier/loc"
)

func main() {
	seed := flag.Int64("seed", 2026, "seed for randomized verification conditions")
	module := flag.String("module", "", "restrict to one module (e.g. pt, fs)")
	jobs := flag.Int("j", 0, "worker count; 0 means GOMAXPROCS")
	fuzzBudget := flag.Int("fuzzbudget", 1, "iteration/trace multiplier for sweep VCs (clamped to >= 1)")
	jsonOut := flag.Bool("json", false, "write the per-VC timing ledger as JSON")
	jsonFile := flag.String("jsonfile", "BENCH_verify.json", "path for the -json ledger")
	cdf := flag.Bool("cdf", true, "print the Figure 1a CDF")
	ratio := flag.Bool("ratio", true, "print the proof-to-code ratio report")
	verbose := flag.Bool("v", false, "print each VC as it completes")
	timing := flag.Bool("timing", false, "print per-VC durations sorted descending")
	flag.Parse()

	g := vnros.NewVCRegistry()
	modules := g.Modules()
	if *module != "" && !contains(modules, *module) {
		fmt.Fprintf(os.Stderr, "vnros-verify: no such module %q (have: %s)\n",
			*module, strings.Join(modules, ", "))
		os.Exit(2)
	}

	opts := verifier.Options{Seed: *seed, Module: *module, Jobs: *jobs, FuzzBudget: *fuzzBudget}
	if *verbose {
		opts.Progress = func(r verifier.Result) {
			status := "ok"
			if r.Err != nil {
				status = "FAIL: " + r.Err.Error()
			}
			fmt.Printf("  [%-15s] %-45s %10v %s\n",
				r.Obligation.Kind, r.Obligation.ID(), r.Duration.Round(1000), status)
		}
	}

	rep := g.Run(opts)

	fmt.Print(rep.Summary())
	fmt.Print(renderFooter(rep))

	if *jsonOut {
		raw, err := rep.LedgerJSON(*seed, clampBudget(*fuzzBudget))
		if err != nil {
			fmt.Fprintln(os.Stderr, "vnros-verify: ledger:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonFile, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vnros-verify: ledger:", err)
			os.Exit(1)
		}
		fmt.Printf("timing ledger written to %s\n", *jsonFile)
	}

	if failed := rep.Failed(); len(failed) > 0 {
		fmt.Println("\nFAILED verification conditions:")
		for _, f := range failed {
			fmt.Printf("  %s: %v\n", f.Obligation.ID(), f.Err)
		}
		os.Exit(1)
	}

	if *timing {
		fmt.Println()
		fmt.Print(renderTiming(rep))
	}
	if *cdf {
		fmt.Println()
		fmt.Print(renderCDF(rep))
	}
	if *ratio {
		fmt.Println()
		st, err := loc.Count(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vnros-verify: loc:", err)
			os.Exit(1)
		}
		fmt.Println("Proof-to-code accounting (paper §5):")
		fmt.Print(loc.Render(st))
	}
}

func clampBudget(b int) int {
	if b < 1 {
		return 1
	}
	return b
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// renderFooter prints the run's wall-clock numbers. These live outside
// Summary so the summary stays byte-identical across job counts.
func renderFooter(rep *verifier.Report) string {
	return fmt.Sprintf("total time %v   max single VC %v   jobs: %d   speedup vs serial: %.2fx\n",
		rep.Total.Round(1000), rep.Max().Round(1000), rep.Jobs, rep.Speedup())
}

// renderTiming lists every VC by wall-clock cost, most expensive first —
// the working set for deciding which sweeps to parallelize or trim as
// the suite grows (ROADMAP, "scale the verifier").
func renderTiming(rep *verifier.Report) string {
	results := append([]verifier.Result(nil), rep.Results...)
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].Duration > results[j].Duration
	})
	out := "Per-VC wall-clock durations (descending):\n"
	for _, r := range results {
		out += fmt.Sprintf("  %10v  %-15s %s\n",
			r.Duration.Round(1000), r.Obligation.Kind, r.Obligation.ID())
	}
	return out
}

func renderCDF(rep *verifier.Report) string {
	out := "Figure 1a: CDF of verification condition times\n"
	cdf := rep.CDF()
	if len(cdf) == 0 {
		return out + "  (no verification conditions ran)\n"
	}
	step := len(cdf) / 20
	if step == 0 {
		step = 1
	}
	out += fmt.Sprintf("%14s %10s\n", "time", "fraction")
	for i := 0; i < len(cdf); i += step {
		out += fmt.Sprintf("%14v %10.3f\n", cdf[i].Duration.Round(1000), cdf[i].Fraction)
	}
	last := cdf[len(cdf)-1]
	out += fmt.Sprintf("%14v %10.3f\n", last.Duration.Round(1000), last.Fraction)
	return out
}
