// Command vnros-bench regenerates the paper's evaluation artifacts:
// Figure 1a (VC time CDF), Figures 1b/1c (map/unmap latency vs cores,
// verified vs unverified), Tables 1 and 2 (with the derived vnros
// column), and the DESIGN.md ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/core"
	"github.com/verified-os/vnros/internal/experiments"
	"github.com/verified-os/vnros/internal/relwork"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1a, 1b, 1c (empty with -all unset: all)")
	table := flag.Int("table", 0, "table to print: 1 or 2")
	ablations := flag.Bool("ablations", false, "run the DESIGN.md ablations")
	all := flag.Bool("all", false, "run everything")
	ops := flag.Int("ops", 200, "operations per core for figures 1b/1c")
	cores := flag.String("cores", "1,8,16,24,28", "comma-separated core counts")
	seed := flag.Int64("seed", 2026, "VC seed for figure 1a")
	flag.Parse()

	if *fig == "" && *table == 0 && !*ablations {
		*all = true
	}
	coreCounts, err := parseCores(*cores)
	if err != nil {
		fatal(err)
	}

	if *all || *fig == "1a" {
		rep := experiments.Fig1a(core.RegisterAllObligations, *seed)
		fmt.Print(experiments.RenderCDF(rep))
		if len(rep.Failed()) > 0 {
			fatal(fmt.Errorf("%d verification conditions failed", len(rep.Failed())))
		}
		fmt.Println()
	}
	if *all || *fig == "1b" {
		s, err := experiments.Fig1b(coreCounts, *ops)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s.Render())
		fmt.Println()
	}
	if *all || *fig == "1c" {
		s, err := experiments.Fig1c(coreCounts, *ops)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s.Render())
		fmt.Println()
	}
	if *all || *table == 1 || *table == 2 {
		system, err := vnros.Boot(vnros.Config{Cores: 2})
		if err != nil {
			fatal(err)
		}
		self := system.Components.Derive("vnros")
		if *all || *table == 1 {
			fmt.Print(relwork.RenderTable1(self))
			fmt.Println()
		}
		if *all || *table == 2 {
			fmt.Print(relwork.RenderTable2(self))
			fmt.Println()
		}
	}
	if *all || *ablations {
		out, err := experiments.RenderAblations()
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vnros-bench:", err)
	os.Exit(1)
}
