// Command vnros-bench regenerates Figures 1b/1c of the paper's
// evaluation (map/unmap latency vs cores, verified vs unverified) and
// the DESIGN.md ablations. Figure 1a is vnros-verify's CDF; Tables 1
// and 2 are `vnros -tables`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/verified-os/vnros/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1b or 1c")
	ablations := flag.Bool("ablations", false, "run the DESIGN.md ablations")
	all := flag.Bool("all", false, "run everything")
	ops := flag.Int("ops", 200, "operations per core for figures 1b/1c")
	cores := flag.String("cores", "1,8,16,24,28", "comma-separated core counts")
	flag.Parse()

	switch *fig {
	case "", "1b", "1c":
	default:
		fmt.Fprintf(os.Stderr, "vnros-bench: no figure %q: -fig takes 1b or 1c "+
			"(Figure 1a is `vnros-verify`; Tables 1-2 are `vnros -tables`)\n", *fig)
		os.Exit(2)
	}
	if *fig == "" && !*ablations {
		*all = true
	}
	coreCounts, err := parseCores(*cores)
	if err != nil {
		fatal(err)
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
