// Package experiments regenerates every table and figure from the
// paper's evaluation (§5), plus the ablations DESIGN.md calls out.
// cmd/vnros-bench prints them; everything this repository measures
// beyond the paper's artifacts lives in bench/.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/pt"
	"github.com/verified-os/vnros/internal/verifier"
)

// PaperCores is the core counts of Figures 1b/1c (the authors' 2×14
// testbed).
var PaperCores = []int{1, 8, 16, 24, 28}

// CoresPerNode mirrors the testbed topology for replica derivation.
const CoresPerNode = 14

// LatencyPoint is one x,y of Figures 1b/1c.
type LatencyPoint struct {
	Cores   int
	Mean    time.Duration // mean per-operation latency
	OpsDone uint64
}

// MapLatency measures Figure 1b: each of n "cores" (goroutine threads
// pinned to NR replicas, one replica per 14 cores) repeatedly maps
// fresh 4 KiB frames into the shared, NR-replicated address space; the
// mean map syscall latency is reported.
func MapLatency(variant pt.Variant, cores int, opsPerCore int) (LatencyPoint, error) {
	ras, err := pt.NewReplicated(pt.ReplicatedOptions{
		Variant:       variant,
		Replicas:      1 + (cores-1)/CoresPerNode,
		MemPerReplica: 512 << 20,
	})
	if err != nil {
		return LatencyPoint{}, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, cores)
	start := make(chan struct{})
	elapsed := make([]time.Duration, cores)
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, err := ras.Register((c / CoresPerNode) % ras.NR.NumReplicas())
			if err != nil {
				errs <- err
				return
			}
			// Worker-private VA region; frames in a shared window (the
			// paper maps the same frame repeatedly — physical reuse is
			// fine, the page table does not dedupe).
			base := mmu.VAddr(0x0000_0100_0000_0000 + uint64(c)<<32)
			frame := mem.PAddr(0x200_0000)
			<-start
			t0 := time.Now()
			for i := 0; i < opsPerCore; i++ {
				va := base + mmu.VAddr(uint64(i)*mmu.L1PageSize)
				resp := ctx.Execute(pt.ASWrite{Kind: "map", VA: va, Frame: frame,
					Size: mmu.L1PageSize, Flags: mmu.Flags{Writable: true, User: true}})
				if resp.Outcome != pt.OutcomeOK {
					errs <- fmt.Errorf("map failed on core %d op %d: %s", c, i, resp.Outcome)
					return
				}
			}
			elapsed[c] = time.Since(t0)
			errs <- nil
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 0; c < cores; c++ {
		if err := <-errs; err != nil {
			return LatencyPoint{}, err
		}
	}
	var total time.Duration
	for _, e := range elapsed {
		total += e
	}
	ops := uint64(cores * opsPerCore)
	return LatencyPoint{Cores: cores, Mean: total / time.Duration(ops), OpsDone: ops}, nil
}

// UnmapLatency measures Figure 1c: each core pre-maps a window of
// frames, then the timed phase repeatedly unmaps (and remaps, untimed
// bookkeeping folded in as in the paper's "map frames and unmap a
// frame" loop) — reported is the mean unmap syscall latency.
func UnmapLatency(variant pt.Variant, cores int, opsPerCore int) (LatencyPoint, error) {
	ras, err := pt.NewReplicated(pt.ReplicatedOptions{
		Variant:       variant,
		Replicas:      1 + (cores-1)/CoresPerNode,
		MemPerReplica: 512 << 20,
	})
	if err != nil {
		return LatencyPoint{}, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, cores)
	start := make(chan struct{})
	elapsed := make([]time.Duration, cores)
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, err := ras.Register((c / CoresPerNode) % ras.NR.NumReplicas())
			if err != nil {
				errs <- err
				return
			}
			base := mmu.VAddr(0x0000_0200_0000_0000 + uint64(c)<<32)
			frame := mem.PAddr(0x200_0000)
			mapOne := func(i int) error {
				va := base + mmu.VAddr(uint64(i)*mmu.L1PageSize)
				resp := ctx.Execute(pt.ASWrite{Kind: "map", VA: va, Frame: frame,
					Size: mmu.L1PageSize, Flags: mmu.Flags{Writable: true}})
				if resp.Outcome != pt.OutcomeOK {
					return fmt.Errorf("pre-map: %s", resp.Outcome)
				}
				return nil
			}
			// Pre-map the working window.
			const window = 64
			for i := 0; i < window; i++ {
				if err := mapOne(i); err != nil {
					errs <- err
					return
				}
			}
			<-start
			var timed time.Duration
			for i := 0; i < opsPerCore; i++ {
				va := base + mmu.VAddr(uint64(i%window)*mmu.L1PageSize)
				t0 := time.Now()
				resp := ctx.Execute(pt.ASWrite{Kind: "unmap", VA: va})
				timed += time.Since(t0)
				if resp.Outcome != pt.OutcomeOK {
					errs <- fmt.Errorf("unmap failed on core %d op %d: %s", c, i, resp.Outcome)
					return
				}
				// Remap outside the timed section to keep the window full.
				if err := mapOne(i % window); err != nil {
					errs <- err
					return
				}
			}
			elapsed[c] = timed
			errs <- nil
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 0; c < cores; c++ {
		if err := <-errs; err != nil {
			return LatencyPoint{}, err
		}
	}
	var total time.Duration
	for _, e := range elapsed {
		total += e
	}
	ops := uint64(cores * opsPerCore)
	return LatencyPoint{Cores: cores, Mean: total / time.Duration(ops), OpsDone: ops}, nil
}

// Series runs one figure's sweep for both variants.
type Series struct {
	Title      string
	Cores      []int
	Verified   []LatencyPoint
	Unverified []LatencyPoint
}

// Fig1b produces the map-latency series.
func Fig1b(cores []int, opsPerCore int) (Series, error) {
	return runSeries("Figure 1b: Map Latency", cores, opsPerCore, MapLatency)
}

// Fig1c produces the unmap-latency series.
func Fig1c(cores []int, opsPerCore int) (Series, error) {
	return runSeries("Figure 1c: Unmap Latency", cores, opsPerCore, UnmapLatency)
}

func runSeries(title string, cores []int, ops int,
	f func(pt.Variant, int, int) (LatencyPoint, error)) (Series, error) {
	s := Series{Title: title, Cores: cores}
	for _, c := range cores {
		pu, err := f(pt.VariantUnverified, c, ops)
		if err != nil {
			return s, err
		}
		pv, err := f(pt.VariantVerified, c, ops)
		if err != nil {
			return s, err
		}
		s.Unverified = append(s.Unverified, pu)
		s.Verified = append(s.Verified, pv)
	}
	return s, nil
}

// Render prints a series in the paper's row form.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%8s %22s %22s %8s\n", "# Cores", "NrOS Unverified", "NrOS Verified", "V/U")
	for i := range s.Cores {
		u, v := s.Unverified[i], s.Verified[i]
		ratio := float64(v.Mean) / float64(u.Mean)
		fmt.Fprintf(&b, "%8d %20.2fus %20.2fus %8.2f\n",
			s.Cores[i],
			float64(u.Mean.Nanoseconds())/1000,
			float64(v.Mean.Nanoseconds())/1000,
			ratio)
	}
	return b.String()
}

// Fig1a runs the full VC suite and returns the report whose CDF is the
// figure.
func Fig1a(register func(*verifier.Registry), seed int64) *verifier.Report {
	g := &verifier.Registry{}
	register(g)
	return g.Run(verifier.Options{Seed: seed})
}

// RenderCDF prints the Figure 1a series: cumulative fraction of VCs
// verified within each duration.
func RenderCDF(rep *verifier.Report) string {
	var b strings.Builder
	b.WriteString("Figure 1a: CDF of verification condition times\n")
	fmt.Fprintf(&b, "verification conditions: %d, total: %v, max: %v\n",
		len(rep.Results), rep.Total.Round(time.Millisecond), rep.Max().Round(time.Microsecond))
	fmt.Fprintf(&b, "%14s %10s\n", "time", "fraction")
	cdf := rep.CDF()
	if len(cdf) == 0 {
		b.WriteString("  (no verification conditions ran)\n")
		return b.String()
	}
	// Print ~20 evenly spaced points plus the max.
	step := len(cdf) / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(cdf); i += step {
		fmt.Fprintf(&b, "%14v %10.3f\n", cdf[i].Duration.Round(time.Microsecond), cdf[i].Fraction)
	}
	last := cdf[len(cdf)-1]
	fmt.Fprintf(&b, "%14v %10.3f\n", last.Duration.Round(time.Microsecond), last.Fraction)
	return b.String()
}
