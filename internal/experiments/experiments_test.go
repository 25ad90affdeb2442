package experiments

import (
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/pt"
)

func TestMapLatencySmall(t *testing.T) {
	p, err := MapLatency(pt.VariantVerified, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.OpsDone != 100 || p.Mean <= 0 {
		t.Fatalf("point = %+v", p)
	}
}

func TestUnmapLatencySmall(t *testing.T) {
	p, err := UnmapLatency(pt.VariantUnverified, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.OpsDone != 100 || p.Mean <= 0 {
		t.Fatalf("point = %+v", p)
	}
}

func TestSeriesRender(t *testing.T) {
	s, err := Fig1b([]int{1, 2}, 30)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Render()
	for _, want := range []string{"Figure 1b", "# Cores", "NrOS Unverified", "NrOS Verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(s.Verified) != 2 || len(s.Unverified) != 2 {
		t.Fatalf("series sizes wrong")
	}
}

func TestAblationNRvsMutex(t *testing.T) {
	nrMean, muMean, err := AblationNRvsMutex(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if nrMean <= 0 || muMean <= 0 {
		t.Fatalf("means = %v, %v", nrMean, muMean)
	}
}

// The ablation's claim in counts, not wall-clock: the default TLB misses
// once per page of the stride and hits ever after; a 1-entry TLB is
// evicted before any page comes round again and never hits.
func TestAblationTLB(t *testing.T) {
	const translations = 2000
	_, warmHits, err := tlbRun(mmu.DefaultTLBSize, translations)
	if err != nil {
		t.Fatal(err)
	}
	if warmHits < translations-tlbStridePages {
		t.Errorf("warm TLB: %d hits in %d translations over %d pages", warmHits, translations, tlbStridePages)
	}
	_, coldHits, err := tlbRun(1, translations)
	if err != nil {
		t.Fatal(err)
	}
	if coldHits != 0 {
		t.Errorf("1-entry TLB: %d hits on a %d-page stride", coldHits, tlbStridePages)
	}
}

func TestAblationSharding(t *testing.T) {
	single, sharded, err := AblationSharding(2, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	if single <= 0 || sharded <= 0 {
		t.Fatalf("throughputs = %f, %f", single, sharded)
	}
}

func TestAblationGhostChecks(t *testing.T) {
	off, on, err := AblationGhostChecks(200)
	if err != nil {
		t.Fatal(err)
	}
	if on < off {
		t.Logf("ghost-on (%v) unexpectedly faster than off (%v); noisy box", on, off)
	}
	if off <= 0 || on <= 0 {
		t.Fatal("non-positive latencies")
	}
}

func TestAblationReadScaling(t *testing.T) {
	one, two, err := AblationReadScaling(2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if one <= 0 || two <= 0 {
		t.Fatalf("throughputs = %f, %f", one, two)
	}
}

func TestRenderAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	out, err := RenderAblations()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1.", "2.", "3.", "4.", "5."} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations output missing %q:\n%s", want, out)
		}
	}
}
