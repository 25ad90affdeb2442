package relwork

import (
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/verifier"
)

// TestPublishedMatchesPaper spot-checks the transcription of Tables 1
// and 2 against the paper.
func TestPublishedMatchesPaper(t *testing.T) {
	byName := map[string]Project{}
	for _, p := range Published() {
		byName[p.Name] = p
	}
	if len(byName) != 5 {
		t.Fatalf("projects = %d", len(byName))
	}
	// Table 1 spot checks.
	if byName["seL4"].Table1["Multi-processor support"] != No {
		t.Error("seL4 multiprocessor should be ✗")
	}
	if byName["CertiKOS"].Table1["Security properties"] != Partial {
		t.Error("CertiKOS security should be (✓)")
	}
	if byName["CertiKOS"].Table1["Multi-processor support"] != Yes {
		t.Error("CertiKOS multiprocessor should be ✓")
	}
	for _, p := range Published() {
		if p.Table1["Process-centric spec"] != No {
			t.Errorf("%s process-centric spec should be ✗ (the paper's whole point)", p.Name)
		}
		if p.Table1["Kernel memory safety"] != Yes || p.Table1["Specification refinement"] != Yes {
			t.Errorf("%s first two rows should be ✓", p.Name)
		}
		// Table 2: network stack and system libraries are ✗ everywhere.
		if p.Table2["Network stack"] != No || p.Table2["System libraries"] != No {
			t.Errorf("%s network/syslib should be ✗", p.Name)
		}
		if p.Table2["Scheduler"] != Yes || p.Table2["Memory management"] != Yes {
			t.Errorf("%s scheduler/mm should be ✓", p.Name)
		}
	}
	// Table 2 spot checks.
	if byName["Hyperkernel"].Table2["Filesystem"] != Partial {
		t.Error("Hyperkernel filesystem should be (✓)")
	}
	if byName["Verve"].Table2["Complex drivers"] != Yes {
		t.Error("Verve drivers should be ✓")
	}
	if byName["seL4"].Table2["Threads and synchronization"] != No {
		t.Error("seL4 threads should be ✗")
	}
	if byName["CertiKOS"].Table2["Threads and synchronization"] != Yes {
		t.Error("CertiKOS threads should be ✓")
	}
}

func TestDerivedColumn(t *testing.T) {
	r := NewRegistry()
	r.AddComponent(Component{Table2Row: "Scheduler", Package: "internal/ulib", Checked: true})
	r.AddComponent(Component{Table2Row: "Network stack", Package: "internal/netstack", Checked: true})
	r.AddComponent(Component{Table2Row: "Complex drivers", Package: "internal/dev", Checked: false})
	r.SetTable1("Specification refinement", Yes)
	r.SetTable1("Security properties", Partial)

	p := r.Derive("vnros")
	if p.Table2["Scheduler"] != Yes {
		t.Error("checked component should derive ✓")
	}
	if p.Table2["Complex drivers"] != Partial {
		t.Error("unchecked component should derive (✓)")
	}
	if p.Table2["Filesystem"] != No {
		t.Error("unregistered component should derive ✗")
	}
	if p.Table1["Specification refinement"] != Yes || p.Table1["Security properties"] != Partial {
		t.Error("table1 claims not applied")
	}
	if p.Table1["Multi-processor support"] != No {
		t.Error("unclaimed table1 property should default to ✗")
	}
}

func TestCheckedDominatesPartial(t *testing.T) {
	r := NewRegistry()
	r.AddComponent(Component{Table2Row: "Filesystem", Package: "a", Checked: false})
	r.AddComponent(Component{Table2Row: "Filesystem", Package: "b", Checked: true})
	if r.Derive("x").Table2["Filesystem"] != Yes {
		t.Error("Yes should dominate Partial")
	}
}

func TestRenderIncludesAllColumns(t *testing.T) {
	r := NewRegistry()
	r.AddComponent(Component{Table2Row: "Scheduler", Package: "internal/ulib", Checked: true})
	self := r.Derive("vnros")
	t1 := RenderTable1(self)
	t2 := RenderTable2(self)
	for _, want := range []string{"seL4", "Verve", "Hyperkernel", "CertiKOS", "seKVM+VRM", "vnros"} {
		if !strings.Contains(t1, want) || !strings.Contains(t2, want) {
			t.Errorf("missing column %q", want)
		}
	}
	for _, row := range Table1Properties {
		if !strings.Contains(t1, row) {
			t.Errorf("table1 missing row %q", row)
		}
	}
	for _, row := range Table2Components {
		if !strings.Contains(t2, row) {
			t.Errorf("table2 missing row %q", row)
		}
	}
}

func TestComponentsSorted(t *testing.T) {
	r := NewRegistry()
	r.AddComponent(Component{Table2Row: "Z", Package: "z"})
	r.AddComponent(Component{Table2Row: "A", Package: "b"})
	r.AddComponent(Component{Table2Row: "A", Package: "a"})
	cs := r.Components()
	if cs[0].Package != "a" || cs[1].Package != "b" || cs[2].Table2Row != "Z" {
		t.Fatalf("order = %+v", cs)
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 109})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
