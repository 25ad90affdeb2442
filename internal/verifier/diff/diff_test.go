package diff

import (
	"strings"
	"testing"
)

// TestGenerateDeterministic pins the property a failing differential
// trace depends on: the trace is reproducible from its seed alone.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42, 50), Generate(42, 50)
	if err := DiffLines("a", renderOps(a.Ops), "b", renderOps(b.Ops)); err != nil {
		t.Fatalf("same seed generated different traces: %v", err)
	}
	c := Generate(43, 50)
	if DiffLines("a", renderOps(a.Ops), "c", renderOps(c.Ops)) == nil {
		t.Fatal("distinct seeds generated identical traces")
	}
}

// TestOneTraceDifferential runs the full kernel matrix (every shape of
// shapes, each crash-recovered) on a handful of fixed seeds.
func TestOneTraceDifferential(t *testing.T) {
	seeds := []int64{7919, 39595}
	for seed := int64(1); seed <= 24; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		if err := oneTraceDifferential(seed, 40); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDiffLinesDetects exercises the differ on every divergence shape:
// changed line, extra tail, missing tail, equal inputs.
func TestDiffLinesDetects(t *testing.T) {
	base := []string{"x", "y", "z"}
	if err := DiffLines("a", base, "b", []string{"x", "y", "z"}); err != nil {
		t.Fatalf("equal inputs diffed: %v", err)
	}
	cases := [][]string{
		{"x", "Y", "z"},      // changed line
		{"x", "y", "z", "w"}, // extra tail
		{"x", "y"},           // missing tail
	}
	for i, c := range cases {
		err := DiffLines("a", base, "b", c)
		if err == nil {
			t.Fatalf("case %d: divergence missed", i)
		}
		if !strings.Contains(err.Error(), "diverge") {
			t.Fatalf("case %d: unhelpful divergence report: %v", i, err)
		}
	}
}

// TestReplayCapturesState checks the replayer produces a non-trivial
// observation log, state capture and recovered file state on a
// co-located kernel.
func TestReplayCapturesState(t *testing.T) {
	rep, err := Observe(0, Generate(7, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Log) == 0 || len(rep.State) == 0 || len(rep.Recovered) == 0 {
		t.Fatalf("empty observations: %d log, %d state, %d recovered lines",
			len(rep.Log), len(rep.State), len(rep.Recovered))
	}
}
