package loc

import (
	"os"
	"path/filepath"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		rel  string
		want Category
	}{
		{"internal/pt/map.go", CategoryImpl},
		{"internal/pt/map_test.go", CategoryTest},
		{"internal/pt/pt_spec.go", CategoryProof},
		{"internal/pt/pt_refine.go", CategoryProof},
		{"internal/pt/pt_obligations.go", CategoryProof},
		{"internal/pt/pt_inv.go", CategoryProof},
		{filepath.Join("internal", "spec", "sm", "sm.go"), CategoryProof},
		{filepath.Join("internal", "verifier", "verifier.go"), CategoryProof},
		{filepath.Join("internal", "lin", "lin.go"), CategoryProof},
		{"cmd/vnros/main.go", CategoryImpl},
	}
	for _, c := range cases {
		if got := Classify(c.rel); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.rel, got, c.want)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		rel, want string
	}{
		{"internal/pt/map.go", "pt"},
		{"internal/hw/mmu/walk.go", "hw/mmu"},
		{"internal/spec/sm/sm.go", "spec/sm"},
		{"cmd/vnros/main.go", "cmd/vnros"},
		{"examples/quickstart/main.go", "examples/quickstart"},
		{"vnros.go", "root"},
	}
	for _, c := range cases {
		if got := moduleOf(c.rel); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.rel, got, c.want)
		}
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCountFileSkipsCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	src := `// Package x does things.
package x

/* block
   comment */
func F() int { // trailing comment
	s := "// not a comment"
	return len(s) /* inline */ + 1
}

/* another */ var G = 2
`
	writeFile(t, dir, "x.go", src)
	n, err := CountFile(filepath.Join(dir, "x.go"))
	if err != nil {
		t.Fatal(err)
	}
	// Code lines: package x, func F(), s := ..., return ..., }, var G = 2.
	if n != 6 {
		t.Errorf("count = %d, want 6", n)
	}
}

func TestCountTree(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "internal/pt/map.go", "package pt\nfunc A() {}\nfunc B() {}\n")
	writeFile(t, dir, "internal/pt/pt_spec.go", "package pt\nvar Spec = 1\n")
	writeFile(t, dir, "internal/pt/map_test.go", "package pt\nimport \"testing\"\nfunc TestA(t *testing.T) {}\n")
	writeFile(t, dir, "internal/nr/log.go", "package nr\nvar X = 0\n")
	writeFile(t, dir, ".git/objects/junk.go", "not counted")
	// A nested module is another module's code, as for `go list ./...`.
	writeFile(t, dir, "bench/go.mod", "module example.com/x/bench\n")
	writeFile(t, dir, "bench/internal/pt/probe.go", "package pt\nvar P = 1\n")

	if st, err := Count(dir); err == nil {
		t.Fatalf("Count of a directory without go.mod = %+v, want an error", st)
	}
	writeFile(t, dir, "go.mod", "module example.com/x\n")
	st, err := Count(dir)
	if err != nil {
		t.Fatal(err)
	}
	pt := st.Module("pt")
	if pt.Impl != 3 || pt.Proof != 2 || pt.Test != 3 {
		t.Errorf("pt stats = %+v", pt)
	}
	if st.Module("nr").Impl != 2 {
		t.Errorf("nr stats = %+v", st.Module("nr"))
	}
	tot := st.Totals()
	if tot.Impl != 5 || tot.Proof != 2 || tot.Test != 3 {
		t.Errorf("totals = %+v", tot)
	}
	if pt.Ratio() < 0.6 || pt.Ratio() > 0.7 {
		t.Errorf("ratio = %f", pt.Ratio())
	}
	if len(st.PerModule) != 2 {
		t.Errorf("modules = %v, want only pt and nr", st.PerModule)
	}
}

func TestRenderIncludesPublished(t *testing.T) {
	st := Stats{PerModule: map[string]ModuleStats{"pt": {Impl: 100, Proof: 1000}}}
	out := Render(st)
	for _, want := range []string{"seL4", "CertiKOS", "Verve", "pt", "10.0"} {
		if !containsStr(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestCountOnThisRepo(t *testing.T) {
	// Smoke test against the real tree: must not error and must find
	// both impl and proof lines.
	root := "../../.."
	st, err := Count(root)
	if err != nil {
		t.Fatal(err)
	}
	tot := st.Totals()
	if tot.Impl == 0 || tot.Proof == 0 {
		t.Errorf("suspicious totals on real repo: %+v", tot)
	}
	// Module root is the root-level files only: bench/ holds its own
	// go.mod and is not counted.
	files, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var want ModuleStats
	for _, f := range files {
		n, err := CountFile(f)
		if err != nil {
			t.Fatal(err)
		}
		switch Classify(filepath.Base(f)) {
		case CategoryTest:
			want.Test += n
		case CategoryProof:
			want.Proof += n
		default:
			want.Impl += n
		}
	}
	if got := st.Module("root"); got != want {
		t.Errorf("module root = %+v, want the root-level files' %+v", got, want)
	}
}
