// Package loc measures proof-to-code ratios: the §5 evaluation metric
// ("our results show that the proof-to-code ratio is 10:1").
//
// In this repository, "proof" is executable specification and checking
// code: *_spec.go, *_refine.go, *_obligations.go and *_inv.go files, plus
// everything under internal/spec and internal/verifier (the framework
// itself). "Code" is the remaining non-test implementation. Tests are
// counted separately — the paper's ratios exclude test harnesses too.
package loc

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Category classifies a source file.
type Category int

// File categories.
const (
	CategoryImpl Category = iota
	CategoryProof
	CategoryTest
)

func (c Category) String() string {
	switch c {
	case CategoryImpl:
		return "impl"
	case CategoryProof:
		return "proof"
	case CategoryTest:
		return "test"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// ModuleStats is the per-module line breakdown.
type ModuleStats struct {
	Impl  int
	Proof int
	Test  int
}

// Ratio returns the proof-to-code ratio (proof lines per impl line).
func (m ModuleStats) Ratio() float64 {
	if m.Impl == 0 {
		return 0
	}
	return float64(m.Proof) / float64(m.Impl)
}

// Stats is a whole-tree accounting.
type Stats struct {
	PerModule map[string]ModuleStats
}

// Totals sums every module.
func (s Stats) Totals() ModuleStats {
	var t ModuleStats
	for _, m := range s.PerModule {
		t.Impl += m.Impl
		t.Proof += m.Proof
		t.Test += m.Test
	}
	return t
}

// Module returns the stats for one module (zero value if absent).
func (s Stats) Module(name string) ModuleStats { return s.PerModule[name] }

// proofPattern marks files that carry specification or refinement
// content rather than implementation: *_spec.go, *_refine.go,
// *_inv.go, and *_obligations*.go (obligation waves are numbered).
var proofPattern = regexp.MustCompile(`_(spec|refine|inv|obligations[0-9]*)\.go$`)

// proofDirs are packages that are wholly specification/verification
// framework.
var proofDirs = []string{
	filepath.Join("internal", "spec"),
	filepath.Join("internal", "verifier"),
	filepath.Join("internal", "lin"),
}

// Classify returns the category for a file path relative to the module
// root.
func Classify(rel string) Category {
	base := filepath.Base(rel)
	if strings.HasSuffix(base, "_test.go") {
		return CategoryTest
	}
	for _, d := range proofDirs {
		if strings.HasPrefix(rel, d+string(filepath.Separator)) || rel == d {
			return CategoryProof
		}
	}
	if proofPattern.MatchString(base) {
		return CategoryProof
	}
	return CategoryImpl
}

// moduleOf maps a relative path to its module name: the package directly
// under internal/ (or internal/hw/...), the cmd name, "examples", or
// "root".
func moduleOf(rel string) string {
	parts := strings.Split(filepath.ToSlash(rel), "/")
	switch {
	case len(parts) >= 2 && parts[0] == "internal":
		if len(parts) >= 3 && (parts[1] == "hw" || parts[1] == "spec") {
			return parts[1] + "/" + parts[2]
		}
		return parts[1]
	case len(parts) >= 2 && (parts[0] == "cmd" || parts[0] == "examples"):
		return parts[0] + "/" + parts[1]
	default:
		return "root"
	}
}

// CountFile counts the non-blank, non-comment lines of a Go file. It
// recognizes line comments, general comments, and avoids treating
// comment markers inside string or rune literals as comments.
func CountFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		code := lineHasCode(line, &inBlock)
		if code {
			n++
		}
	}
	return n, sc.Err()
}

// lineHasCode reports whether the line contains any code outside
// comments, updating the block-comment state.
func lineHasCode(line string, inBlock *bool) bool {
	i := 0
	has := false
	for i < len(line) {
		if *inBlock {
			end := strings.Index(line[i:], "*/")
			if end < 0 {
				return has
			}
			i += end + 2
			*inBlock = false
			continue
		}
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return has
		case c == '/' && i+1 < len(line) && line[i+1] == '*':
			*inBlock = true
			i += 2
		case c == '"' || c == '\'' || c == '`':
			has = true
			i = skipString(line, i)
		default:
			has = true
			i++
		}
	}
	return has
}

// skipString advances past a string/rune literal starting at i. Raw
// strings spanning lines are treated approximately (the remainder of the
// line is consumed), which is fine for line counting.
func skipString(line string, i int) int {
	quote := line[i]
	i++
	for i < len(line) {
		if line[i] == '\\' && quote != '`' {
			i += 2
			continue
		}
		if line[i] == quote {
			return i + 1
		}
		i++
	}
	return i
}

// Count walks the Go module rooted at root (which must hold a go.mod)
// and produces per-module line statistics for all its Go files. Like
// `go list ./...`, it does not descend into a subdirectory that holds
// its own go.mod: that is another module, not this one's code.
func Count(root string) (Stats, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return Stats{}, fmt.Errorf("%s is not a module root: %w", root, err)
	}
	st := Stats{PerModule: make(map[string]ModuleStats)}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		n, err := CountFile(path)
		if err != nil {
			return err
		}
		mod := moduleOf(rel)
		ms := st.PerModule[mod]
		switch Classify(rel) {
		case CategoryTest:
			ms.Test += n
		case CategoryProof:
			ms.Proof += n
		default:
			ms.Impl += n
		}
		st.PerModule[mod] = ms
		return nil
	})
	return st, err
}

// PublishedRatio is a literature data point from §5 of the paper.
type PublishedRatio struct {
	System string
	Ratio  float64
	Note   string
}

// PublishedRatios are the proof-to-code ratios the paper compares
// against.
func PublishedRatios() []PublishedRatio {
	return []PublishedRatio{
		{System: "vnros page table (paper)", Ratio: 10, Note: "this paper's prototype"},
		{System: "seL4", Ratio: 19, Note: "approximate"},
		{System: "CertiKOS", Ratio: 20, Note: "approximate"},
		{System: "SeKVM (weak memory)", Ratio: 10, Note: "excludes framework"},
		{System: "Verve", Ratio: 3, Note: "verifies less extensive properties"},
	}
}

// Render prints the per-module table plus the published comparison.
func Render(st Stats) string {
	var b strings.Builder
	mods := make([]string, 0, len(st.PerModule))
	for m := range st.PerModule {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s\n", "module", "impl", "proof", "test", "p:c")
	for _, m := range mods {
		ms := st.PerModule[m]
		fmt.Fprintf(&b, "%-16s %8d %8d %8d %8.1f\n", m, ms.Impl, ms.Proof, ms.Test, ms.Ratio())
	}
	t := st.Totals()
	fmt.Fprintf(&b, "%-16s %8d %8d %8d %8.1f\n", "total", t.Impl, t.Proof, t.Test, t.Ratio())
	b.WriteString("\npublished comparisons (paper §5):\n")
	for _, p := range PublishedRatios() {
		fmt.Fprintf(&b, "  %-28s %4.0f:1  (%s)\n", p.System, p.Ratio, p.Note)
	}
	return b.String()
}
