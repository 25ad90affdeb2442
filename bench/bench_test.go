package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	vnros "github.com/verified-os/vnros"
)

// smokeWindow keeps the smoke short: every phase still runs (a phase
// always completes at least one request), and the probes replay their
// full 20k-op streams. Nothing here asserts on a time.
const smokeWindow = 300 * time.Millisecond

// TestWorkloads runs every workload end to end and traced, with its
// probes, and checks correctness, schema and counts.
func TestWorkloads(t *testing.T) {
	units := map[string]string{}
	for _, n := range perLayerNames {
		units[n.name] = n.unit
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(w, 1, smokeWindow, modeBoth, dir)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}

			// End to end: every name present with its unit; the ones every
			// workload defines are numbers.
			for _, n := range endToEndNames {
				m, ok := res.EndToEnd[n.name]
				if !ok || m.Unit != n.unit {
					t.Errorf("end-to-end %s: present=%v unit=%q, want unit %q", n.name, ok, m.Unit, n.unit)
				}
			}
			for _, name := range []string{"setup_s", "ops_per_s", "lat_p50_us", "fail_ratio", "allocs_per_op", "alloc_bytes_per_op"} {
				if res.EndToEnd[name].Value == nil {
					t.Errorf("end-to-end %s is null", name)
				}
			}
			if got := res.EndToEnd["fail_ratio"].Value; got == nil || *got != 0 {
				t.Errorf("fail_ratio = %v, want 0", got)
			}
			if (res.EndToEnd["recovery_ms"].Value != nil) != (w.name == "ring_sync") {
				t.Errorf("recovery_ms defined = %v on %s", res.EndToEnd["recovery_ms"].Value != nil, w.name)
			}

			// Per layer: exactly the declared names, each with the unit of
			// the benchmark-wide list.
			for _, name := range w.reports {
				m, ok := res.PerLayer[name]
				if !ok || m.Value == nil {
					t.Errorf("per-layer %s missing", name)
					continue
				}
				if m.Unit != units[name] {
					t.Errorf("per-layer %s unit %q, want %q", name, m.Unit, units[name])
				}
			}
			for name := range res.PerLayer {
				if _, ok := units[name]; !ok {
					t.Errorf("per-layer %s is not in perLayerNames", name)
				}
			}

			// Counts that hold exactly, whatever the machine's speed.
			pl := res.PerLayer
			switch w.name {
			case "read_hot", "read_cold":
				if got := pl.get("pcache.resident_hit_ratio"); got != 1 {
					t.Errorf("pcache.resident_hit_ratio = %v on a resident set, want 1", got)
				}
				if hr := pl.get("pcache.hit_ratio"); hr <= 0 || hr >= 1 {
					t.Errorf("pcache.hit_ratio = %v, want inside (0,1)", hr)
				}
			case "ring_sync":
				if pl.get("dev.writes_per_round") < 1 || pl.get("dev.bytes_per_user_byte") < 1 {
					t.Errorf("journal device counts: %v writes/round, %v bytes/user byte",
						pl.get("dev.writes_per_round"), pl.get("dev.bytes_per_user_byte"))
				}
				if pl.get("nr.combiner.ops_per_batch") < 1 {
					t.Errorf("nr.combiner.ops_per_batch = %v", pl.get("nr.combiner.ops_per_batch"))
				}
			case "verify_all":
				if got, want := pl.get("verifier.vcs"), float64(vnros.NewVCRegistry().Len()); got != want {
					t.Errorf("verifier.vcs = %v, want %v", got, want)
				}
			}

			checkTraceFile(t, filepath.Join(dir, "trace-"+w.name+".json"))
		})
	}
}

// TestSecondSeed reruns the measured window of every workload on
// another seed: different inputs must pass the same output checks.
func TestSecondSeed(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, 2, smokeWindow, modeEndToEnd, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
	}
}

// checkTraceFile loads a trace and requires every span to be a root or
// to name an earlier span that encloses it.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s has no spans", path)
	}
	byID := make(map[int]spanJSON, len(tf.Spans))
	roots := 0
	for _, s := range tf.Spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s: span %d (%s) names parent %d, which does not precede it", path, s.ID, s.Name, s.Parent)
		}
		if p.Client != s.Client || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
	}
	if roots == 0 {
		t.Fatalf("%s has no root span", path)
	}
}

// result builds a one-workload result file for the comparison tests.
func result(t *testing.T, dir, name string, opsPerS, spread, failRatio float64) string {
	return resultOf(t, "syscall_mix", dir, name, opsPerS, spread, failRatio)
}

func resultOf(t *testing.T, workload, dir, name string, opsPerS, spread, failRatio float64) string {
	t.Helper()
	e := metrics{}
	e.set("ops_per_s", "1/s", opsPerS)
	m := e["ops_per_s"]
	m.Spread = spread
	e["ops_per_s"] = m
	e.set("fail_ratio", "ratio", failRatio)
	path := filepath.Join(dir, name)
	f := resultFile{Schema: 1, Workloads: []workloadResult{{Name: workload, EndToEnd: e}}}
	if err := writeJSON(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := result(t, dir, "base.json", 1000, 0.01, 0)
	for _, tc := range []struct {
		name    string
		path    string
		code    int
		verdict string
	}{
		{"same", result(t, dir, "same.json", 990, 0.01, 0), 0, "same"},
		{"better", result(t, dir, "better.json", 1500, 0.01, 0), 0, "better"},
		{"worse", result(t, dir, "worse.json", 600, 0.01, 0), 1, "worse"},
		{"unresolved", result(t, dir, "noisy.json", 600, 0.9, 0), 0, "unresolved"},
		{"failures", result(t, dir, "failing.json", 1000, 0.01, 0.001), 1, "worse"},
		{"unsteady", resultOf(t, "net_echo", dir, "echo.json", 600, 0.01, 0), 0, "unresolved"},
	} {
		var out bytes.Buffer
		base := base
		if tc.name == "unsteady" {
			base = resultOf(t, "net_echo", dir, "echobase.json", 1000, 0.01, 0)
		}
		if code := compareFiles(&out, []string{base}, []string{tc.path}); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program: the
// same workloads, the same metric names and units, the same bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var steady []*workload
	for _, w := range workloads {
		if w.unsteady == "" {
			steady = append(steady, w)
		}
	}
	if len(b.Workloads) != len(steady) {
		t.Fatalf("%d workloads listed, %d steady ones registered", len(b.Workloads), len(steady))
	}
	for i, w := range steady {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, registry has %q", i, b.Workloads[i].Name, w.name)
		}
	}
	bounds := map[string]gate{}
	for _, g := range gates {
		bounds[g.name] = g
	}
	units := map[string]string{}
	for _, n := range endToEndNames {
		units[n.name] = n.unit
	}
	if len(b.EndToEnd) != len(driverEndToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the result line carries %d", len(b.EndToEnd), len(driverEndToEnd))
	}
	for i, e := range b.EndToEnd {
		g := bounds[e.Name]
		if e.Name != driverEndToEnd[i] || e.Unit != units[e.Name] || e.Bound == nil || *e.Bound != g.bound ||
			(e.Better == "higher") != g.higherBetter {
			t.Errorf("end-to-end entry %+v does not match the program (name %s, unit %s, gate %+v)",
				e, driverEndToEnd[i], units[e.Name], g)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics listed, the program reports %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, e := range b.PerLayer {
		if e.Name != perLayerNames[i].name || e.Unit != perLayerNames[i].unit {
			t.Errorf("per-layer entry %d is %s [%s], the program has %s [%s]",
				i, e.Name, e.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
	}
}
