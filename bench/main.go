// Command bench is the repository's one benchmark: six named
// workloads, each a closed loop of two clients against a freshly booted
// configuration, measured end to end with tracing off and then layer by
// layer in a traced run plus probes of a stack the benchmark composes
// from the layers' public constructors. See README.md.
//
//	bash bench/run.sh                      every workload; writes bench/out/
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir is where result.json and the trace files go, relative to the
// checkout root the benchmark is run from.
const outDir = "bench/out"

// watchdog bounds one workload's run: a lost wake-up in the program
// under test must end the benchmark with an error, not hang its caller.
const watchdog = 170 * time.Second

// guard runs one workload under the watchdog.
func guard(w *workload, seed int64, window time.Duration, mode runMode) (workloadResult, error) {
	wd := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %s exceeded %v\n", w.name, watchdog)
		os.Exit(3)
	})
	defer wd.Stop()
	return runWorkload(w, seed, window, mode, outDir)
}

func main() {
	seed := flag.Int64("seed", 1, "seed every workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "measured window per workload in seconds; warm-up, traced run and probes scale with it")
	only := flag.String("workload", "", "run one workload and print one JSON result line (the BENCHMARK.json contract)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("usage: -compare base.json[,base2.json...] new.json[,new2.json...]"))
		}
		os.Exit(compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")))
	}
	if *seconds < 1 {
		fail(errors.New("-seconds must be at least 1"))
	}
	window := time.Duration(*seconds * float64(time.Second))

	if *only != "" {
		w := findWorkload(*only)
		if w == nil {
			fail(fmt.Errorf("no such workload %q", *only))
		}
		mode := modeEndToEnd
		if *trace == 1 {
			mode = modeTraced
		}
		res, err := guard(w, *seed, window, mode)
		if err != nil {
			fail(err)
		}
		printDriverLine(res, mode)
		return
	}

	file := resultFile{Schema: 1, Env: environment(*seed, *seconds)}
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		res, err := guard(w, *seed, window, modeBoth)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printWorkload(res)
		file.Workloads = append(file.Workloads, res)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, file); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
	for _, res := range file.Workloads {
		if res.Failed > 0 {
			fail(fmt.Errorf("%s: %d of %d ops failed", res.Name, res.Failed, res.Attempted))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type runMode int

const (
	modeEndToEnd runMode = iota // measured window only, tracing off
	modeTraced                  // traced run and probes only
	modeBoth
)

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema    int              `json:"schema"`
	Env       envHeader        `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

type envHeader struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
}

type workloadResult struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	EndToEnd  metrics `json:"end_to_end,omitempty"`
	Latency   struct {
		Samples       int     `json:"samples"`
		TopPercentile float64 `json:"top_percentile"` // highest with >= 10 samples beyond it
		TopUs         float64 `json:"top_us"`
	} `json:"latency"`
	PerLayer metrics `json:"per_layer,omitempty"`
}

func environment(seed int64, seconds float64) envHeader {
	env := envHeader{Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seed: seed, WindowS: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// endToEndNames lists the end-to-end metrics in report order; every
// workload reports every name (null where the metric is undefined).
var endToEndNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"fail_ratio", "ratio"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"recovery_ms", "ms"},
}

// p99MinSamples is the sample count from which a p99 has ten samples
// beyond it; below it lat_p99_us is null in result.json.
const p99MinSamples = 1000

// traceSamples caps each client's requests in the traced run's two
// segments, so the span buffers have a fixed size.
const traceSamples = 100_000

// runWorkload generates the inputs, sets the workload up (several
// times: setup_s is the median), warms it, runs the phases the mode
// asks for, and checks the outputs.
func runWorkload(w *workload, seed int64, window time.Duration, mode runMode, dir string) (workloadResult, error) {
	res := workloadResult{Name: w.name, Why: w.why, EndToEnd: metrics{}, PerLayer: metrics{}}
	inputs := w.gen(workloadRNG(seed, w.name))

	// Set-up, repeated so its time is a median: at least 5 times and
	// until 2/15 of the window has been spent (two seconds of the default
	// fifteen), at most 5000 times (cheap set-ups are the noisy ones).
	// All but the last instance are torn down at once. The machine's
	// speed is read before, after and every tenth of a second in between,
	// and the median set-up counts at the mean speed: seconds of the
	// reference box, like the rates.
	//
	// The collector runs to completion before each repeat and is held off
	// during it. A set-up allocates a few megabytes, which starts a
	// collection at a point that depends on what the instance before left
	// behind; its workers then compete with the boot for the two vCPUs,
	// and syscall_mix's set-up read anything from 1.9 to 3.5 ms from one
	// process to the next (IQR 28 %) against 1.5 ms (IQR 3 %) without.
	// Held off, setup_s is the program's own work, which is what a change
	// that moves work into set-up adds to.
	var setups []time.Duration
	speeds := []float64{speed()}
	var inst *instance
	for spent, read := time.Duration(0), time.Duration(0); len(setups) < 5 || (spent < window*2/15 && len(setups) < 5000); {
		if inst != nil {
			inst.stop()
		}
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		t0 := time.Now()
		var err error
		inst, err = w.setup(inputs)
		setups = append(setups, time.Since(t0))
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		if spent += setups[len(setups)-1]; spent-read >= sliceLen/5 {
			speeds, read = append(speeds, speed()), spent
		}
	}
	speeds = append(speeds, speed())
	setupRaw := medianSeconds(setups)
	setupRef := setupRaw * mean(speeds)
	res.EndToEnd["setup_s"] = metric{Value: &setupRef, Unit: "s", Raw: setupRaw}

	// Warm-up, untimed: caches fill, lazy set-up finishes. Its rate
	// sizes the latency buffers of the timed phases.
	warm := runPhase(inst.clients, window*2/15, 0, 1<<20, false)
	perClient := float64(warm.samples) / float64(len(inst.clients)) / warm.elapsed.Seconds()
	sampleCap := int(perClient*window.Seconds()*3) + 4096

	if mode != modeTraced {
		r := runPhase(inst.clients, window, 0, sampleCap, false)
		if r.overflow {
			return res, errors.New("latency buffer overflowed in the measured window")
		}
		res.Attempted, res.Failed = r.attempted, r.failed
		e := res.EndToEnd
		e["ops_per_s"] = metric{Value: &r.opsPerS, Unit: "1/s", Raw: r.rawOpsPerS, Spread: r.sliceSpread}
		e.set("lat_p50_us", "us", r.p50us)
		if r.samples >= p99MinSamples {
			e.set("lat_p99_us", "us", r.p99us)
		}
		e.set("fail_ratio", "ratio", float64(r.failed)/float64(r.attempted))
		e.set("allocs_per_op", "count", r.allocsOp)
		e.set("alloc_bytes_per_op", "B", r.bytesOp)
		res.Latency.Samples, res.Latency.TopPercentile, res.Latency.TopUs = r.samples, r.topPct, r.topUs
	}

	var tracers []*tracer
	if mode != modeEndToEnd {
		tp := tracedPhases{window: window}
		tp.untraced = runPhase(inst.clients, window/3, traceSamples, traceSamples+1, false)
		tp.traced = runPhase(inst.clients, window/3, traceSamples, traceSamples+1, true)
		for _, c := range inst.clients {
			tracers = append(tracers, c.tr)
			c.tr = nil
		}
		res.Attempted += tp.untraced.attempted + tp.traced.attempted
		res.Failed += tp.untraced.failed + tp.traced.failed
		pl := res.PerLayer
		pl.set("trace.overhead_ratio", "ratio", tp.untraced.opsPerS/tp.traced.opsPerS)
		for class, ds := range tp.traced.classes {
			if class == "verify_run" {
				continue // the run is verify_all's whole latency sample, not an op class
			}
			sortU32(ds)
			pl.set("core.op."+class+".p50_us", "us", float64(rank(ds, 50))/1e3)
			pl.set("core.op."+class+".p99_us", "us", float64(rank(ds, 99))/1e3)
		}
		probeTracers, err := w.probes(inputs, inst, tp, pl)
		if err != nil {
			return res, fmt.Errorf("probes: %w", err)
		}
		tracers = append(tracers, probeTracers...)
	}

	if inst.after != nil {
		if err := inst.after(res.EndToEnd); err != nil {
			return res, err
		}
		if m, ok := res.EndToEnd["recovery_ms"]; ok && mode != modeEndToEnd {
			res.PerLayer["recovery_ms"] = m // BENCHMARK.json lists it per layer
		}
	}
	if mode != modeEndToEnd {
		for _, name := range w.reports {
			if m, ok := res.PerLayer[name]; !ok || m.Value == nil {
				return res, fmt.Errorf("traced run did not report %s", name)
			}
		}
	}
	inst.stop()
	if err := inst.check(); err != nil {
		return res, err
	}

	for _, n := range endToEndNames {
		if _, ok := res.EndToEnd[n.name]; !ok {
			res.EndToEnd[n.name] = metric{Unit: n.unit}
		}
	}
	if mode != modeEndToEnd {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return res, err
		}
		if err := writeTrace(filepath.Join(dir, "trace-"+w.name+".json"), w.name, tracers); err != nil {
			return res, err
		}
	}
	return res, nil
}

// printWorkload prints every metric of one workload by name with its
// unit.
func printWorkload(res workloadResult) {
	fmt.Printf("  end to end (%d attempted, %d failed, %d latency samples, p%v = %.1f us)\n",
		res.Attempted, res.Failed, res.Latency.Samples, res.Latency.TopPercentile, res.Latency.TopUs)
	for _, n := range endToEndNames {
		printMetric(n.name, res.EndToEnd[n.name])
	}
	fmt.Println("  per layer")
	names := make([]string, 0, len(res.PerLayer))
	for n := range res.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		printMetric(n, res.PerLayer[n])
	}
}

func printMetric(name string, m metric) {
	if m.Value == nil {
		fmt.Printf("    %-36s %14s %s\n", name, "null", m.Unit)
		return
	}
	fmt.Printf("    %-36s %14.4f %s\n", name, *m.Value, m.Unit)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverEndToEnd is BENCHMARK.json's end-to-end list: the metrics the
// driver gates, which are the ones that repeat from run to run.
// lat_p50_us and lat_p99_us are not among them, because a percentile
// that sits where the latency distribution jumps (read_hot's p99 on the
// edge of the ~1 % of requests a GC cycle delays) flips between runs of
// one commit; they stay in result.json and under -compare, which can
// answer "unresolved". fail_ratio travels as the line's
// failed/attempted counts, and recovery_ms, defined on one workload
// only, is listed per layer. net_echo is not among BENCHMARK.json's
// workloads at all (see the README): its rate is set by how long the
// program's 20 us time.Sleep lasts, which no clock calibration steadies.
var driverEndToEnd = []string{"setup_s", "ops_per_s", "allocs_per_op", "alloc_bytes_per_op"}

// printDriverLine prints the one-line JSON result of a -workload run.
// The contract has no null: a per-layer metric the workload does not
// exercise reads 0.
func printDriverLine(res workloadResult, mode runMode) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if mode == modeEndToEnd {
		for _, name := range driverEndToEnd {
			m := res.EndToEnd[name]
			line.Metrics[name] = value{Value: *m.Value, Unit: m.Unit}
		}
	} else {
		for _, d := range perLayerNames {
			v := value{Unit: d.unit}
			if m, ok := res.PerLayer[d.name]; ok && m.Value != nil {
				v.Value = *m.Value
			}
			line.Metrics[d.name] = v
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
}
