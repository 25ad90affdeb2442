package main

import (
	"math/rand"
	"runtime"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/verifier"
)

// verifySeedPool is the verifier seeds the runs draw from, 1 to
// verifySeedPool, in an order the benchmark's seed decides; the loop
// cycles through them. The pool is small and fixed because the registry
// does not pass on every seed: ulib:stdio-equals-direct-syscalls fails
// ("buffered read diverged at op 5") on seed 1835415043962272479, about
// one 63-bit seed in 3000, which is the program's defect and is recorded
// in the README. Every seed of the pool was checked to pass at the
// commit that added the benchmark, so a failed VC here is a change in
// the program, not a draw.
const verifySeedPool = 128

type verifyInputs struct{ seeds []int64 }

var spVerifyRun = spanName("verify_run")

var verifyAll = &workload{
	name: "verify_all",
	why: "time to verify (Fig. 1a) is the developer-facing metric and the only user of internal/verifier; " +
		"no kernel workload moves it",
	gen: func(rng *rand.Rand) any {
		in := &verifyInputs{seeds: make([]int64, verifySeedPool)}
		for i, p := range rng.Perm(verifySeedPool) {
			in.seeds[i] = int64(p) + 1
		}
		return in
	},
	setup: func(inputs any) (*instance, error) {
		// One client: the developer running the whole suite, which fans
		// out over GOMAXPROCS workers by itself. Set-up is building the
		// registry; each run builds its own, as vnros.Verify does.
		vcs := vnros.NewVCRegistry().Len()
		cs := newClients(1, uint64(vcs), verifyStep)
		cs[0].st = inputs.(*verifyInputs)
		go cs[0].serve()
		return &instance{
			clients: cs,
			stop:    func() { retire(cs) },
			check:   func() error { return nil }, // a failed VC is a failed op, counted by the step
		}, nil
	},
	probes: verifyProbes,
	reports: []string{"verifier.serial_ms", "verifier.max_vc_ms", "verifier.parallel_efficiency", "verifier.vcs",
		"trace.overhead_ratio"},
}

// verifyStep discharges every VC once; each failed VC is a failed op.
func verifyStep(c *client) int {
	in := c.st.(*verifyInputs)
	seed := in.seeds[c.next%len(in.seeds)]
	c.next++
	root := c.tr.request(spVerifyRun)
	run := verifyRun(seed, runtime.GOMAXPROCS(0), nil)
	c.tr.end(root)
	return run.failed
}

// serialModule is the one module whose VCs the pool may not overlap:
// three of them allocate frames through internal/sys's testFrames,
// which writes a package-level map with no lock, and two pool workers
// inside it end the process with "concurrent map writes" — about one
// full run in 200 on two CPUs. The defect is the program's and is
// recorded in the README; until it is fixed there the benchmark keeps
// those VCs off the pool so that no run of it fails.
const serialModule = "sys"

// verifyReport is one discharge of the whole registry.
type verifyReport struct {
	vcs, failed, jobs int
	wall              time.Duration // both passes
	sum, max          time.Duration // over single VCs
}

// verifyRun discharges every VC once: every module but serialModule on
// a pool of jobs workers, then serialModule (25 VCs, ~4 % of the serial
// time) on one worker. progress, if not nil, sees each result.
func verifyRun(seed int64, jobs int, progress func(verifier.Result)) verifyReport {
	reg := vnros.NewVCRegistry()
	pool := reg.Run(vnros.VCOptions{Seed: seed, Jobs: jobs, Progress: progress,
		Skip: func(o verifier.Obligation) bool { return o.Module == serialModule }})
	tail := reg.Run(vnros.VCOptions{Seed: seed, Jobs: 1, Progress: progress, Module: serialModule})
	return verifyReport{
		vcs:    len(pool.Results) - len(pool.Skipped()) + len(tail.Results),
		failed: len(pool.Failed()) + len(tail.Failed()),
		jobs:   pool.Jobs,
		wall:   pool.Total + tail.Total,
		sum:    pool.SerialTime() + tail.SerialTime(),
		max:    max(pool.Max(), tail.Max()),
	}
}
