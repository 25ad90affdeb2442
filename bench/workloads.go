package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	vnros "github.com/verified-os/vnros"
)

// numClients is the closed-loop population of every kernel workload:
// one caller per core of the 2-CPU reference box. The harness never
// runs more client goroutines than that and leaves GOMAXPROCS alone.
const numClients = 2

// workload is one named set of inputs plus the code that boots the
// configuration it runs on. Inputs are generated from the seed before
// anything is booted; the program under test only ever sees them.
type workload struct {
	name string
	why  string
	// unsteady, if set, is why BENCHMARK.json does not list the workload:
	// runs of one commit spread beyond any bound the driver's gate allows.
	// It still runs in the full benchmark and under -compare.
	unsteady string
	// gen derives the inputs of every client from rng: pure data.
	gen func(rng *rand.Rand) any
	// setup boots, populates and starts the clients; it is what
	// setup_s times.
	setup func(inputs any) (*instance, error)
	// probes measures the layers this workload exercises, after the
	// traced run, and returns the tracers of its probe stack.
	probes func(inputs any, inst *instance, tp tracedPhases, m metrics) ([]*tracer, error)
	// reports names the per-layer metrics a traced run of this workload
	// must produce: the layers it exercises. The rest read 0 in the
	// contract's result line and are absent from result.json.
	reports []string
}

// opClass returns the two per-layer names of a request class.
func opClass(class string) []string {
	return []string{"core.op." + class + ".p50_us", "core.op." + class + ".p99_us"}
}

// concat joins name lists.
func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Per-layer names shared by the workloads that issue syscalls.
var (
	syscallLayers = []string{"sys.codec.ns_per_op", "sys.codec.allocs_per_op", "sys.codec.bytes_per_op",
		"marshal.pack.ns_per_op", "sys.kernel.ns_per_op", "fs.ns_per_op", "nr.combiner.ops_per_batch",
		"nr.sharded.execute.ns_per_op", "nr.sharded.execute.2rep.ns_per_op", "core.self_ns_per_op",
		"trace.overhead_ratio"}
	contractLayers = []string{"fs.view.ns_per_call", "fs.view.bytes_per_call",
		"sys.contract.overhead_ratio", "sys.contract.bytes_per_op"}
	pcacheLayers = []string{"pcache.hit.ns_per_read", "pcache.miss.ns_per_read", "pcache.hit_ratio",
		"pcache.resident_hit_ratio", "pcache.evictions", "pcache.invalidate.ns_per_call",
		"core.pcache.resident_pages", "nr.execute.ns_per_op", "nr.read.ns_per_op"}
)

// instance is one booted, populated, running configuration.
type instance struct {
	clients []*client
	// after is the workload's post-window stage (ring_sync's crash and
	// recovery); it may add end-to-end metrics.
	after func(m metrics) error
	// stop retires the clients; check verifies every output the program
	// produced (contract, replica agreement, kernel invariants).
	stop  func()
	check func() error
	// sys is the booted machine, for probes that read its layer state.
	sys *vnros.System
}

// tracedPhases carries the traced run's two segments to the probes.
type tracedPhases struct {
	window   time.Duration
	untraced phaseResult
	traced   phaseResult
}

// metric is one reported number.
type metric struct {
	Value  *float64 `json:"value"` // nil: not defined on this workload
	Unit   string   `json:"unit"`
	Raw    float64  `json:"raw,omitempty"`          // calibrated metrics: the value on the machine's own clock
	Spread float64  `json:"slice_spread,omitempty"` // ops_per_s: IQR of the slices' rates as a share of their median
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: &v, Unit: unit} }

func (m metrics) get(name string) float64 {
	if v := m[name].Value; v != nil {
		return *v
	}
	return 0
}

// workloads is the registry, in report order.
var workloads = []*workload{
	syscallMix,
	ringSync,
	readHot,
	readCold,
	netEcho,
	verifyAll,
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workloadRNG seeds a workload's generator from the run seed and the
// workload's name, so workloads draw independent streams and adding
// one does not shift another's inputs.
func workloadRNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// newClients makes n idle clients sharing one step function.
func newClients(n int, opsPer uint64, step func(*client) int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, opsPer: opsPer, step: step,
			cmd: make(chan stint), done: make(chan struct{})}
	}
	return cs
}

// retire closes the clients' command channels; their goroutines (and,
// for contract-checked workloads, their processes) then exit.
func retire(cs []*client) {
	for _, c := range cs {
		close(c.cmd)
	}
}

// runProcesses starts one contract-checked process per client with
// System.Run: populate runs first inside the process, then the process
// serves phases until retired. It returns once every client is ready.
func runProcesses(s *vnros.System, parent *vnros.Sys, cs []*client, label string,
	populate func(c *client) error) error {
	ready := make(chan error, len(cs))
	for _, c := range cs {
		c := c
		_, err := s.Run(parent, fmt.Sprintf("%s%d", label, c.id), func(p *vnros.Process) int {
			c.sys = p.Sys
			if err := populate(c); err != nil {
				ready <- err
				return 1
			}
			ready <- nil
			c.serve()
			return 0
		})
		if err != nil {
			return err
		}
	}
	var first error
	for range cs {
		if err := <-ready; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkSystem is the output check shared by the kernel workloads: no
// contract violation on any handle, replicas agree, invariants hold.
func checkSystem(s *vnros.System, handles ...*vnros.Sys) error {
	for _, h := range handles {
		if err := h.ContractErr(); err != nil {
			return invalidf("contract violation (pid %d): %w", h.PID(), err)
		}
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return invalid{err}
	}
	if err := s.CheckKernelInvariants(); err != nil {
		return invalid{err}
	}
	return nil
}

func clientHandles(cs []*client) []*vnros.Sys {
	hs := make([]*vnros.Sys, len(cs))
	for i, c := range cs {
		hs[i] = c.sys
	}
	return hs
}

// pool is seeded random bytes that payloads are sliced from, so the
// timed loop hands the program distinct data without building any.
func newPool(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}
