package diff

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/verified-os/vnros/internal/verifier"
)

// tracesPerBudget is the base trace count of one differential run;
// Options.FuzzBudget scales it linearly. Each trace boots and recovers
// a kernel of every shape, and a boot's NR logs are most of what the VC
// allocates, so a run is a few long traces rather than many short ones.
const tracesPerBudget = 2

// RegisterObligations registers the differential VC class. These are
// wired from the facade's NewVCRegistry (not core.RegisterAllObligations)
// because the harness sits above core: it boots whole kernels.
//
//   - trace-mono-vs-sharded-vs-wal-recovered: the centerpiece. Each
//     randomized trace replays on every kernel shape (shapes); each
//     shape's per-op observations and final observable state must equal
//     the co-located kernel's. Every kernel then "loses power" and
//     reboots through WAL recovery; the recovered durable state must
//     equal its own live file state (the trace ends with a Sync) and the
//     co-located kernel's recovered state.
//   - trace-generator-deterministic: same seed, same trace — a failing
//     differential trace must be reproducible from its logged seed.
//   - harness-detects-divergence: the differ is not vacuous — a
//     synthetically perturbed op-log, state or recovered-file line is
//     each reported as a divergence of that observable.
func RegisterObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "diff", Name: "trace-mono-vs-sharded-vs-wal-recovered",
			Kind: verifier.KindDifferential,
			Budget: func(r *rand.Rand, budget int) error {
				for t := 0; t < tracesPerBudget*budget; t++ {
					if err := oneTraceDifferential(r.Int63(), 45+r.Intn(45)); err != nil {
						return err
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "diff", Name: "trace-generator-deterministic",
			Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				seed := r.Int63()
				a, b := Generate(seed, 40), Generate(seed, 40)
				if err := DiffLines("gen-a", renderOps(a.Ops), "gen-b", renderOps(b.Ops)); err != nil {
					return fmt.Errorf("same seed generated different traces: %w", err)
				}
				c := Generate(seed+1, 40)
				if DiffLines("gen-a", renderOps(a.Ops), "gen-c", renderOps(c.Ops)) == nil {
					return fmt.Errorf("distinct seeds generated identical traces")
				}
				return nil
			}},
		verifier.Obligation{Module: "diff", Name: "harness-detects-divergence",
			Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				rep, err := Observe(0, Generate(r.Int63(), 12))
				if err != nil {
					return err
				}
				// Perturb one line of each observable in turn: the differ
				// must call out that observable.
				for _, o := range observables {
					mutated := *rep
					lines := append([]string(nil), *o.of(&mutated)...)
					if len(lines) == 0 {
						return fmt.Errorf("replay captured no %s", o.name)
					}
					lines[r.Intn(len(lines))] += " PERTURBED"
					*o.of(&mutated) = lines
					err := DiffReplays("real", rep, "mutated", &mutated)
					if err == nil || !strings.HasPrefix(err.Error(), o.name) {
						return fmt.Errorf("differ missed an injected %s divergence: %v", o.name, err)
					}
				}
				return nil
			}},
	)
}

// shapes is the kernel matrix a trace replays on: the co-located kernel
// (Shards 0, one NR instance), the reference every other shape is
// diffed against, and two partitioned ones.
var shapes = []int{0, 2, 4}

// oneTraceDifferential replays one trace on every shape, crashes and
// recovers each, and diffs every observable against Shards 0's.
func oneTraceDifferential(seed int64, n int) error {
	tr := Generate(seed, n)
	var ref *Replay
	for _, shards := range shapes {
		rep, err := Observe(shards, tr)
		if err != nil {
			return fmt.Errorf("Shards %d: %w", shards, err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if err := DiffReplays(fmt.Sprintf("Shards %d", shapes[0]), ref, fmt.Sprintf("Shards %d", shards), rep); err != nil {
			return fmt.Errorf("trace seed %d: %w", seed, err)
		}
	}
	return nil
}

// observables are the parts of a Replay two kernel shapes must agree on.
var observables = []struct {
	name string
	of   func(*Replay) *[]string
}{
	{"op log", func(r *Replay) *[]string { return &r.Log }},
	{"final state", func(r *Replay) *[]string { return &r.State }},
	{"recovered files", func(r *Replay) *[]string { return &r.Recovered }},
}

// DiffReplays reports the first observable on which b diverges from a,
// naming it first.
func DiffReplays(aName string, a *Replay, bName string, b *Replay) error {
	for _, o := range observables {
		if err := DiffLines(aName, *o.of(a), bName, *o.of(b)); err != nil {
			return fmt.Errorf("%s diverged: %w", o.name, err)
		}
	}
	return nil
}

func renderOps(ops []Op) []string {
	var out []string
	for _, o := range ops {
		out = append(out, fmt.Sprintf("%s %x", o.Render(), sum(o.Data)))
		out = append(out, renderOps(o.Ops)...)
	}
	return out
}
