package core

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerRingWaitObligations: the completion-driven reap path composed
// with the real kernel. The sys-level ring-wait-no-lost-wakeup VC
// sweeps the park/post interleavings against a direct handler; this one
// re-discharges the end-to-end form — blocking waiters, partial WaitN
// reaps, and completion callbacks racing real combiner drains — on the
// monolithic and the sharded kernel, per the §4.3 compose-per-service
// methodology (the wake path is a new service; it gets its own
// obligation in every composition it ships in).
func registerRingWaitObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "ring-wait-no-lost-wakeup", Kind: verifier.KindModelCheck,
			Budget: func(r *rand.Rand, budget int) error {
				for b := 0; b < budget; b++ {
					if err := forShards([]int{0, 2}, func(n int) error { return ringWaitRun(r, n) }); err != nil {
						return err
					}
				}
				return nil
			}},
	)
}

// ringWaitRun drives several processes through blocking-wait batches
// with partial reaps on one kernel: every submitted op must complete
// exactly once (counted through the completion callback), every parked
// waiter must wake, and the contract and replica-agreement checks must
// hold afterwards.
func ringWaitRun(r *rand.Rand, shards int) error {
	s, err := Boot(Config{Cores: 4, MemBytes: 256 << 20, Shards: shards})
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	const procs = 3
	const rounds = 4
	seed := r.Int63()
	errs := make(chan error, procs)
	var submitted, completed sync.Map // pid → op counts via callback
	for w := 0; w < procs; w++ {
		w := w
		_, err := s.Run(initSys, fmt.Sprintf("waiter%d", w), func(p *Process) int {
			rr := rand.New(rand.NewSource(seed + int64(w)))
			fail := func(f string, a ...any) int {
				errs <- fmt.Errorf("waiter %d: "+f, append([]any{w}, a...)...)
				return 1
			}
			fd, e := p.Sys.Open(fmt.Sprintf("/w%d", w), sys.OCreate|sys.ORdWr)
			if e != sys.EOK {
				return fail("open: %v", e)
			}
			subTotal, cbTotal := 0, 0
			for round := 0; round < rounds; round++ {
				n := 8 + rr.Intn(120) // some batches span multiple chunks
				ops := make([]sys.Op, n)
				for i := range ops {
					ops[i] = sys.OpWrite(fd, []byte{byte(i)})
				}
				cb := make(chan int, 1)
				b := p.Sys.NewBatch(sys.SubmitOptions{Wait: sys.WaitBlock,
					OnComplete: func(comps []sys.Completion, err error) { cb <- len(comps) }}).Add(ops...)
				if err := b.Submit(); err != nil {
					return fail("submit: %v", err)
				}
				subTotal += n
				// Partial reap first: at least half must be deliverable
				// before the batch is done, without consuming it.
				half := n / 2
				part, err := b.WaitN(half)
				if err != nil {
					return fail("waitN(%d): %v", half, err)
				}
				if len(part) < half {
					return fail("waitN(%d) returned %d completions", half, len(part))
				}
				comps, err := b.Wait()
				if err != nil {
					return fail("wait: %v", err)
				}
				if len(comps) != n {
					return fail("round %d: %d of %d completions", round, len(comps), n)
				}
				for i, c := range comps {
					if c.Errno != sys.EOK || c.Val != 1 {
						return fail("round %d op %d: errno %v val %d", round, i, c.Errno, c.Val)
					}
				}
				if _, err := b.Wait(); err != sys.ErrBatchReaped {
					return fail("second reap: %v", err)
				}
				cbTotal += <-cb
			}
			submitted.Store(w, subTotal)
			completed.Store(w, cbTotal)
			errs <- nil
			return 0
		})
		if err != nil {
			return err
		}
	}
	for w := 0; w < procs; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	s.WaitAll()
	for w := 0; w < procs; w++ {
		sub, _ := submitted.Load(w)
		got, _ := completed.Load(w)
		if sub != got {
			return fmt.Errorf("waiter %d: %v ops submitted, %v delivered via callback", w, sub, got)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		return fmt.Errorf("contract: %w", err)
	}
	return s.CheckReplicaAgreement()
}
