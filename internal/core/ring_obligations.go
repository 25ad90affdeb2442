package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerRingReapObligations: a batch crosses on its reaper, composed
// with the real kernel. The sys-level ring-reapers-fifo-exactly-once VC
// sweeps reaper arrival orders against a gated direct handler; this one
// discharges the end-to-end form — several processes queueing batches
// and reaping them out of order from two goroutines per handle, against
// real combiner rounds — on the monolithic and the sharded kernel, per
// the §4.3 compose-per-service methodology.
func registerRingReapObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "ring-reapers-fifo-exactly-once", Kind: verifier.KindModelCheck,
			Budget: func(r *rand.Rand, budget int) error {
				for b := 0; b < budget; b++ {
					if err := forShards([]int{0, 2}, func(n int) error {
						s, err := Boot(Config{Cores: 4, MemBytes: 256 << 20, Shards: n})
						if err != nil {
							return err
						}
						initSys, err := s.Init()
						if err != nil {
							return err
						}
						return ringReapRun(s, initSys, 3, 4, r.Int63())
					}); err != nil {
						return err
					}
				}
				return nil
			}},
	)
}

// ringReapRun runs procs children of initSys on s, each queueing
// batches batches of one-byte writes on a file of its own and then
// reaping them out of order from two goroutines (reapOutOfOrder);
// afterwards the contract and replica agreement must hold.
func ringReapRun(s *System, initSys *sys.Sys, procs, batches int, seed int64) error {
	errs := make(chan error, procs)
	for w := 0; w < procs; w++ {
		_, err := s.Run(initSys, fmt.Sprintf("reaper%d", w), func(p *Process) int {
			err := reapOutOfOrder(p.Sys, rand.New(rand.NewSource(seed+int64(w))), fmt.Sprintf("/reap%d-%d", seed, w), batches)
			if err == nil {
				err = p.Sys.ContractErr()
			}
			if err != nil {
				err = fmt.Errorf("reaper %d: %w", w, err)
			}
			errs <- err
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
	if err := initSys.ContractErr(); err != nil {
		return fmt.Errorf("contract: %w", err)
	}
	return s.CheckReplicaAgreement()
}

// reapOutOfOrder queues n batches of 8–127 one-byte writes on a new
// file at path, then two goroutines on the handle reap them, each its
// half in a shuffled order. Every Wait must return its own batch, and
// the file must hold every write exactly once, in submission order.
func reapOutOfOrder(sc *sys.Sys, r *rand.Rand, path string, n int) error {
	fd, e := sc.Open(path, sys.OCreate|sys.ORdWr)
	if e != sys.EOK {
		return fmt.Errorf("open: %v", e)
	}
	var want []byte
	bs := make([]*sys.Batch, n)
	for b := range bs {
		ops := make([]sys.Op, 8+r.Intn(120))
		for i := range ops {
			d := []byte{byte(r.Intn(256))}
			ops[i] = sys.OpWrite(fd, d)
			want = append(want, d...)
		}
		bs[b] = sc.SubmitOpts(ops, sys.SubmitOptions{})
	}
	order := r.Perm(n)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, mine := range [][]int{order[:n/2], order[n/2:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range mine {
				comps, err := bs[b].Wait()
				if err != nil || len(comps) != bs[b].Len() {
					errs <- fmt.Errorf("batch %d: %d completions for %d ops, %v", b, len(comps), bs[b].Len(), err)
					return
				}
				for i, c := range comps {
					if c.Errno != sys.EOK || c.Val != 1 {
						errs <- fmt.Errorf("batch %d op %d: %v val %d", b, i, c.Errno, c.Val)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	got := make([]byte, len(want)+1)
	m, e := sc.Pread(fd, got, 0)
	if e != sys.EOK || !bytes.Equal(got[:m], want) {
		return fmt.Errorf("the file holds %d bytes (%v), not the %d writes once each in submission order", m, e, len(want))
	}
	if e := sc.Close(fd); e != sys.EOK {
		return fmt.Errorf("close: %v", e)
	}
	return nil
}
