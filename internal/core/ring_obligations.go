package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerRingReapObligations: a batch crosses on its reaper, composed
// with the real kernel. The sys-level ring-reapers-fifo-exactly-once VC
// sweeps reaper arrival orders against a gated direct handler; this one
// discharges the end-to-end form — several processes queueing batches
// and reaping them out of order from two goroutines per handle, against
// real combiner rounds — on the monolithic and the sharded kernel, per
// the §4.3 compose-per-service methodology. ring-lagging-replica-reuse
// discharges the ownership rule that lets a batch's buffers be reused:
// a replica that applies a batch after its handle and handler have
// reused every buffer it crossed in still applies that batch's bytes.
func registerRingReapObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "ring-lagging-replica-reuse", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				return forShards([]int{0, 2}, func(n int) error { return laggingReplicaRun(n, r) })
			}},
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

// laggingReplicaRun boots a two-replica kernel on the given shards, with
// a writer handle on core 0 and a reader handle on the second replica's
// first core. The writer writes batch A — a seek and sixteen 64-byte
// writes — and then batch B, the next 1 KiB, from the same payload
// slices overwritten with B's bytes: B crosses in the request vector and
// request buffer A crossed in, and is decoded and folded into the
// handler's buffers A was. Only then does the reader pread the file, so
// its replica applies A's and B's log entries after all of that reuse.
// It must read A's bytes and then B's, and the contract and replica
// agreement must hold.
func laggingReplicaRun(shards int, r *rand.Rand) error {
	s, err := Boot(Config{Cores: 2 * CoresPerNode, Shards: shards})
	if err != nil {
		return err
	}
	if s.NumReplicas() != 2 {
		return fmt.Errorf("%d replicas, want 2", s.NumReplicas())
	}
	init, err := s.Init()
	if err != nil {
		return err
	}
	var hs [2]*sys.Sys
	for i, core := range []int{0, CoresPerNode} {
		if hs[i], err = s.RawSysOn(init.PID(), core); err != nil {
			return err
		}
		hs[i].EnableContract()
	}
	writer, reader := hs[0], hs[1]
	fd, e := writer.Open("/lagging", sys.OCreate|sys.ORdWr)
	if e != sys.EOK {
		return fmt.Errorf("open: %v", e)
	}
	bufs := make([][]byte, 16)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	var want []byte
	for b := 0; b < 2; b++ {
		ops := []sys.Op{sys.OpSeek(fd, int64(b*len(bufs)*64), fs.SeekSet)}
		for _, buf := range bufs {
			r.Read(buf)
			want = append(want, buf...)
			ops = append(ops, sys.OpWrite(fd, buf))
		}
		comps, e := writer.SubmitWait(ops)
		if e != sys.EOK {
			return fmt.Errorf("batch %d: %v", b, e)
		}
		for i, c := range comps {
			if c.Errno != sys.EOK {
				return fmt.Errorf("batch %d op %d: %v", b, i, c.Errno)
			}
		}
	}
	got := make([]byte, len(want)+1)
	m, e := reader.Pread(fd, got, 0)
	if e != sys.EOK || !bytes.Equal(got[:m], want) {
		return fmt.Errorf("the lagging replica read %d bytes (%v), not batch A's %d and then batch B's %d",
			m, e, len(want)/2, len(want)/2)
	}
	for i, h := range hs {
		if err := h.ContractErr(); err != nil {
			return fmt.Errorf("handle %d: %w", i, err)
		}
	}
	return s.CheckReplicaAgreement()
}
