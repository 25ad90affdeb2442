package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// TestRingConcurrentSubmit is the ring's -race stress: multiple
// processes on different cores/replicas, each reaping batched
// submissions with a scalar syscall between each submit and its Wait. Afterwards every replica must agree and
// no contract may have tripped.
func TestRingConcurrentSubmit(t *testing.T) {
	s, initSys := bootTest(t, 28) // two replicas
	const (
		workers = 6
		rounds  = 20
		batch   = 8
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		_, err := s.Run(initSys, fmt.Sprintf("ring-worker%d", w), func(p *Process) int {
			path := fmt.Sprintf("/ring-%d", p.PID)
			fd, e := p.Sys.Open(path, fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				errs <- fmt.Errorf("open: %v", e)
				return 1
			}
			for r := 0; r < rounds; r++ {
				ops := make([]sys.Op, 0, batch+2)
				for i := 0; i < batch; i++ {
					ops = append(ops, sys.OpWrite(fd, []byte(fmt.Sprintf("r%d-i%d;", r, i))))
				}
				ops = append(ops, sys.OpSeek(fd, 0, fs.SeekSet), sys.OpRead(fd, 32))
				// Submit, then a scalar syscall on the same handle before
				// the batch's reaper carries it across.
				b := p.Sys.SubmitOpts(ops, sys.SubmitOptions{})
				if _, e := p.Sys.GetPID(); e != sys.EOK {
					errs <- fmt.Errorf("getpid during batch: %v", e)
					return 1
				}
				comps, err := b.Wait()
				if err != nil {
					errs <- fmt.Errorf("round %d: batch error %v", r, err)
					return 1
				}
				for i, c := range comps {
					if c.Errno != sys.EOK {
						errs <- fmt.Errorf("round %d op %d (%s): %v", r, i, sys.OpName(c.Op), c.Errno)
						return 1
					}
				}
			}
			if e := p.Sys.Close(fd); e != sys.EOK {
				errs <- fmt.Errorf("close: %v", e)
				return 1
			}
			errs <- nil
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	s.WaitAll()
	for w := 0; w < workers; w++ {
		if _, e := initSys.Wait(); e != sys.EOK {
			t.Fatalf("wait: %v", e)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		t.Errorf("init contract: %v", err)
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Error(err)
	}
	if err := s.CheckKernelInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRingReapStress: four processes per kernel each queue batches and
// reap them out of order from two goroutines on their handle, three
// times over, with the contract on (ringReapRun). Runs under -race in
// CI: the reapers of one handle share its queue and its witness slot.
func TestRingReapStress(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		for round := int64(0); round < 3; round++ {
			if err := ringReapRun(s, initSys, 4, 6, round); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestLaggingReplicaAppliesReusedBatches runs the
// ring-lagging-replica-reuse VC (laggingReplicaRun) on both kernels over
// a few seeds: a replica that applies two batches after the handle and
// the handler have reused every buffer the first crossed in reads the
// first batch's bytes and then the second's.
func TestLaggingReplicaAppliesReusedBatches(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		for seed := int64(0); seed < 3; seed++ {
			if err := laggingReplicaRun(shards, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}

// TestRingBatchContractEndToEnd drives a batch through the real NR
// dispatch path and checks the per-process contract saw nothing wrong,
// plus the ENOSYS fencing for non-batchable ops smuggled into a frame.
func TestRingBatchContractEndToEnd(t *testing.T) {
	s, initSys := bootTest(t, 2)
	comps, e := initSys.SubmitWait([]sys.Op{
		sys.OpMkdir("/e2e"),
		sys.OpOpen("/e2e/f", sys.OCreate|sys.ORdWr),
	})
	if e != sys.EOK {
		t.Fatal(e)
	}
	fd := fs.FD(comps[1].Val)
	comps, e = initSys.SubmitWait([]sys.Op{
		sys.OpWrite(fd, []byte("batched through the combiner")),
		sys.OpSeek(fd, 8, fs.SeekSet),
		sys.OpRead(fd, 7),
		sys.OpClose(fd),
	})
	if e != sys.EOK {
		t.Fatal(e)
	}
	if string(comps[2].Data) != "through" {
		t.Errorf("batched read = %q", comps[2].Data)
	}
	if err := initSys.ContractErr(); err != nil {
		t.Fatalf("contract: %v", err)
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Fatal(err)
	}
}
