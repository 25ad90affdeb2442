package core

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// The sharded-composition verification conditions (§4.1 applied across
// NR instances instead of within one):
//
//   - shard-isolation: every piece of partitioned state lives only on
//     the shard its key maps to — descriptor tables on ShardOf(pid),
//     file contents on ShardOf(ino) — socket rows live only on process
//     shard 0, and the replicated namespace is identical everywhere.
//   - cross-shard-ordering: the two-step protocols (open, read/write
//     under descriptor locks, spawn/attach, detach/exit) survive
//     concurrent namespace churn without violating the per-syscall
//     contract, replica agreement, or structural invariants.
//
// That a partitioned kernel refines the co-located one — the same
// calls and batches give the same results, state and recovered files
// at every shard count — is the differential VC of internal/verifier/diff.
func registerShardObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "shard-isolation", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error { return shardIsolationWorkload(r) }},
		verifier.Obligation{Module: "core", Name: "cross-shard-ordering", Kind: verifier.KindSafety,
			Budget: func(r *rand.Rand, budget int) error {
				return crossShardOrderingWorkload(r, 6*budget)
			}},
	)
}

// forShards runs check at each shard count in turn, naming the count in
// the error of the first that fails.
func forShards(counts []int, check func(shards int) error) error {
	for _, n := range counts {
		if err := check(n); err != nil {
			return fmt.Errorf("Shards %d: %w", n, err)
		}
	}
	return nil
}

// shardIsolationWorkload spawns processes that hold open files and a
// socket, then inspects every kernel directly: a PID's descriptor table
// must exist only on its owner process shard, its socket rows only on
// process shard 0, file contents only on the inode's owner filesystem
// shard, and the namespace must be replicated intact.
func shardIsolationWorkload(r *rand.Rand) error {
	const shards, procs = 4, 8
	s, err := Boot(Config{Cores: 4, Shards: shards, MemBytes: 256 << 20})
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	block := make(chan struct{})
	var wg sync.WaitGroup
	pids := make([]proc.PID, procs)
	for i := 0; i < procs; i++ {
		i := i
		data := make([]byte, 64+r.Intn(64)) // outside the goroutine: rand.Rand is not goroutine-safe
		r.Read(data)
		wg.Add(1)
		p, err := s.Run(initSys, fmt.Sprintf("iso%d", i), func(p *Process) int {
			fd, e := p.Sys.Open(fmt.Sprintf("/f%d", i), fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				wg.Done()
				return 1
			}
			_, _ = p.Sys.Write(fd, data)
			_, _ = p.Sys.SockBind(0)
			wg.Done()
			<-block
			_ = p.Sys.Close(fd)
			return 0
		})
		if err != nil {
			return err
		}
		pids[i] = p.PID
	}
	wg.Wait() // every process holds its descriptor and a socket, and has written data

	// Descriptor tables live only with their owner process shard; socket
	// rows, a global relation, only on process shard 0.
	for _, pid := range pids {
		owner := s.ProcShardOf(pid)
		for i := 0; i < shards; i++ {
			var has bool
			var socks int
			s.InspectProcShard(i, 0, func(k *sys.Kernel) {
				_, has = k.ViewFDs(pid)
				socks = len(k.ViewSockTab(pid).Socks)
			})
			if has != (i == owner) {
				return fmt.Errorf("pid %d: fd table present=%v on proc shard %d, owner is %d",
					pid, has, i, owner)
			}
			if (socks > 0) != (i == 0) {
				return fmt.Errorf("pid %d: %d socket rows on proc shard %d", pid, socks, i)
			}
		}
	}
	// File contents live only with their owner filesystem shard.
	for i := 0; i < shards; i++ {
		var inos []fs.Ino
		s.InspectFsShard(i, 0, func(k *sys.Kernel) { inos = k.FS().InodesWithData() })
		for _, ino := range inos {
			if s.FsShardOf(ino) != i {
				return fmt.Errorf("ino %d has data on fs shard %d, owner is %d", ino, i, s.FsShardOf(ino))
			}
		}
	}
	close(block)
	s.WaitAll()
	for range pids {
		if _, e := initSys.Wait(); e != sys.EOK {
			return fmt.Errorf("wait: %v", e)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		return err
	}
	// Namespace replication + per-shard replica agreement.
	if err := s.CheckReplicaAgreement(); err != nil {
		return err
	}
	return s.CheckKernelInvariants()
}

// crossShardOrderingWorkload drives the full random workload on a
// sharded kernel while a churner hammers the broadcast namespace path
// (create/rename/link/unlink in a private directory) from another
// handler — interleaving every two-step protocol with namespace
// mutations on all shards.
func crossShardOrderingWorkload(r *rand.Rand, procs int) error {
	s, err := Boot(Config{Cores: 8, Shards: 4, MemBytes: 256 << 20})
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	if e := initSys.Mkdir("/tmp"); e != sys.EOK {
		return fmt.Errorf("mkdir: %v", e)
	}
	if e := initSys.Mkdir("/churn"); e != sys.EOK {
		return fmt.Errorf("mkdir churn: %v", e)
	}
	h, err := s.newHandler(s.pickCore())
	if err != nil {
		return err
	}
	churner := sys.NewSys(proc.InitPID, h)
	stop := make(chan struct{})
	churnErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				churnErr <- nil
				return
			default:
			}
			a := fmt.Sprintf("/churn/a%d", i%7)
			b := fmt.Sprintf("/churn/b%d", i%7)
			fd, e := churner.Open(a, fs.OCreate|fs.OWrOnly)
			if e != sys.EOK {
				churnErr <- fmt.Errorf("churn open: %v", e)
				return
			}
			if _, e := churner.Write(fd, []byte("x")); e != sys.EOK {
				churnErr <- fmt.Errorf("churn write: %v", e)
				return
			}
			if e := churner.Close(fd); e != sys.EOK {
				churnErr <- fmt.Errorf("churn close: %v", e)
				return
			}
			if e := churner.Rename(a, b); e != sys.EOK {
				churnErr <- fmt.Errorf("churn rename: %v", e)
				return
			}
			if e := churner.Link(b, a); e != sys.EOK {
				churnErr <- fmt.Errorf("churn link: %v", e)
				return
			}
			if e := churner.Unlink(a); e != sys.EOK {
				churnErr <- fmt.Errorf("churn unlink: %v", e)
				return
			}
			if e := churner.Unlink(b); e != sys.EOK {
				churnErr <- fmt.Errorf("churn unlink b: %v", e)
				return
			}
		}
	}()
	errs := make(chan error, procs)
	for i := 0; i < procs; i++ {
		i := i
		seed := r.Int63()
		if _, err := s.Run(initSys, fmt.Sprintf("ord%d", i), func(p *Process) int {
			errs <- workerBody(p, i, seed)
			return 0
		}); err != nil {
			return err
		}
	}
	for i := 0; i < procs; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	close(stop)
	if err := <-churnErr; err != nil {
		return err
	}
	s.WaitAll()
	for i := 0; i < procs; i++ {
		if _, e := initSys.Wait(); e != sys.EOK {
			return fmt.Errorf("wait: %v", e)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		return err
	}
	if err := churner.ContractErr(); err != nil {
		return err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return err
	}
	return s.CheckKernelInvariants()
}
