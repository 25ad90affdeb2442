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
//   - sharded-refines-single-machine-spec: a scripted syscall sequence
//     produces byte-identical responses on a sharded kernel and on the
//     monolithic single-NR kernel — the sharding is invisible through
//     the syscall interface.
//   - sharded-batch-refines-monolithic-batch: the same for submitted
//     batches, whose descriptor runs the sharded kernel executes as one
//     owner-shard transition each (the Run rule, shard_router.go) where
//     the monolith applies a contiguous vector: identical completions,
//     cursors and contents.
func registerShardObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "shard-isolation", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error { return shardIsolationWorkload(r) }},
		verifier.Obligation{Module: "core", Name: "cross-shard-ordering", Kind: verifier.KindSafety,
			Budget: func(r *rand.Rand, budget int) error {
				return crossShardOrderingWorkload(r, 6*budget)
			}},
		verifier.Obligation{Module: "core", Name: "sharded-refines-single-machine-spec", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error { return shardRefinementCheck(r) }},
		verifier.Obligation{Module: "core", Name: "sharded-batch-refines-monolithic-batch", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error { return shardBatchRefinementCheck(r) }},
	)
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

// shardRefinementCheck runs one scripted syscall sequence against a
// monolithic kernel and a 4-shard kernel and requires identical
// observable behavior: same errnos, same values, same bytes. This is
// the composition's refinement obligation — the sharded machine
// implements the same single-machine specification.
func shardRefinementCheck(r *rand.Rand) error {
	seed := r.Int63()
	mono, err := shardScriptTrace(Config{Cores: 2, MemBytes: 256 << 20}, seed)
	if err != nil {
		return fmt.Errorf("monolithic run: %w", err)
	}
	shrd, err := shardScriptTrace(Config{Cores: 2, Shards: 4, MemBytes: 256 << 20}, seed)
	if err != nil {
		return fmt.Errorf("sharded run: %w", err)
	}
	return diffTraces(mono, shrd)
}

// diffTraces requires two rendered traces to be identical, naming the
// first step that is not.
func diffTraces(mono, shrd []string) error {
	for i := range mono {
		if i >= len(shrd) || mono[i] != shrd[i] {
			got := "(trace ends)"
			if i < len(shrd) {
				got = shrd[i]
			}
			return fmt.Errorf("trace step %d diverged:\n  monolithic: %s\n  sharded:    %s", i, mono[i], got)
		}
	}
	if len(mono) != len(shrd) {
		return fmt.Errorf("trace lengths differ: monolithic %d, sharded %d", len(mono), len(shrd))
	}
	return nil
}

// shardScriptTrace boots cfg and runs a fixed syscall script, rendering
// every observable result (errno, value, data) to a string trace.
func shardScriptTrace(cfg Config, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := Boot(cfg)
	if err != nil {
		return nil, err
	}
	initSys, err := s.Init()
	if err != nil {
		return nil, err
	}
	var trace []string
	rec := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }

	rec("mkdir /a: %v", initSys.Mkdir("/a"))
	rec("mkdir /a: %v", initSys.Mkdir("/a")) // EEXIST both ways
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/a/f%d", i)
		fd, e := initSys.Open(path, fs.OCreate|fs.ORdWr)
		rec("open %s: fd=%d %v", path, fd, e)
		data := make([]byte, 100+rng.Intn(400))
		rng.Read(data)
		n, e := initSys.Write(fd, data)
		rec("write %s: n=%d %v", path, n, e)
		pos, e := initSys.Seek(fd, int64(-rng.Intn(50)), fs.SeekEnd)
		rec("seek %s: pos=%d %v", path, pos, e)
		buf := make([]byte, 64)
		n, e = initSys.Read(fd, buf)
		rec("read %s: n=%d %x %v", path, n, buf[:n], e)
		if i%2 == 0 {
			e = initSys.Truncate(fd, uint64(rng.Intn(100)))
			rec("truncate %s: %v", path, e)
		}
		rec("close %s: %v", path, initSys.Close(fd))
		st, e := initSys.Stat(path)
		rec("stat %s: size=%d %v", path, st.Size, e)
	}
	rec("rename: %v", initSys.Rename("/a/f0", "/a/g0"))
	rec("link: %v", initSys.Link("/a/g0", "/a/h0"))
	rec("unlink: %v", initSys.Unlink("/a/f1"))
	rec("unlink missing: %v", initSys.Unlink("/a/f1"))
	ents, e := initSys.ReadDir("/a")
	rec("readdir: %d %v", len(ents), e)
	for _, ent := range ents {
		st, e := initSys.Stat("/a/" + ent.Name)
		rec("stat /a/%s: size=%d nlink=%d %v", ent.Name, st.Size, st.Nlink, e)
	}
	// Process lifecycle: spawn, child does file I/O, exit, reap.
	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		_, err := s.Run(initSys, fmt.Sprintf("c%d", i), func(p *Process) int {
			fd, e := p.Sys.Open("/a/g0", fs.ORdOnly)
			rec("child open: fd=%d %v", fd, e)
			pid, e := p.Sys.GetPID()
			rec("child getpid: %d %v", pid, e)
			rec("child close: %v", p.Sys.Close(fd))
			close(done)
			return 10 + i
		})
		if err != nil {
			return nil, err
		}
		<-done
		s.WaitAll()
		res, e := initSys.Wait()
		rec("wait: pid=%d code=%d %v", res.PID, res.ExitCode, e)
	}
	rec("read badfd: %v", func() sys.Errno { _, e := initSys.Read(9999, make([]byte, 4)); return e }())
	rec("open missing: %v", func() sys.Errno { _, e := initSys.Open("/nope/x", fs.ORdOnly); return e }())
	rec("rmdir nonempty: %v", initSys.Rmdir("/a"))
	if err := initSys.ContractErr(); err != nil {
		return nil, err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return nil, err
	}
	if err := s.CheckKernelInvariants(); err != nil {
		return nil, err
	}
	return trace, nil
}

// shardBatchRefinementCheck submits one random sequence of batches to a
// monolithic kernel and to a 4-shard kernel and requires byte-identical
// completions, final cursors, sizes and contents. The monolith applies
// a batch as one contiguous ExecuteBatch vector, each descriptor run one
// NumFDRun entry of it; the sharded kernel applies each run as a single
// NumFsRun on the inode's owner between the descriptor's lock and unlock,
// so this is the obligation that the protocol refines the one transition
// (that a run threads the cursor exactly as the per-op transitions would
// is sys:batch-refines-sequential). The sharded boot takes small shard
// logs: eight default rings are 136 MB the check has no use for.
func shardBatchRefinementCheck(r *rand.Rand) error {
	seed := r.Int63()
	mono, err := shardBatchTrace(Config{Cores: 2, MemBytes: 256 << 20}, seed)
	if err != nil {
		return fmt.Errorf("monolithic run: %w", err)
	}
	shrd, err := shardBatchTrace(Config{Cores: 2, Shards: 4, MemBytes: 256 << 20}, seed)
	if err != nil {
		return fmt.Errorf("sharded run: %w", err)
	}
	return diffTraces(mono, shrd)
}

// shardBatchTrace boots cfg, submits seeded random batches, and renders
// every completion and the final state to a string trace. The script is
// a function of the seed alone: descriptor numbers are predicted (every
// open below succeeds), never read back from a completion.
//
// The mix is chosen for what a run must get right: reads, writes and
// seeks with every whence (one invalid) and negative offsets; an
// OAppend descriptor, whose writes must resolve EOF entry by entry; a
// read-only and a write-only descriptor, whose EPERM entries sit
// mid-run and must not move the cursor; closed descriptors, on which a
// whole run fails alike; zero-length writes and reads past EOF; a
// second descriptor on the same inode; an op usually staying on the
// previous one's descriptor, so runs form, and sometimes not, so they
// break; and open/close/truncate between runs.
func shardBatchTrace(cfg Config, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := Boot(cfg)
	if err != nil {
		return nil, err
	}
	initSys, err := s.Init()
	if err != nil {
		return nil, err
	}
	var trace []string
	rec := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }

	paths := []string{"/p", "/q"}
	modes := []sys.OpenFlag{sys.ORdWr, sys.ORdOnly, sys.OWrOnly, sys.OWrOnly | sys.OAppend, sys.ORdWr | sys.OAppend}
	var fds []fs.FD // open or closed: a closed one is a case, not a mistake
	open := func(path string, flags sys.OpenFlag) error {
		fd, e := initSys.Open(path, flags)
		if e != sys.EOK {
			return fmt.Errorf("open %s: %v", path, e)
		}
		fds = append(fds, fd)
		return nil
	}
	for _, o := range []struct {
		path  string
		flags sys.OpenFlag
	}{
		{"/p", sys.OCreate | sys.ORdWr}, {"/q", sys.OCreate | sys.ORdWr}, {"/p", sys.ORdWr},
		{"/p", sys.OWrOnly | sys.OAppend}, {"/q", sys.ORdOnly}, {"/q", sys.OWrOnly},
	} {
		if err := open(o.path, o.flags); err != nil {
			return nil, err
		}
	}
	nextFD := fds[len(fds)-1] + 1

	for b := 0; b < 24; b++ {
		ops := make([]sys.Op, 1+rng.Intn(24))
		fd := fds[rng.Intn(len(fds))]
		// A descriptor joins the pool in the batch after the one that
		// opens it: the ring's contract replay does not track descriptors
		// opened inside a batch, and takes a write through one to an
		// inode a tracked descriptor shares for a violation.
		var opened []fs.FD
		for i := range ops {
			if rng.Intn(10) < 3 {
				fd = fds[rng.Intn(len(fds))]
			}
			switch k := rng.Intn(40); {
			case k < 14:
				data := make([]byte, rng.Intn(6)*rng.Intn(60)) // one in six empty
				rng.Read(data)
				ops[i] = sys.OpWrite(fd, data)
			case k < 24:
				ops[i] = sys.OpRead(fd, uint64(rng.Intn(400)))
			case k < 34:
				ops[i] = sys.OpSeek(fd, int64(rng.Intn(3000))-400, rng.Intn(4))
			case k < 36:
				ops[i] = sys.OpTruncate(fd, uint64(rng.Intn(2500)))
			case k < 37:
				ops[i] = sys.OpClose(fd) // stays in fds: later entries on it fail
			default:
				ops[i] = sys.OpOpen(paths[rng.Intn(len(paths))], modes[rng.Intn(len(modes))])
				opened = append(opened, nextFD)
				nextFD++
			}
		}
		fds = append(fds, opened...)
		comps, e := initSys.SubmitWait(ops)
		if e != sys.EOK {
			return nil, fmt.Errorf("batch %d: %v", b, e)
		}
		for i, c := range comps {
			rec("batch %d op %d %s: %v val=%d data=%x", b, i, sys.OpName(c.Op), c.Errno, c.Val, c.Data)
		}
	}

	for _, fd := range fds {
		pos, e := initSys.Seek(fd, 0, fs.SeekCur)
		rec("cursor fd %d: %d %v", fd, pos, e)
	}
	for _, path := range paths {
		st, e := initSys.Stat(path)
		rec("stat %s: size=%d %v", path, st.Size, e)
		fd, e := initSys.Open(path, sys.ORdOnly)
		if e != sys.EOK {
			return nil, fmt.Errorf("reopen %s: %v", path, e)
		}
		buf := make([]byte, st.Size+1)
		n, e := initSys.Read(fd, buf)
		rec("contents %s: n=%d %x %v", path, n, buf[:n], e)
	}
	if err := initSys.ContractErr(); err != nil {
		return nil, err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return nil, err
	}
	return trace, s.CheckKernelInvariants()
}
