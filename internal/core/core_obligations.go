package core

import (
	"fmt"
	"math/rand"
	"runtime"

	"github.com/verified-os/vnros/internal/dev"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/machine"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/lin"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
	"github.com/verified-os/vnros/internal/relwork"
	"github.com/verified-os/vnros/internal/sched"
	"github.com/verified-os/vnros/internal/spec/sm"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/ulib"
	"github.com/verified-os/vnros/internal/verifier"
	"github.com/verified-os/vnros/internal/wal"
	"github.com/verified-os/vnros/internal/walshard"
)

// RegisterAllObligations registers every module's verification
// conditions plus the whole-system ones below — the full VC set behind
// Figure 1a and the cmd/vnros-verify report.
func RegisterAllObligations(g *verifier.Registry) {
	mem.RegisterObligations(g)
	mmu.RegisterObligations(g)
	machine.RegisterObligations(g)
	sm.RegisterObligations(g)
	lin.RegisterObligations(g)
	nr.RegisterObligations(g)
	pt.RegisterObligations(g)
	mm.RegisterObligations(g)
	marshal.RegisterObligations(g)
	fs.RegisterObligations(g)
	sched.RegisterObligations(g)
	proc.RegisterObligations(g)
	dev.RegisterObligations(g)
	netstack.RegisterObligations(g)
	sys.RegisterObligations(g)
	pcache.RegisterObligations(g)
	ulib.RegisterObligations(g, newUlibEnv())
	wal.RegisterObligations(g)
	walshard.RegisterObligations(g)
	relwork.RegisterObligations(g)
	verifier.RegisterObligations(g)
	RegisterObligations(g)
}

// RegisterObligations registers the composed-system verification
// conditions: the end-to-end refinement story of §4.4 — concurrent user
// programs drive the full stack, the per-syscall contract holds, the
// kernel replicas agree, and the structural invariants survive.
func RegisterObligations(g *verifier.Registry) {
	registerMoreObligations(g)
	registerEvenMoreObligations(g)
	registerShardObligations(g)
	registerNetObligations(g)
	registerRingReapObligations(g)
	registerPCacheObligations(g)
	g.Register(
		verifier.Obligation{Module: "core", Name: "end-to-end-contract-holds", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error { return endToEndWorkload(r, 2, 3) }},
		verifier.Obligation{Module: "core", Name: "replicas-agree-multicore", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error { return endToEndWorkload(r, 16, 4) }},
		verifier.Obligation{Module: "core", Name: "persistence-across-reboot", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error { return rebootWorkload(r) }},
		verifier.Obligation{Module: "core", Name: "wal-crash-recovery-end-to-end", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error { return walCrashWorkload(r) }},
		verifier.Obligation{Module: "core", Name: "futex-mutex-cross-process-memory", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error { return futexWorkload(r) }},
	)
}

// endToEndWorkload boots a system and runs concurrent user programs
// doing file, process, and memory syscalls, then checks the contract,
// replica agreement, and invariants.
func endToEndWorkload(r *rand.Rand, cores, procs int) error {
	s, err := Boot(Config{Cores: cores, MemBytes: 256 << 20})
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
	errs := make(chan error, procs)
	for i := 0; i < procs; i++ {
		i := i
		seed := r.Int63()
		_, err := s.Run(initSys, fmt.Sprintf("worker%d", i), func(p *Process) int {
			if err := workerBody(p, i, seed); err != nil {
				errs <- err
				return 1
			}
			errs <- nil
			return 0
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < procs; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	s.WaitAll()
	// Reap the children.
	for i := 0; i < procs; i++ {
		if _, e := initSys.Wait(); e != sys.EOK {
			return fmt.Errorf("wait %d: %v", i, e)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		return err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return err
	}
	return s.CheckKernelInvariants()
}

// workerBody is the random per-process workload.
func workerBody(p *Process, idx int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	path := fmt.Sprintf("/tmp/w%d", idx)
	fd, e := p.Sys.Open(path, fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		return fmt.Errorf("open: %v", e)
	}
	// Memory: map, fill, verify.
	base, e := p.Sys.MMap(2 * 4096)
	if e != sys.EOK {
		return fmt.Errorf("mmap: %v", e)
	}
	blob := make([]byte, 5000)
	r.Read(blob)
	if e := p.Sys.MemWrite(base, blob); e != sys.EOK {
		return fmt.Errorf("memwrite: %v", e)
	}
	for i := 0; i < 30; i++ {
		data := make([]byte, r.Intn(200))
		r.Read(data)
		if _, e := p.Sys.Write(fd, data); e != sys.EOK {
			return fmt.Errorf("write: %v", e)
		}
		if _, e := p.Sys.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
			return fmt.Errorf("seek: %v", e)
		}
		if _, e := p.Sys.Read(fd, make([]byte, r.Intn(300))); e != sys.EOK {
			return fmt.Errorf("read: %v", e)
		}
	}
	got := make([]byte, len(blob))
	if e := p.Sys.MemRead(base, got); e != sys.EOK {
		return fmt.Errorf("memread: %v", e)
	}
	for i := range got {
		if got[i] != blob[i] {
			return fmt.Errorf("user memory corrupted at %d", i)
		}
	}
	if e := p.Sys.MUnmap(base); e != sys.EOK {
		return fmt.Errorf("munmap: %v", e)
	}
	if e := p.Sys.Close(fd); e != sys.EOK {
		return fmt.Errorf("close: %v", e)
	}
	return p.Sys.ContractErr()
}

// rebootWorkload writes files, snapshots to disk, "reboots" into a new
// system over the same disk contents, and verifies the files.
func rebootWorkload(r *rand.Rand) error {
	s1, err := Boot(Config{Cores: 2, MemBytes: 256 << 20})
	if err != nil {
		return err
	}
	init1, err := s1.Init()
	if err != nil {
		return err
	}
	payload := make([]byte, 4000)
	r.Read(payload)
	fd, e := init1.Open("/persistent.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		return fmt.Errorf("open: %v", e)
	}
	if _, e := init1.Write(fd, payload); e != sys.EOK {
		return fmt.Errorf("write: %v", e)
	}
	if e := init1.Close(fd); e != sys.EOK {
		return fmt.Errorf("close: %v", e)
	}
	if err := s1.SaveFS(); err != nil {
		return err
	}

	// "Move the disk" into a new machine and boot from it.
	s3, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, RestoreFS: true, BootDisk: s1.BlockDev})
	if err != nil {
		return err
	}
	init3, err := s3.Init()
	if err != nil {
		return err
	}
	fd3, e := init3.Open("/persistent.dat", fs.ORdOnly)
	if e != sys.EOK {
		return fmt.Errorf("open after reboot: %v", e)
	}
	got := make([]byte, len(payload))
	if n, e := init3.Read(fd3, got); e != sys.EOK || int(n) != len(payload) {
		return fmt.Errorf("read after reboot: %d, %v", n, e)
	}
	for i := range got {
		if got[i] != payload[i] {
			return fmt.Errorf("persisted data corrupted at %d", i)
		}
	}
	return nil
}

// walCrashWorkload is the composed-system crash story: a journaled
// system runs file mutations, Syncs some of them, then "loses power"
// (the System is simply abandoned — no SaveFS). A new system boots from
// the same disk and must see every synced mutation (journal replay),
// while never observing a torn state. The final write after the last
// Sync is allowed to survive or vanish; the contract only promises the
// prefix.
func walCrashWorkload(r *rand.Rand) error {
	s1, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, WAL: true})
	if err != nil {
		return err
	}
	init1, err := s1.Init()
	if err != nil {
		return err
	}
	synced := make(map[string][]byte)
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/f%d", i)
		payload := make([]byte, 100+r.Intn(2000))
		r.Read(payload)
		fd, e := init1.Open(path, fs.OCreate|fs.ORdWr)
		if e != sys.EOK {
			return fmt.Errorf("open %s: %v", path, e)
		}
		if _, e := init1.Write(fd, payload); e != sys.EOK {
			return fmt.Errorf("write %s: %v", path, e)
		}
		if e := init1.Close(fd); e != sys.EOK {
			return fmt.Errorf("close %s: %v", path, e)
		}
		if e := init1.Sync(); e != sys.EOK {
			return fmt.Errorf("sync %d: %v", i, e)
		}
		synced[path] = payload
	}
	// One unsynced straggler: may or may not survive the crash, but the
	// synced set must.
	if fd, e := init1.Open("/unsynced", fs.OCreate|fs.ORdWr); e == sys.EOK {
		_, _ = init1.Write(fd, []byte("straggler"))
		_ = init1.Close(fd)
	}
	// Crash: no SaveFS, no shutdown. Boot a second system from the
	// frozen disk and recover through the journal.
	s2, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, WAL: true, RestoreFS: true, BootDisk: s1.BlockDev})
	if err != nil {
		return err
	}
	init2, err := s2.Init()
	if err != nil {
		return err
	}
	for path, payload := range synced {
		fd, e := init2.Open(path, fs.ORdOnly)
		if e != sys.EOK {
			return fmt.Errorf("after crash: open %s: %v (synced mutation lost)", path, e)
		}
		got := make([]byte, len(payload))
		if n, e := init2.Read(fd, got); e != sys.EOK || int(n) != len(payload) {
			return fmt.Errorf("after crash: read %s: %d bytes, %v", path, n, e)
		}
		for i := range got {
			if got[i] != payload[i] {
				return fmt.Errorf("after crash: %s corrupted at byte %d", path, i)
			}
		}
		if e := init2.Close(fd); e != sys.EOK {
			return fmt.Errorf("after crash: close %s: %v", path, e)
		}
	}
	if err := s2.CheckReplicaAgreement(); err != nil {
		return err
	}
	return s2.CheckKernelInvariants()
}

// futexWorkload runs two threads of one process contending on a
// futex-word mutex living in the process's mapped memory, checking
// mutual exclusion of a critical section that increments a file-backed
// counter.
func futexWorkload(r *rand.Rand) error {
	s, err := Boot(Config{Cores: 2, MemBytes: 256 << 20})
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	_, err = s.Run(initSys, "locker", func(p *Process) int {
		done <- futexBody(p)
		return 0
	})
	if err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	s.WaitAll()
	return nil
}

// futexBody exercises FutexWait/FutexWake directly. Fifty times, on
// fifty distinct words of one mapping, it runs the classic lost-wakeup
// race: a waiter checks the word and parks while the main flow flips
// the word and wakes. The kernel's check-and-enqueue is atomic with
// respect to wake, so no schedule loses the wakeup — the property every
// ulib primitive is built on.
func futexBody(p *Process) error {
	base, e := p.Sys.MMap(4096)
	if e != sys.EOK {
		return fmt.Errorf("mmap: %v", e)
	}
	// Wait with wrong expectation returns EAGAIN immediately.
	if e := p.Sys.FutexWait(base, 7); e != sys.EAGAIN {
		return fmt.Errorf("stale futex wait: %v", e)
	}
	// The waiter is a second thread of the process: its own handle.
	waiter, err := p.sys.NewThreadHandle(p.Sys)
	if err != nil {
		return err
	}
	for trial := 0; trial < 50; trial++ {
		word := base + mmu.VAddr(4*trial) // starts at 0
		waiterDone := make(chan sys.Errno, 1)
		go func() {
			// Waits while *word == 0.
			waiterDone <- waiter.FutexWait(word, 0)
		}()
		// Sweep the race: with no yield the flip usually beats the
		// waiter's check (EAGAIN), with a few the waiter parks first.
		for y := 0; y < trial%4; y++ {
			runtime.Gosched()
		}
		// Flip the word, then wake until the waiter is released (it may
		// not have parked yet; retry as a real unlock path would).
		if e := p.Sys.MemWrite(word, []byte{1, 0, 0, 0}); e != sys.EOK {
			return fmt.Errorf("memwrite: %v", e)
		}
		for released := false; !released; {
			select {
			case we := <-waiterDone:
				if we != sys.EOK && we != sys.EAGAIN {
					return fmt.Errorf("trial %d: waiter: %v", trial, we)
				}
				released = true
			default:
				if _, e := p.Sys.FutexWake(word, 1); e != sys.EOK {
					return fmt.Errorf("wake: %v", e)
				}
				runtime.Gosched()
			}
		}
	}
	return nil
}
