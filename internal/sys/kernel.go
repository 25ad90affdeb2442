package sys

import (
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
	"github.com/verified-os/vnros/internal/sched"
)

// User virtual address-space layout.
const (
	UserVABase = mmu.VAddr(0x0000_1000_0000)
	UserVATop  = mmu.VAddr(0x0000_7000_0000_0000)
)

// preadMapTag marks vspace regions whose frame is owned by the page
// cache (zero-copy pread mappings). Teardown reports such frames in
// Resp.Unpinned — the cache drops its map pin — never in Resp.Freed:
// buddy-freeing a cache-owned frame while a reader holds an epoch pin
// on it would be a use-after-free.
const preadMapTag = "pread"

// Kernel is one replica of the kernel state machine: the sequential
// data structure NrOS-style node replication scales across cores
// (§4.1). All operations are deterministic; applying the same WriteOp
// log to two replicas yields identical states (the NR requirement),
// because every non-deterministic input — data-frame addresses, PIDs of
// interest — is carried inside the ops.
type Kernel struct {
	fs     *fs.FS
	fds    map[proc.PID]*fs.FDTable
	procs  *proc.Table
	rq     *sched.RunQueue
	vs     map[proc.PID]*mm.VSpace
	spaces map[proc.PID]*pt.Verified
	socks  *sockTab

	// pmem is the machine's shared physical memory; tables is this
	// replica's private page-table frame source.
	pmem   *mem.PhysMem
	tables pt.FrameSource

	// obsShard stripes this replica's kstat updates away from its
	// peers' (assigned at construction; replicas apply concurrently).
	obsShard uint32
}

// NewKernel creates a kernel replica. The init process (PID 1) exists
// with a descriptor table but no address space (it is the kernel's
// caretaker process).
func NewKernel(pmem *mem.PhysMem, tables pt.FrameSource) *Kernel {
	k := &Kernel{
		fs:       fs.New(),
		fds:      make(map[proc.PID]*fs.FDTable),
		procs:    proc.NewTable(),
		rq:       sched.NewRunQueue(),
		vs:       make(map[proc.PID]*mm.VSpace),
		spaces:   make(map[proc.PID]*pt.Verified),
		socks:    newSockTab(),
		pmem:     pmem,
		tables:   tables,
		obsShard: obs.NextShard(),
	}
	k.fds[proc.InitPID] = fs.NewFDTable(k.fs)
	return k
}

// FS exposes the filesystem for persistence snapshots (core only).
func (k *Kernel) FS() *fs.FS { return k.fs }

// Procs exposes the process table for invariant checks (tests only).
func (k *Kernel) Procs() *proc.Table { return k.procs }

// RunQueue exposes the scheduler (core's dispatcher).
func (k *Kernel) RunQueue() *sched.RunQueue { return k.rq }

// Root returns the page-table root of a process's address space.
func (k *Kernel) Root(pid proc.PID) (mem.PAddr, bool) {
	as, ok := k.spaces[pid]
	if !ok {
		return 0, false
	}
	return as.Root(), true
}

// ViewFDs is the §3 view() abstraction of a process's whole descriptor
// table, for the obligations and the benchmark's view probe. The contract
// checker does not use it: a checked transition is checked against the
// witness of the one descriptor it names (ComposeWitness).
func (k *Kernel) ViewFDs(pid proc.PID) (fs.SpecState, bool) {
	t, ok := k.fds[pid]
	if !ok {
		return fs.SpecState{}, false
	}
	return fs.AbstractFDs(t), true
}

// fdTable returns the descriptor table for pid.
func (k *Kernel) fdTable(pid proc.PID) (*fs.FDTable, Errno) {
	t, ok := k.fds[pid]
	if !ok {
		return nil, ESRCH
	}
	return t, EOK
}

// descriptor resolves pid's fd to its open file, or nil and the errno
// when it is not open.
func (k *Kernel) descriptor(pid proc.PID, fd fs.FD) (*fs.OpenFile, Errno) {
	t, e := k.fdTable(pid)
	if e != EOK {
		return nil, e
	}
	of, err := t.Get(fd)
	if err != nil {
		return nil, ErrnoFromError(err)
	}
	return of, EOK
}

// DispatchWrite implements nr.DataStructure: DispatchWriteInto for a
// caller that takes the response by value.
func (k *Kernel) DispatchWrite(op WriteOp) Resp {
	var r Resp
	k.DispatchWriteInto(&op, &r)
	return r
}

// DispatchWriteInto implements nr.InPlaceWriter: the mutating syscalls,
// each applied to this replica and answered by writing *out, the
// issuer's slot. out is nil on every replica but the issuer's, and then
// the state changes alike and nothing is composed: no witness is taken
// (so no view is pinned), no reply buffer is allocated, and a read moves
// its cursor by its count without copying a byte — in particular, never
// into a destination the op carries, which only the issuer's apply
// writes. The kernel.apply kstat counts once per replica per logged op
// (R× the syscall count with R replicas) — the ratio against the
// syscall-level counts is exactly the replication amplification.
func (k *Kernel) DispatchWriteInto(op *WriteOp, out *Resp) {
	obs.KernelApplies.Count(op.Num, k.obsShard)
	switch op.Num {
	case NumRead, NumWrite, NumSeek, NumFDRun:
		k.fdRun(op, out)
	case NumFsRun:
		k.fsRun(op, uint64(op.Code), op.Ino, int(op.Flags), op.Size, out)
	case NumFDLock:
		k.fdLock(op, out)
	case NumFDUnlock:
		k.fdUnlock(op, out)
	case NumFDSeek:
		k.fdSeek(op, out)
	default:
		k.scalarWrite(op, out)
	}
}

// scalarWrite applies every other mutating syscall — one whose answer is
// a handful of scalars or frame lists — and copies the answer into out
// when there is one. It is its own frame, not inlined: the answer's
// temporary would otherwise sit in DispatchWriteInto's frame on every
// apply, deepening the descriptor arms' stacks too, and a batch applies
// on a ring drainer goroutine that starts on a small stack.
//
//go:noinline
func (k *Kernel) scalarWrite(op *WriteOp, out *Resp) {
	if r := k.dispatchWrite(op); out != nil {
		*out = r
	}
}

// dispatchWrite serves the mutating syscalls scalarWrite applies.
func (k *Kernel) dispatchWrite(op *WriteOp) Resp {
	switch op.Num {
	case NumOpen:
		// Re-validate the flag set kernel-side: Sys.Open already rejects
		// bad combinations, but a hand-rolled frame reaches this switch
		// directly. The check is pure, so every replica decides alike.
		if e := OpenFlag(op.Flags).Validate(); e != EOK {
			return Resp{Errno: e}
		}
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		fd, err := t.Open(op.Path, int(op.Flags))
		if err != nil {
			return fail(err)
		}
		return ok(uint64(fd))

	case NumClose:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		if err := t.Close(op.FD); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumMkdir:
		if _, err := k.fs.Mkdir(op.Path); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumUnlink:
		if err := k.fs.Unlink(op.Path); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumRmdir:
		if err := k.fs.Rmdir(op.Path); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumRename:
		if err := k.fs.Rename(op.Path, op.Path2); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumLink:
		if err := k.fs.Link(op.Path, op.Path2); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumTruncate:
		of, e := k.descriptor(op.PID, op.FD)
		if of == nil {
			return Resp{Errno: e}
		}
		if err := k.fs.Truncate(of.Ino, op.Len); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumSpawn:
		return k.spawn(op)

	case NumWaitPID:
		res, err := k.procs.Wait(op.PID)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Val: uint64(res.PID), Wait: res}

	case NumExit:
		return k.exit(op)

	case NumKill:
		// SIGKILL tears down the target like exit.
		if op.Sig == proc.SIGKILL {
			if op.Target == proc.InitPID {
				return Resp{Errno: EPERM}
			}
			target := *op
			target.PID = op.Target
			target.Code = 128 + int(proc.SIGKILL)
			return k.exit(&target)
		}
		if err := k.procs.Kill(op.Target, op.Sig); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumTakeSignal:
		sig, got, err := k.procs.TakeSignal(op.PID)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Sig: sig, SigOK: got}

	case NumMMap:
		return k.mmap(op)

	case NumMUnmap:
		return k.munmap(op)

	case NumThreadAdd:
		if err := k.rq.Add(op.TID, op.Pri); err != nil {
			return fail(err)
		}
		return ok(uint64(op.TID))

	case NumThreadYield:
		if err := k.rq.Yield(op.TID); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumThreadBlock:
		if err := k.rq.Block(op.TID); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumThreadWake:
		if err := k.rq.Wake(op.TID); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumThreadExit:
		if err := k.rq.Exit(op.TID); err != nil {
			return fail(err)
		}
		if err := k.rq.Reap(op.TID); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumPickNext:
		tid, err := k.rq.PickNext(op.Core)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Val: uint64(tid), TID: tid}
	case NumSockTabBind, NumSockTabClose:
		return k.dispatchSockWrite(op)
	}
	// Internal cross-shard protocol ops (sharded composition; shard.go).
	return k.dispatchShardWrite(op)
}

// ClampReadLen bounds a read length by the bytes a file of the given
// size can supply from off.
func ClampReadLen(want, off, size uint64) uint64 {
	if off >= size {
		return 0
	}
	return min(want, size-off)
}

// replyBuf allocates the buffer a read's reply travels in. want is the
// caller's word, taken from the syscall frame, so it is clamped to what
// ino can supply from off before anything is allocated (a frame saying
// Len: 1<<62 must not take the kernel down); an honest caller's result
// is the same. An inode that cannot be stat'ed gets no buffer — the read
// itself reports the error.
func (k *Kernel) replyBuf(ino fs.Ino, off, want uint64) []byte {
	st, err := k.fs.StatIno(ino)
	if err != nil {
		return nil
	}
	return make([]byte, ClampReadLen(want, off, st.Size))
}

// spawn creates the process plus its kernel resources.
func (k *Kernel) spawn(op *WriteOp) Resp {
	pid, err := k.procs.Spawn(op.PID, op.Name)
	if err != nil {
		return fail(err)
	}
	vs, err := mm.NewVSpace(UserVABase, UserVATop)
	if err != nil {
		return fail(err)
	}
	as, err := pt.NewVerified(k.pmem, k.tables, nil)
	if err != nil {
		// Roll back the process entry to keep replicas consistent (the
		// same failure happens deterministically on every replica).
		_ = k.procs.Exit(pid, -1)
		_, _ = k.procs.Wait(op.PID)
		return fail(err)
	}
	k.fds[pid] = fs.NewFDTable(k.fs)
	k.vs[pid] = vs
	k.spaces[pid] = as
	return ok(uint64(pid))
}

// exit tears down a process: its resources (detach), then the tree
// transition that also drops its socket rows (exitTree) — the two
// halves the sharded kernel runs on the victim's shard and shard 0.
func (k *Kernel) exit(op *WriteOp) Resp {
	r := k.detach(op)
	if r.Errno != EOK {
		return r
	}
	if t := k.exitTree(op); t.Errno != EOK {
		return t
	}
	return r
}

// exitTree is exit's process-shard-0 half: zombie, reparent, signal,
// and the socket rows, which live with the tree (socktab.go).
func (k *Kernel) exitTree(op *WriteOp) Resp {
	if err := k.procs.Exit(op.PID, op.Code); err != nil {
		return fail(err)
	}
	k.socks.drop(op.PID)
	return ok(0)
}

// teardownVSpace unmaps and releases every region of pid's address
// space, splitting the recovered frames by ownership: process-owned
// data frames (freed) versus cache-owned pread mapping frames
// (unpinned).
func (k *Kernel) teardownVSpace(pid proc.PID) (freed, unpinned []mem.PAddr) {
	vs := k.vs[pid]
	if vs == nil {
		return nil, nil
	}
	as := k.spaces[pid]
	for _, region := range vs.Regions() {
		for off := uint64(0); off < region.Len; off += mmu.L1PageSize {
			if frame, err := as.Unmap(region.Base + mmu.VAddr(off)); err == nil {
				if region.Tag == preadMapTag {
					unpinned = append(unpinned, frame)
				} else {
					freed = append(freed, frame)
				}
			}
		}
		_, _ = vs.Release(region.Base)
	}
	return freed, unpinned
}

// mmap reserves virtual space and maps the caller-provided frames.
func (k *Kernel) mmap(op *WriteOp) Resp {
	vs := k.vs[op.PID]
	as := k.spaces[op.PID]
	if vs == nil || as == nil {
		return Resp{Errno: ESRCH}
	}
	if op.Size == 0 || op.Size%mmu.L1PageSize != 0 {
		return Resp{Errno: EINVAL}
	}
	pages := op.Size / mmu.L1PageSize
	if uint64(len(op.Frames)) != pages {
		return Resp{Errno: EINVAL}
	}
	base, err := vs.Reserve(op.Size, "mmap")
	if err != nil {
		return fail(err)
	}
	for i := uint64(0); i < pages; i++ {
		err := as.Map(base+mmu.VAddr(i*mmu.L1PageSize), op.Frames[i], mmu.L1PageSize,
			mmu.Flags{Writable: true, User: true, NoExec: true})
		if err != nil {
			// Unwind the partial mapping.
			for j := uint64(0); j < i; j++ {
				_, _ = as.Unmap(base + mmu.VAddr(j*mmu.L1PageSize))
			}
			_, _ = vs.Release(base)
			return fail(err)
		}
	}
	return ok(uint64(base))
}

// munmap removes a region, returning its data frames in Freed. Pread
// mappings are not munmap-able: their frames belong to the page cache,
// and only PreadUnmap knows to return them as Unpinned rather than
// Freed.
func (k *Kernel) munmap(op *WriteOp) Resp {
	vs := k.vs[op.PID]
	as := k.spaces[op.PID]
	if vs == nil || as == nil {
		return Resp{Errno: ESRCH}
	}
	if r, found := vs.Lookup(op.VA); found && r.Tag == preadMapTag {
		return Resp{Errno: EINVAL}
	}
	region, err := vs.Release(op.VA)
	if err != nil {
		return fail(err)
	}
	var freed []mem.PAddr
	for off := uint64(0); off < region.Len; off += mmu.L1PageSize {
		frame, err := as.Unmap(region.Base + mmu.VAddr(off))
		if err != nil {
			return fail(fmt.Errorf("munmap: %w", err))
		}
		freed = append(freed, frame)
	}
	return Resp{Errno: EOK, Freed: freed}
}

// DispatchRead implements nr.DataStructure: DispatchReadInto for a
// caller that takes the response by value.
func (k *Kernel) DispatchRead(op ReadOp) Resp {
	var r Resp
	k.DispatchReadInto(&op, &r)
	return r
}

// DispatchReadInto implements nr.InPlaceReader: the read-only syscalls,
// each answered by writing *out, the caller's slot.
func (k *Kernel) DispatchReadInto(op *ReadOp, out *Resp) {
	obs.KernelApplies.Count(op.Num, k.obsShard)
	switch op.Num {
	case NumPread:
		// Positioned read: no descriptor lock and no offset mutation —
		// that independence from descriptor state is what lets the core
		// serve it with replica-local reads (ExecuteRead) instead of the
		// write log.
		of, e := k.descriptor(op.PID, op.FD)
		switch {
		case of == nil:
			*out = Resp{Errno: e}
		case of.Flags&fs.OWrOnly != 0:
			*out = fail(fs.ErrPermission)
		default:
			*out = k.readAt(of.Ino, op.Off, op.Len, nil)
			k.contentsWitness(op, of.Ino, out)
		}

	case NumStat:
		st, err := k.fs.StatPath(op.Path)
		if err != nil {
			*out = fail(err)
		} else {
			*out = Resp{Errno: EOK, Stat: st, Val: st.Size}
		}

	case NumReadDir:
		ents, err := k.fs.ReadDir(op.Path)
		if err != nil {
			*out = fail(err)
		} else {
			*out = Resp{Errno: EOK, Entries: ents}
		}

	case NumGetPID:
		if _, err := k.procs.Get(op.PID); err != nil {
			*out = fail(err)
		} else {
			*out = ok(uint64(op.PID))
		}

	case NumMemResolve:
		*out = k.memResolve(op.PID, op.VA)

	case NumSockTabGet:
		*out = k.dispatchSockRead(op)

	default:
		// Internal cross-shard protocol ops (sharded composition; shard.go).
		k.dispatchShardRead(op, out)
	}
}

// memResolve serves NumMemResolve: the physical address va translates
// to in pid's address space.
func (k *Kernel) memResolve(pid proc.PID, va mmu.VAddr) Resp {
	as := k.spaces[pid]
	if as == nil {
		return Resp{Errno: ESRCH}
	}
	m, found := as.Resolve(va)
	if !found {
		return Resp{Errno: EFAULT}
	}
	return Resp{Errno: EOK, Val: uint64(m.Frame) + uint64(va)%m.PageSize}
}

// UserRead copies process-virtual memory into p through the hardware
// translation path with user permissions — the §3 execution model's
// "process experiences virtualized memory". Core calls it on the
// replica owned by the accessing core.
func (k *Kernel) UserRead(pid proc.PID, va mmu.VAddr, p []byte) Errno {
	return k.userAccess(pid, va, p, false)
}

// UserReadN is UserRead for a length that is the caller's word (a
// NumMemRead frame's Len): the buffer is allocated here, and only once
// [va, va+n) is known to lie inside the process's mapped regions, so a
// frame saying 1<<62 is EFAULT, not a makeslice panic. A range UserRead
// would have served reads the same.
func (k *Kernel) UserReadN(pid proc.PID, va mmu.VAddr, n uint64) ([]byte, Errno) {
	vs := k.vs[pid]
	if vs == nil {
		return nil, ESRCH
	}
	// Regions end below UserVATop, so none of this arithmetic wraps.
	for at, left := va, n; left > 0; {
		r, found := vs.Lookup(at)
		if !found {
			return nil, EFAULT
		}
		avail := uint64(r.Base) + r.Len - uint64(at)
		if left <= avail {
			break
		}
		at, left = r.Base+mmu.VAddr(r.Len), left-avail
	}
	p := make([]byte, n)
	return p, k.userAccess(pid, va, p, false)
}

// UserWrite copies p into process-virtual memory.
func (k *Kernel) UserWrite(pid proc.PID, va mmu.VAddr, p []byte) Errno {
	return k.userAccess(pid, va, p, true)
}

func (k *Kernel) userAccess(pid proc.PID, va mmu.VAddr, p []byte, write bool) Errno {
	as := k.spaces[pid]
	if as == nil {
		return ESRCH
	}
	w := mmu.Walker{Mem: k.pmem}
	kind := mmu.AccessUserRead
	if write {
		kind = mmu.AccessUserWrite
	}
	for n := 0; n < len(p); {
		res := w.Walk(as.Root(), va+mmu.VAddr(n), kind)
		if res.Fault != nil {
			return EFAULT
		}
		tr := res.Translation
		remain := int(tr.PageSize - (uint64(va)+uint64(n))%tr.PageSize)
		chunk := len(p) - n
		if chunk > remain {
			chunk = remain
		}
		var err error
		if write {
			err = k.pmem.Write(tr.PAddr, p[n:n+chunk])
		} else {
			err = k.pmem.Read(tr.PAddr, p[n:n+chunk])
		}
		if err != nil {
			return EFAULT
		}
		n += chunk
	}
	return EOK
}

// NewKernelWithFS creates a kernel replica whose filesystem is restored
// from a snapshot (each replica deserializes its own copy of the same
// image, keeping replicas bit-identical at boot).
func NewKernelWithFS(pmem *mem.PhysMem, tables pt.FrameSource, f *fs.FS) *Kernel {
	k := NewKernel(pmem, tables)
	k.fs = f
	k.fds[proc.InitPID] = fs.NewFDTable(f)
	return k
}
