package sys

import (
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
)

// This file is the kernel half of the sharded composition (§4.1): the
// op → shard-key classification the router dispatches by, and the
// DispatchWrite/DispatchRead cases for the internal cross-shard
// protocol ops declared in ops.go. Each internal op touches exactly one
// shard's slice of the state (descriptor tables, the process tree,
// per-process memory, or the filesystem), which is what the
// shard-isolation obligation checks.

// ShardTarget classifies where an operation's footprint lives when the
// kernel is sharded.
type ShardTarget int

const (
	// TargetLocal: served outside the replicated state (futex, sockets,
	// raw memory, sync) — same as the monolithic kernel.
	TargetLocal ShardTarget = iota
	// TargetProcKey: one op on the process shard owning op.PID
	// (descriptor close, mmap/munmap, memresolve).
	TargetProcKey
	// TargetProcTree: one op on process shard 0, which holds the global
	// process tree and the run queue (waitpid, signals, thread ops).
	TargetProcTree
	// TargetFsNS: a namespace mutation, broadcast to every filesystem
	// shard in ascending shard order under the router's namespace mutex
	// — the total order that keeps the replicated namespaces identical.
	TargetFsNS
	// TargetFsPath: a read-only namespace op; the namespace is
	// replicated, so any filesystem shard can serve it.
	TargetFsPath
	// TargetCompose: a multi-step cross-shard protocol (open, read,
	// write, seek, truncate, stat, spawn, exit, kill) — the router
	// sequences internal ops per the documented ordering rules.
	TargetCompose
)

// ClassifyWrite maps a mutating syscall to its shard target. Wire-level
// socket ops classify local defensively: the dispatcher intercepts them
// before routing and sequences their table half (socktab ops on process
// shard 0) and device half itself.
func ClassifyWrite(num uint64) ShardTarget {
	switch {
	case IsLocalOp(num) || IsSockOp(num) || num == NumSync:
		return TargetLocal
	}
	switch num {
	case NumClose, NumMMap, NumMUnmap, NumPageMap, NumPageUnmap:
		return TargetProcKey
	case NumWaitPID, NumTakeSignal,
		NumThreadAdd, NumThreadYield, NumThreadBlock, NumThreadWake, NumThreadExit, NumPickNext:
		return TargetProcTree
	case NumMkdir, NumUnlink, NumRmdir, NumRename, NumLink:
		return TargetFsNS
	}
	return TargetCompose
}

// ClassifyRead maps a read-only syscall to its shard target.
func ClassifyRead(num uint64) ShardTarget {
	switch num {
	case NumReadDir:
		return TargetFsPath
	case NumGetPID:
		return TargetProcTree
	case NumMemResolve:
		return TargetProcKey
	}
	return TargetCompose // NumStat: lookup on a namespace replica, stat on the data owner
}

// dispatchShardWrite serves the internal mutating protocol ops
// (DispatchWrite's default arm).
func (k *Kernel) dispatchShardWrite(op WriteOp) Resp {
	switch op.Num {
	case NumFDOpen:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		return ok(uint64(t.Attach(op.Ino, int(op.Flags))))

	case NumFDLock:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		of, err := t.Get(op.FD)
		if err != nil {
			return fail(err)
		}
		if of.Locked {
			// Another core holds the descriptor across its two-step data
			// op; the router retries. Deterministic: the lock state is a
			// function of this shard's log prefix.
			return Resp{Errno: EAGAIN}
		}
		of.Locked = true
		return Resp{Errno: EOK, Ino: of.Ino, Off: of.Offset, Val: uint64(of.Flags)}

	case NumFDUnlock:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		of, err := t.Get(op.FD)
		if err != nil {
			return fail(err)
		}
		if !of.Locked {
			return fail(fs.ErrNotLocked)
		}
		of.Offset = op.Len
		of.Locked = false
		// Off is the offset as stored — the post-state half of a composed
		// witness, read back inside this apply.
		return Resp{Errno: EOK, Off: of.Offset}

	case NumFDSeek:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		of, err := t.Get(op.FD)
		if err != nil {
			return fail(err)
		}
		if of.Locked {
			// A read or write protocol holds the descriptor and will
			// publish its own offset at unlock; repositioning now would be
			// overwritten. The router retries, like NumFDLock.
			return Resp{Errno: EAGAIN}
		}
		if op.Whence == fs.SeekEnd {
			// SeekEnd needs the owner shard's size: the router runs it as
			// a one-entry NumFsRun under the descriptor lock instead.
			return fail(fs.ErrInval)
		}
		n, err := k.fs.SeekCursor(of.Ino, of.Offset, op.Off, op.Whence)
		if err != nil {
			return fail(err)
		}
		of.Offset = n
		return ok(n)

	case NumProcSpawn:
		pid, err := k.procs.Spawn(op.PID, op.Name)
		if err != nil {
			return fail(err)
		}
		return ok(uint64(pid))

	case NumProcUnspawn:
		// Roll back a spawn whose resource attach failed elsewhere —
		// the same exit+reap pair the monolithic spawn uses.
		_ = k.procs.Exit(op.Target, -1)
		_, _ = k.procs.Wait(op.PID)
		return ok(0)

	case NumProcAttach:
		pid := op.Target
		vs, err := mm.NewVSpace(UserVABase, UserVATop)
		if err != nil {
			return fail(err)
		}
		as, err := pt.NewVerified(k.pmem, k.tables, nil)
		if err != nil {
			return fail(err)
		}
		k.fds[pid] = fs.NewFDTable(k.fs)
		k.vs[pid] = vs
		k.spaces[pid] = as
		return ok(uint64(pid))

	case NumProcDetach:
		// The resource half of exit; the monolithic exit is this
		// followed by exitTree, NumProcExit's body.
		detach := op
		detach.PID = op.Target
		return k.detach(detach)

	case NumProcExit:
		return k.exitTree(op)

	case NumFsCreate:
		ino, err := k.fs.Create(op.Path)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Val: uint64(ino), Ino: ino}

	case NumFsRun:
		return k.fsRun(op)

	case NumFsTruncate:
		if err := k.fs.Truncate(op.Ino, op.Len); err != nil {
			return fail(err)
		}
		return ok(0)

	case NumPageMap:
		// Map one cache-owned frame read-only into the caller's address
		// space (the zero-copy pread tier). The frame address rides in
		// the op so every replica maps the identical physical page, and
		// Reserve is deterministic, so every replica picks the same va.
		vs := k.vs[op.PID]
		as := k.spaces[op.PID]
		if vs == nil || as == nil {
			return Resp{Errno: ESRCH}
		}
		if len(op.Frames) != 1 {
			return Resp{Errno: EINVAL}
		}
		base, err := vs.Reserve(mmu.L1PageSize, preadMapTag)
		if err != nil {
			return fail(err)
		}
		err = as.Map(base, op.Frames[0], mmu.L1PageSize,
			mmu.Flags{User: true, NoExec: true}) // read-only: no Writable
		if err != nil {
			_, _ = vs.Release(base)
			return fail(err)
		}
		return ok(uint64(base))

	case NumPageUnmap:
		vs := k.vs[op.PID]
		as := k.spaces[op.PID]
		if vs == nil || as == nil {
			return Resp{Errno: ESRCH}
		}
		r, found := vs.Lookup(op.VA)
		if !found || r.Base != op.VA || r.Tag != preadMapTag {
			return Resp{Errno: EINVAL}
		}
		if _, err := vs.Release(op.VA); err != nil {
			return fail(err)
		}
		frame, err := as.Unmap(op.VA)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Unpinned: []mem.PAddr{frame}}
	}
	return Resp{Errno: ENOSYS}
}

// IsRunOp reports whether a syscall can be an entry of a NumFsRun: the
// three that touch nothing but one descriptor's cursor and its inode's
// contents.
func IsRunOp(num uint64) bool {
	return num == NumRead || num == NumWrite || num == NumSeek
}

// fsRun applies a run on the inode's owner shard: its entries in order
// against op.Ino, threading the descriptor's cursor from op.Size under
// its open flags (op.Flags) the way the descriptor itself would move —
// the router holds it locked on its process shard from before this
// apply until it publishes the returned cursor, so it cannot move
// otherwise. The run itself never fails; each entry reports its own
// errno.
//
// The entries are op.Run.Ops, answered in Resp.Run. Without a Run the op
// is its own single entry — a per-call write or SeekEnd, which then
// allocates nothing: its file fields (Off, Whence, Len, Data) are the
// entry's, Code is the entry's syscall number, and the response itself
// carries the result.
func (k *Kernel) fsRun(op WriteOp) Resp {
	ino, flags, cur := op.Ino, int(op.Flags), op.Size
	if op.Run == nil {
		op.Num = uint64(op.Code)
		r, next := k.runEntry(ino, flags, cur, &op)
		return Resp{Errno: r.Errno, Val: r.Val, Data: r.Data, Off: next}
	}
	res := make([]RunResult, len(op.Run.Ops))
	for i := range op.Run.Ops {
		res[i], cur = k.runEntry(ino, flags, cur, &op.Run.Ops[i])
	}
	return Resp{Errno: EOK, Off: cur, Run: res}
}

// runEntry applies one run entry at cursor cur and returns its result
// and the cursor after it. Each arm is the fs cursor operation the
// monolithic kernel's descriptor table calls, so SeekEnd and appends
// resolve against the size as of this entry, and a failed entry leaves
// the cursor where it was.
func (k *Kernel) runEntry(ino fs.Ino, flags int, cur uint64, e *WriteOp) (RunResult, uint64) {
	var r RunResult
	var err error
	switch e.Num {
	case NumRead:
		buf := k.replyBuf(ino, cur, e.Len)
		if r.Val, cur, err = k.fs.ReadCursor(ino, flags, cur, buf); err == nil {
			r.Data = buf[:r.Val]
		}
	case NumWrite:
		r.Val, cur, err = k.fs.WriteCursor(ino, flags, cur, e.Data)
	case NumSeek:
		if cur, err = k.fs.SeekCursor(ino, cur, e.Off, e.Whence); err == nil {
			r.Val = cur
		}
	default:
		r.Errno = ENOSYS
	}
	if err != nil {
		r.Errno = ErrnoFromError(err)
	}
	return r, cur
}

// readAt is the positioned read every path that copies file bytes out
// of the kernel ends in: up to want bytes of ino from off, in a reply
// buffer clamped to what the file can supply.
func (k *Kernel) readAt(ino fs.Ino, off, want uint64) Resp {
	buf := k.replyBuf(ino, off, want)
	n, err := k.fs.ReadAt(ino, off, buf)
	if err != nil {
		return fail(err)
	}
	return Resp{Errno: EOK, Val: uint64(n), Data: buf[:n]}
}

// detach tears down a process's per-shard resources (descriptors,
// mappings, page table) without touching the process tree. Frames
// behind pread mappings are cache-owned and travel in Unpinned, not
// Freed (see preadMapTag).
func (k *Kernel) detach(op WriteOp) Resp {
	pid := op.PID
	freed, unpinned := k.teardownVSpace(pid)
	if as := k.spaces[pid]; as != nil {
		if err := as.Destroy(); err != nil {
			return fail(err)
		}
	}
	delete(k.spaces, pid)
	delete(k.vs, pid)
	delete(k.fds, pid)
	return Resp{Errno: EOK, Freed: freed, Unpinned: unpinned}
}

// SnapshotFDs returns a value copy of a process's descriptor table, or
// ok=false if this kernel holds no table for the PID. The sharded
// contract viewer composes it with contents fetched from the owning
// filesystem shards (§3 view() across the shard cut).
func (k *Kernel) SnapshotFDs(pid proc.PID) (map[fs.FD]fs.OpenFile, bool) {
	t, okT := k.fds[pid]
	if !okT {
		return nil, false
	}
	return t.Snapshot(), true
}

// contentsWitness attaches the owner shard's half of a read or seek
// witness to r when op asks for one: the inode's contents as of this
// read, the same snapshot on both sides (a read changes nothing).
func (k *Kernel) contentsWitness(op ReadOp, r Resp) Resp {
	if op.Witness {
		w := &Witness{}
		w.Pre.Contents, w.PreOK = k.fs.Contents(op.Ino)
		w.Post.Contents, w.PostOK = w.Pre.Contents, w.PreOK
		r.Witness = w
	}
	return r
}

// dispatchShardRead serves the internal read-only protocol ops
// (DispatchRead's default arm).
func (k *Kernel) dispatchShardRead(op ReadOp) Resp {
	switch op.Num {
	case NumFDGet:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		of, err := t.Get(op.FD)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Ino: of.Ino, Off: of.Offset, Val: uint64(of.Flags)}

	case NumFsLookup:
		ino, err := k.fs.Lookup(op.Path)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Val: uint64(ino), Ino: ino}

	case NumFsStatIno:
		st, err := k.fs.StatIno(op.Ino)
		if err != nil {
			return k.contentsWitness(op, fail(err))
		}
		return k.contentsWitness(op, Resp{Errno: EOK, Stat: st, Val: st.Size})

	case NumFsReadAt:
		return k.contentsWitness(op, k.readAt(op.Ino, op.Off, op.Len))

	case NumProcHasTable:
		if _, ok := k.fds[op.PID]; !ok {
			return Resp{Errno: ESRCH}
		}
		return ok(0)
	}
	return Resp{Errno: ENOSYS}
}
