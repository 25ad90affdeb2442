package sys

import (
	"slices"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/pt"
)

// This file is the kernel half of the sharded composition (§4.1): the
// shard targets the router dispatches by (each op's is in its opTable
// row), and the DispatchWrite/DispatchRead cases for the internal
// cross-shard protocol ops declared in ops.go. Each internal op touches
// exactly one shard's slice of the state (descriptor tables, the process
// tree, per-process memory, or the filesystem), which is what the
// shard-isolation obligation checks.

// ShardTarget classifies where an operation's footprint lives when the
// kernel is sharded.
type ShardTarget int

const (
	// TargetLocal: served outside the replicated state (futex, sockets,
	// raw memory, sync) — same as the monolithic kernel.
	TargetLocal ShardTarget = iota
	// TargetProcKey: one op on the process shard owning op.PID
	// (descriptor close, mmap/munmap, memresolve) — the child's, op.Target,
	// for proc_attach.
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
	// TargetFsOwner: one internal op on the filesystem shard owning
	// op.Ino — a protocol's data step.
	TargetFsOwner
)

// dispatchShardWrite serves the internal mutating protocol ops answered
// with scalars (dispatchWrite's default arm); the descriptor protocol's
// steps — NumFDLock, NumFsRun, NumFDUnlock, NumFDSeek — are
// DispatchWriteInto's own arms.
func (k *Kernel) dispatchShardWrite(op *WriteOp) Resp {
	switch op.Num {
	case NumFDOpen:
		t, e := k.fdTable(op.PID)
		if e != EOK {
			return Resp{Errno: e}
		}
		return ok(uint64(t.Attach(op.Ino, int(op.Flags))))

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
		detach := *op
		detach.PID = op.Target
		return k.detach(&detach)

	case NumProcExit:
		return k.exitTree(op)

	case NumFsCreate:
		ino, err := k.fs.Create(op.Path)
		if err != nil {
			return fail(err)
		}
		return Resp{Errno: EOK, Val: uint64(ino), Ino: ino}

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

// fdLock serves NumFDLock, the first step of a partitioned kernel's
// descriptor run, answered into out (nil on a replica that answers
// nobody, DispatchWriteInto): the descriptor locked, reported by its
// inode, offset and open flags.
func (k *Kernel) fdLock(op *WriteOp, out *Resp) {
	of, e := k.descriptor(op.PID, op.FD)
	if of != nil {
		if of.Locked {
			// Another core holds the descriptor across its two-step data
			// op; the router retries. Deterministic: the lock state is a
			// function of this shard's log prefix.
			e = EAGAIN
		} else {
			of.Locked = true
		}
	}
	switch {
	case out == nil:
	case e != EOK:
		*out = Resp{Errno: e}
	default:
		*out = fdScalars(of)
	}
}

// fdUnlock serves NumFDUnlock, the last step of a descriptor run: the
// cursor the run ends at (op.Len) is stored and the descriptor unlocked.
// Off answers the offset as stored — the post-state half of a composed
// witness, read back inside this apply.
func (k *Kernel) fdUnlock(op *WriteOp, out *Resp) {
	of, e := k.descriptor(op.PID, op.FD)
	if of != nil {
		if of.Locked {
			of.Offset = op.Len
			of.Locked = false
		} else {
			e = ErrnoFromError(fs.ErrNotLocked)
		}
	}
	switch {
	case out == nil:
	case e != EOK:
		*out = Resp{Errno: e}
	default:
		*out = Resp{Errno: EOK, Off: of.Offset}
	}
}

// fdSeek serves NumFDSeek, a partitioned kernel's SeekSet/SeekCur: one
// transition on the descriptor's process shard, answered into out (nil
// on a replica that answers nobody, DispatchWriteInto).
func (k *Kernel) fdSeek(op *WriteOp, out *Resp) {
	of, e := k.descriptor(op.PID, op.FD)
	switch {
	case of == nil:
		if out != nil {
			*out = Resp{Errno: e}
			ComposeWitness(op, nil, 0, out)
		}
		return
	case of.Locked:
		// A read or write protocol holds the descriptor and will publish
		// its own offset at unlock; repositioning now would be
		// overwritten. The router retries, like NumFDLock.
		if out != nil {
			*out = Resp{Errno: EAGAIN}
		}
		return
	}
	pre := *of
	// SeekEnd needs the owner shard's size: the router runs it as a
	// one-entry NumFsRun under the descriptor lock instead.
	r := fail(fs.ErrInval)
	if op.Whence != fs.SeekEnd {
		if n, err := k.fs.SeekCursor(of.Ino, of.Offset, op.Off, op.Whence); err != nil {
			r = fail(err)
		} else {
			of.Offset, r = n, ok(n)
		}
	}
	if out != nil {
		*out = r
		ComposeWitness(op, &pre, of.Offset, out)
	}
}

// fdRun is the one descriptor transition of a co-located kernel — a
// per-call read, write or seek, or a batch's NumFDRun: resolve the
// descriptor, apply its entries (fsRun; a per-call op is its own single
// entry, numbered by op.Num) and store the cursor, all in one apply, so
// nothing lands between the two sides of its witness. The inode, open
// flags and cursor are the descriptor's, never the frame's. It answers
// into out, or composes nothing when out is nil (DispatchWriteInto).
func (k *Kernel) fdRun(op *WriteOp, out *Resp) {
	of, e := k.descriptor(op.PID, op.FD)
	if of == nil {
		if out != nil {
			*out = Resp{Errno: e}
			ComposeWitness(op, nil, 0, out)
		}
		return
	}
	var pre fs.OpenFile
	if out != nil {
		pre = *of
	}
	of.Offset = k.fsRun(op, op.Num, of.Ino, of.Flags, of.Offset, out)
	if out != nil {
		ComposeWitness(op, &pre, of.Offset, out)
	}
}

// fsRun applies a run of a descriptor's entries in order against ino,
// threading its cursor from cur under its open flags the way the
// descriptor itself would move, and returns the cursor after the last.
// On a partitioned kernel this is a NumFsRun on the inode's owner shard,
// whose Ino, Flags and Size carry them: the router holds the descriptor
// locked on its process shard from before this apply until it publishes
// the returned cursor, so it cannot move otherwise. On a co-located
// kernel fdRun runs this body inside the one transition that resolves
// the descriptor and stores its cursor. The run itself never fails; each
// entry reports its own errno. A witnessed run answers with the contents
// half of its witness: the inode's contents before its first entry and
// after its last.
//
// The entries are op.Run, answered in Resp.Run — in the vector out held
// before, which is reused when it is long enough. Without a Run the op
// is its own single entry — a per-call read, write or seek, which then
// allocates no run: num is its syscall number, its file fields (Off,
// Whence, Len, Data) are the entry's, and the response itself carries
// the result. With out nil the run is applied and answered with nothing:
// no contents are taken and no result vector is built.
func (k *Kernel) fsRun(op *WriteOp, num uint64, ino fs.Ino, flags int, cur uint64, out *Resp) uint64 {
	if out == nil {
		if op.Run == nil {
			_, cur = k.runEntry(ino, flags, cur, num, op, false)
		} else {
			for i := range *op.Run {
				e := &(*op.Run)[i]
				_, cur = k.runEntry(ino, flags, cur, e.Num, e, false)
			}
		}
		return cur
	}
	res := out.Run
	*out = Resp{}
	w := &out.Witness
	if op.Witness {
		w.Pre.Contents, w.PreOK = k.fs.Contents(ino)
	}
	var e RunResult
	if op.Run == nil {
		e, cur = k.runEntry(ino, flags, cur, num, op, true)
	} else {
		out.Run = slices.Grow(res[:0], len(*op.Run))[:len(*op.Run)]
		for i := range *op.Run {
			ent := &(*op.Run)[i]
			out.Run[i], cur = k.runEntry(ino, flags, cur, ent.Num, ent, true)
		}
	}
	if op.Witness {
		w.Post.Contents, w.PostOK = k.fs.Contents(ino)
	}
	out.Errno, out.Val, out.Data, out.Off = e.Errno, e.Val, e.Data, cur
	return cur
}

// ComposeWitness gives r its witness when op asks for one: the one
// descriptor-witness builder, on both kernels. pre is the descriptor as
// the transition took it — nil when it was not open, and then it is on
// neither side — and postOff the offset the transition stored. The
// contents half is the witness r already carries from its contents step
// (fsRun's or the owner's NumFsReadAt), filled in place, or none when
// the transition never reached the contents. The halves are
// adjacent states of one descriptor because the transition holds it from
// taking pre to the store: inside one apply on a co-located kernel
// (fdRun), under the fd lock from the lock step to the unlock step on a
// partitioned one.
func ComposeWitness(op *WriteOp, pre *fs.OpenFile, postOff uint64, r *Resp) {
	if !op.Witness {
		return
	}
	w := &r.Witness
	w.N = op.Entries()
	w.PreOK, w.PostOK = pre != nil, pre != nil
	if pre != nil {
		w.Pre.Offset, w.Pre.Append, w.Pre.Ino = pre.Offset, pre.Flags&fs.OAppend != 0, pre.Ino
		w.Post.Offset, w.Post.Append, w.Post.Ino = postOff, w.Pre.Append, pre.Ino
	}
}

// fdScalars is a descriptor as NumFDLock and NumFDGet report it: its
// inode, its offset, and its open flags in Val.
func fdScalars(of *fs.OpenFile) Resp {
	return Resp{Errno: EOK, Ino: of.Ino, Off: of.Offset, Val: uint64(of.Flags)}
}

// runEntry applies one run entry, the syscall num with e's file fields,
// at cursor cur and returns its result and the cursor after it. Each arm
// is the fs cursor operation fs.FDTable's Read, Write and Seek apply, so
// SeekEnd and appends resolve against the size as of this entry, and a
// failed entry leaves the cursor where it was.
//
// A read answered (answer set) lands in e.Data when the entry carries
// the caller's buffer there — a per-call read's destination: at most
// len(e.Data) bytes, and nothing past the count — and otherwise in a
// reply buffer clamped to what the file can supply. Unanswered, it
// copies nothing: fs.ReadCursor with no buffer decides its errno, and
// the cursor moves by the count the answered read returns, the same
// clamp of the same length.
func (k *Kernel) runEntry(ino fs.Ino, flags int, cur, num uint64, e *WriteOp, answer bool) (RunResult, uint64) {
	var r RunResult
	var err error
	switch num {
	case NumRead:
		want := e.Len
		if e.Data != nil {
			want = min(want, uint64(len(e.Data)))
		}
		var buf []byte
		switch {
		case !answer:
		case e.Data != nil:
			buf = e.Data[:want]
		default:
			buf = k.replyBuf(ino, cur, want)
		}
		if r.Val, cur, err = k.fs.ReadCursor(ino, flags, cur, buf); err == nil {
			if answer {
				r.Data = buf[:r.Val]
			} else if st, err := k.fs.StatIno(ino); err == nil {
				r.Val = ClampReadLen(want, cur, st.Size)
				cur += r.Val
			}
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
// of the kernel ends in: up to want bytes of ino from off, into the
// caller's buffer dst when it lent one (at most len(dst), nothing
// allocated), else into a reply buffer clamped to what the file can
// supply.
func (k *Kernel) readAt(ino fs.Ino, off, want uint64, dst []byte) Resp {
	var buf []byte
	if dst != nil {
		buf = dst[:min(want, uint64(len(dst)))]
	} else {
		buf = k.replyBuf(ino, off, want)
	}
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
func (k *Kernel) detach(op *WriteOp) Resp {
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

// contentsWitness attaches a contents witness to *r when op asks for one:
// ino's contents as of this read, the same snapshot on both sides (a
// read changes nothing) — the owner shard's half of a read or seek
// witness, and a pread's witness on a kernel that reads in one apply.
// Each side is a view of its own, given back on its own.
func (k *Kernel) contentsWitness(op *ReadOp, ino fs.Ino, r *Resp) {
	if op.Witness {
		w := &r.Witness
		w.Pre.Contents, w.PreOK = k.fs.Contents(ino)
		w.Post.Contents, w.PostOK = k.fs.Contents(ino)
		w.N = 1
	}
}

// dispatchShardRead serves the internal read-only protocol ops
// (DispatchReadInto's default arm) into *out.
func (k *Kernel) dispatchShardRead(op *ReadOp, out *Resp) {
	switch op.Num {
	case NumFDGet:
		if of, e := k.descriptor(op.PID, op.FD); of == nil {
			*out = Resp{Errno: e}
		} else {
			*out = fdScalars(of)
		}

	case NumFsLookup:
		if ino, err := k.fs.Lookup(op.Path); err != nil {
			*out = fail(err)
		} else {
			*out = Resp{Errno: EOK, Val: uint64(ino), Ino: ino}
		}

	case NumFsStatIno:
		if st, err := k.fs.StatIno(op.Ino); err != nil {
			*out = fail(err)
		} else {
			*out = Resp{Errno: EOK, Stat: st, Val: st.Size}
		}
		k.contentsWitness(op, op.Ino, out)

	case NumFsReadAt:
		*out = k.readAt(op.Ino, op.Off, op.Len, op.Dst)
		k.contentsWitness(op, op.Ino, out)

	case NumProcHasTable:
		if _, found := k.fds[op.PID]; !found {
			*out = Resp{Errno: ESRCH}
		} else {
			*out = ok(0)
		}

	default:
		*out = Resp{Errno: ENOSYS}
	}
}
