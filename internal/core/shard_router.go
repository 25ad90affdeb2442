package core

import (
	"runtime"
	"time"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// This file is the cross-shard router: the composition layer that turns
// one user syscall into an ordered sequence of single-shard transitions
// when the kernel state machine is partitioned across NR instances
// (§4.1). There is one kernel wiring (Boot): a process group and a
// filesystem group of NR instances, a thread handle on each, one journal
// group. The shard-key map:
//
//   - Per-process state (descriptor table, vspace, page table) lives on
//     process shard ShardOf(PID).
//   - The process tree, the run queue and the socket table live on
//     process shard 0 — they are global relations (parent/child, ready
//     set, port uniqueness), not keyed state.
//   - The filesystem namespace (directory tree, inode numbering, link
//     counts) is replicated on every filesystem shard by broadcasting
//     namespace mutations in ascending shard order under nsMu; file
//     contents live only on filesystem shard ShardOf(Ino).
//
// Rule 0 — co-location. When every key maps to one NR instance, a
// syscall is one transition on it. Config.Shards <= 1 boots exactly
// that: one instance, the sole shard of one group that procNR and fsNR
// both name (procNR == fsNR is the whole test; there is no mode flag),
// which is the monolithic kernel. It is the degenerate case of every
// ordering rule below, rely/guarantee-wise: a protocol's steps exist to
// re-establish, between shards, an atomicity the single log already
// guarantees, so with one log the protocol's rely is vacuous and its
// guarantee is the transition's own. Everything that only needs to
// *reach* the state — the pread family, socket-table ops, user memory,
// views, the agreement and invariant checks, durability under the
// journal — addresses it by key through the same handles on either
// kernel and has one body. What remains forked is where a partitioned
// kernel sequences what a co-located one applies at once:
//
//   - write dispatch (shardWrite): one transition vs the protocols below.
//   - read dispatch (shardReadDispatch): one replica-local read vs
//     lookup-then-owner for stat.
//   - batch drain (handler.batch): the file ops as one ExecuteBatch vs
//     runs and per-shard rounds.
//   - journal-less durability (snapshotFS): one filesystem is snapshotted
//     whole; a partitioned kernel has no cut without the journal group
//     and answers ENOSYS.
//   - a burst that outgrows the journal's record area (journalRound): one
//     journal absorbs it in one checkpoint of the live filesystem; a
//     partitioned kernel would have to sequence that checkpoint across
//     shards, so there the full error stands (EIO).
//
// Two more tests are bookkeeping, not dispatch: newHandler registers a
// thread once per group (co-located there is one), and shardStart /
// shardDone sample nr.shard.ops only where there is a shard dimension.
//
// Cross-shard ordering rules (each rule keeps a half-done protocol
// observationally equivalent to some single-kernel state):
//
//   - Open: namespace first (resolve/create on the fs group), descriptor
//     install second (proc shard). A crash between the two leaves a
//     created file with no descriptor — the state after a plain creat.
//   - Run: consecutive read/write/seek entries on one descriptor — a
//     per-call write or SeekEnd is the one-entry case, a batch
//     contributes whole runs — execute as FDLock on the proc shard
//     (capturing ino/offset/flags), ONE NumFsRun on the inode's owner
//     shard that applies every entry in order, threading the cursor
//     (sys.Kernel.fsRun), then FDUnlock publishing the final cursor:
//     three combiner rounds however long the run. The held descriptor
//     excludes every other handle's read, write and seek on it for the
//     whole run (their lock or seek step gets EAGAIN from the shard and
//     is retried here with Gosched — the sharded equivalent of the
//     monolithic combiner's serialization), and the single owner-shard
//     entry excludes every other op on the inode between two entries of
//     the run. A half-done run — locked, applied or not, cursor not yet
//     published — is the single-kernel state before or after the whole
//     run with the descriptor busy; nobody can observe the stale cursor,
//     because every reader of it needs the lock. The run relies on other
//     handles for nothing but that protocol.
//   - Read: a lone read keeps its data step replica-local: FDLock, the
//     owner's NumFsReadAt through ExecuteRead, FDUnlock(new offset).
//   - Seek: a lone SeekSet/SeekCur is one proc-shard transition that
//     refuses a locked descriptor (retried like fdLock), so no seek
//     lands inside a run; SeekEnd needs the owner's size and is a
//     one-entry run.
//   - Append: the owner shard resolves EOF when it applies the entry
//     (fs.WriteCursor reads the authoritative size), so two appends
//     racing through different descriptors still serialize on the
//     owner's log.
//   - Spawn: process tree first (allocate the child PID on shard 0),
//     resources second (NumProcAttach on the child's shard); on attach
//     failure NumProcUnspawn rolls the tree entry back.
//   - Exit/SIGKILL: resources first (NumProcDetach on the victim's
//     shard), tree transition last (NumProcExit, which drops the
//     victim's socket rows with it) — once a waiter observes the zombie
//     on shard 0, the resources are already gone, matching the
//     monolithic kernel's atomic teardown for every tree observer.

// sharded reports whether the kernel state is partitioned: the process
// and filesystem groups are distinct (rule 0 is its negation).
func (s *System) sharded() bool { return s.procNR != s.fsNR }

// Sharded is the exported probe (obligations, tools).
func (s *System) Sharded() bool { return s.sharded() }

// NumShards returns the shard count per group (1 when co-located).
func (s *System) NumShards() int { return s.procNR.NumShards() }

// ProcShardOf returns the process shard owning a PID.
func (s *System) ProcShardOf(pid proc.PID) int { return s.procNR.ShardOf(uint64(pid)) }

// FsShardOf returns the filesystem shard owning an inode.
func (s *System) FsShardOf(ino fs.Ino) int { return s.fsNR.ShardOf(uint64(ino)) }

// InspectProcShard runs f against one replica of one process shard,
// synced to that shard's log tail (obligations and tools).
func (s *System) InspectProcShard(shard, replica int, f func(*sys.Kernel)) {
	s.procNR.Shard(shard).Replica(replica).Inspect(func(d nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp]) {
		f(d.(*sys.Kernel))
	})
}

// InspectFsShard runs f against one replica of one filesystem shard.
func (s *System) InspectFsShard(shard, replica int, f func(*sys.Kernel)) {
	s.fsNR.Shard(shard).Replica(replica).Inspect(func(d nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp]) {
		f(d.(*sys.Kernel))
	})
}

// fsPathShard picks the filesystem shard that serves a read-only
// namespace op for a path. Any shard holds the full namespace; hashing
// the path spreads lookup load across the group.
func (s *System) fsPathShard(path string) int {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return s.fsNR.ShardOf(h)
}

// ---- shard-addressed execution (ctxMu held by the callers, procExec excepted) ----

// shardStart and shardDone bracket one shard-addressed call for the
// per-shard dispatch table (nr.shard.ops). A co-located kernel has no
// shard dimension to break dispatch down by: it takes no sample and
// records nothing, so a monolith run never populates a shard stat.
func (h *handler) shardStart() (t0 time.Time) {
	if h.s.sharded() {
		t0 = obs.Start()
	}
	return
}

func (h *handler) shardDone(slot uint64, t0 time.Time) {
	if h.s.sharded() {
		obs.ShardOps.Observe(slot, uint32(h.core), t0)
	}
}

func (h *handler) procExecOn(shard int, op sys.WriteOp) sys.Resp {
	t0 := h.shardStart()
	r := h.procCtx.ExecuteOn(shard, op)
	h.shardDone(obs.ProcShardSlot(shard), t0)
	return r
}

// procExec runs one keyed process-state transition — a pread mapping —
// on the shard owning op.PID (takes ctxMu itself).
func (h *handler) procExec(op sys.WriteOp) sys.Resp {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	return h.procExecOn(h.s.ProcShardOf(op.PID), op)
}

func (h *handler) procReadOn(shard int, op sys.ReadOp) sys.Resp {
	t0 := h.shardStart()
	r := h.procCtx.ExecuteReadOn(shard, op)
	h.shardDone(obs.ProcShardSlot(shard), t0)
	return r
}

func (h *handler) fsExecOn(shard int, op sys.WriteOp) sys.Resp {
	t0 := h.shardStart()
	r := h.fsCtx.ExecuteOn(shard, op)
	h.shardDone(obs.FsShardSlot(shard), t0)
	return r
}

func (h *handler) fsReadOn(shard int, op sys.ReadOp) sys.Resp {
	t0 := h.shardStart()
	r := h.fsCtx.ExecuteReadOn(shard, op)
	h.shardDone(obs.FsShardSlot(shard), t0)
	return r
}

// nsBroadcast applies a namespace mutation to every filesystem shard in
// ascending order under nsMu — the single total order that keeps the
// replicated namespaces identical (including deterministic inode
// numbering: every allocation runs on every shard in the same order).
// Namespace ops fail atomically, so a shard-0 failure means no shard
// mutated and the broadcast stops there with the common verdict.
func (h *handler) nsBroadcast(op sys.WriteOp) sys.Resp {
	s := h.s
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	var resp sys.Resp
	for i := 0; i < s.fsNR.NumShards(); i++ {
		r := h.fsExecOn(i, op)
		if i == 0 {
			resp = r
			if r.Errno != sys.EOK {
				return resp
			}
		}
	}
	return resp
}

// recordShardGauges refreshes the per-shard log-tail and apply-lag
// gauges against this handler's replica. Cheap (a handful of atomics)
// and skipped entirely while stats are off.
func (s *System) recordShardGauges(rep int) {
	if !obs.Enabled() {
		return
	}
	for i := 0; i < s.procNR.NumShards(); i++ {
		tail := s.procNR.Shard(i).Tail()
		applied := s.procNR.Shard(i).Replica(rep).Applied()
		obs.ShardLogTail[obs.ProcShardSlot(i)].Set(tail)
		obs.ShardApplyLag[obs.ProcShardSlot(i)].Set(tail - applied)
	}
	for i := 0; i < s.fsNR.NumShards(); i++ {
		tail := s.fsNR.Shard(i).Tail()
		applied := s.fsNR.Shard(i).Replica(rep).Applied()
		obs.ShardLogTail[obs.FsShardSlot(i)].Set(tail)
		obs.ShardApplyLag[obs.FsShardSlot(i)].Set(tail - applied)
	}
}

// ---- top-level dispatch ----

// shardWrite routes one mutating syscall per the shard-key map
// (ctxMu held).
func (h *handler) shardWrite(op sys.WriteOp) sys.Resp {
	s := h.s
	if !s.sharded() {
		// Rule 0: one transition on the one instance; the partitioned
		// kernel below sequences it across shards.
		return h.procCtx.ExecuteOn(0, op)
	}
	defer s.recordShardGauges(s.replicaOf(h.core))
	switch sys.ClassifyWrite(op.Num) {
	case sys.TargetProcKey:
		return h.procExecOn(s.ProcShardOf(op.PID), op)
	case sys.TargetProcTree:
		return h.procExecOn(0, op)
	case sys.TargetFsNS:
		return h.nsBroadcast(op)
	}
	switch op.Num {
	case sys.NumOpen:
		return h.shardOpen(op)
	case sys.NumRead:
		return h.shardReadData(op)
	case sys.NumWrite:
		return h.shardRunOne(op)
	case sys.NumSeek:
		return h.shardSeek(op)
	case sys.NumTruncate:
		return h.shardTruncate(op)
	case sys.NumSpawn:
		return h.shardSpawn(op)
	case sys.NumExit:
		return h.shardExit(op)
	case sys.NumKill:
		return h.shardKill(op)
	}
	return sys.Resp{Errno: sys.ENOSYS}
}

// shardReadDispatch routes one read-only syscall (takes ctxMu itself).
func (h *handler) shardReadDispatch(op sys.ReadOp) sys.Resp {
	s := h.s
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	if !s.sharded() {
		// Rule 0: one replica-local read; the partitioned kernel below
		// picks the shard by key, and sequences stat across two.
		return h.procCtx.ExecuteReadOn(0, op)
	}
	defer s.recordShardGauges(s.replicaOf(h.core))
	switch sys.ClassifyRead(op.Num) {
	case sys.TargetProcKey:
		return h.procReadOn(s.ProcShardOf(op.PID), op)
	case sys.TargetProcTree:
		return h.procReadOn(0, op)
	case sys.TargetFsPath:
		return h.fsReadOn(s.fsPathShard(op.Path), op)
	}
	// NumStat: resolve the path on a namespace replica, stat the data
	// owner (only the owner's size is authoritative).
	lr := h.fsReadOn(s.fsPathShard(op.Path), sys.ReadOp{Num: sys.NumFsLookup, PID: op.PID, Path: op.Path})
	if lr.Errno != sys.EOK {
		return lr
	}
	return h.fsReadOn(s.FsShardOf(lr.Ino), sys.ReadOp{Num: sys.NumFsStatIno, PID: op.PID, Ino: lr.Ino})
}

// ---- cross-shard protocols ----

// fdLock acquires a descriptor on the proc shard, retrying while a
// concurrent protocol holds it. The response carries ino/offset/flags.
func (h *handler) fdLock(procShard int, pid proc.PID, fd fs.FD) sys.Resp {
	for {
		lk := h.procExecOn(procShard, sys.WriteOp{Num: sys.NumFDLock, PID: pid, FD: fd})
		if lk.Errno != sys.EAGAIN {
			return lk
		}
		runtime.Gosched()
	}
}

// fdUnlock releases the descriptor, publishing off as its offset, and
// returns the offset the proc shard stored.
func (h *handler) fdUnlock(procShard int, pid proc.PID, fd fs.FD, off uint64) uint64 {
	return h.procExecOn(procShard, sys.WriteOp{Num: sys.NumFDUnlock, PID: pid, FD: fd, Len: off}).Off
}

// shardOpen: flags check (pure), descriptor-table existence (proc
// shard), resolve or create (fs group), kind/truncate on the owner,
// descriptor install (proc shard). Mirrors FDTable.Open's order, so the
// errno priorities match the monolithic kernel.
func (h *handler) shardOpen(op sys.WriteOp) sys.Resp {
	s := h.s
	if e := sys.OpenFlag(op.Flags).Validate(); e != sys.EOK {
		return sys.Resp{Errno: e}
	}
	ps := s.ProcShardOf(op.PID)
	if r := h.procReadOn(ps, sys.ReadOp{Num: sys.NumProcHasTable, PID: op.PID}); r.Errno != sys.EOK {
		return r
	}
	var ino fs.Ino
	lr := h.fsReadOn(s.fsPathShard(op.Path), sys.ReadOp{Num: sys.NumFsLookup, PID: op.PID, Path: op.Path})
	switch {
	case lr.Errno == sys.EOK:
		ino = lr.Ino
	case lr.Errno == sys.ENOENT && op.Flags&fs.OCreate != 0:
		cr := h.nsBroadcast(sys.WriteOp{Num: sys.NumFsCreate, PID: op.PID, Path: op.Path})
		if cr.Errno == sys.EEXIST {
			// Lost a create race since the lookup; adopt the winner.
			lr = h.fsReadOn(s.fsPathShard(op.Path), sys.ReadOp{Num: sys.NumFsLookup, PID: op.PID, Path: op.Path})
			if lr.Errno != sys.EOK {
				return lr
			}
			ino = lr.Ino
		} else if cr.Errno != sys.EOK {
			return cr
		} else {
			ino = cr.Ino
		}
	default:
		return lr
	}
	owner := s.FsShardOf(ino)
	st := h.fsReadOn(owner, sys.ReadOp{Num: sys.NumFsStatIno, PID: op.PID, Ino: ino})
	if st.Errno != sys.EOK {
		return st
	}
	if st.Stat.Kind == fs.KindDir && op.Flags&(fs.OWrOnly|fs.ORdWr|fs.OTrunc|fs.OAppend) != 0 {
		return sys.Resp{Errno: sys.EISDIR}
	}
	if op.Flags&fs.OTrunc != 0 {
		if tr := h.fsExecOn(owner, sys.WriteOp{Num: sys.NumFsTruncate, PID: op.PID, Ino: ino, Len: 0}); tr.Errno != sys.EOK {
			return tr
		}
	}
	return h.procExecOn(ps, sys.WriteOp{Num: sys.NumFDOpen, PID: op.PID, Ino: ino, Flags: op.Flags})
}

// composeWitness attaches the sharded kernel's witness to r when op
// asks for one. The descriptor's scalars come from the fd-lock step lk
// and the offset the unlock step stored (postOff, as fdUnlock returns
// it); the contents pair comes from the owner shard's step (cw, nil
// when the protocol never reached the owner). The halves are adjacent
// states of one descriptor because it stays locked from lk to the
// unlock: no other read, write or seek can move its offset in between,
// and the contents pair brackets exactly the data transition. A failed
// fd-lock means the descriptor is absent on both sides.
func composeWitness(op sys.WriteOp, lk sys.Resp, cw *sys.Witness, postOff uint64, r sys.Resp) sys.Resp {
	if !op.Witness {
		return r
	}
	w := &sys.Witness{}
	if lk.Errno == sys.EOK {
		f := fs.SpecFile{Offset: lk.Off, Append: lk.Val&fs.OAppend != 0, Ino: lk.Ino}
		w.Pre, w.Post = f, f
		w.PreOK, w.PostOK = true, true
		w.Post.Offset = postOff
		if cw != nil {
			w.Pre.Contents, w.Post.Contents = cw.Pre.Contents, cw.Post.Contents
		}
	}
	r.Witness = w
	return r
}

// shardReadData: NumRead = FDLock → owner ReadAt → FDUnlock(new offset).
func (h *handler) shardReadData(op sys.WriteOp) sys.Resp {
	s := h.s
	ps := s.ProcShardOf(op.PID)
	lk := h.fdLock(ps, op.PID, op.FD)
	if lk.Errno != sys.EOK {
		return composeWitness(op, lk, nil, 0, lk)
	}
	ino, off, flags := lk.Ino, lk.Off, int(lk.Val)
	if flags&fs.OWrOnly != 0 {
		return composeWitness(op, lk, nil, h.fdUnlock(ps, op.PID, op.FD, off), sys.Resp{Errno: sys.EPERM})
	}
	r := h.fsReadOn(s.FsShardOf(ino), sys.ReadOp{
		Num: sys.NumFsReadAt, PID: op.PID, Ino: ino, Off: off, Len: op.Len, Witness: op.Witness,
	})
	if r.Errno != sys.EOK {
		return composeWitness(op, lk, r.Witness, h.fdUnlock(ps, op.PID, op.FD, off), sys.Resp{Errno: r.Errno})
	}
	return composeWitness(op, lk, r.Witness, h.fdUnlock(ps, op.PID, op.FD, off+r.Val),
		sys.Resp{Errno: sys.EOK, Val: r.Val, Data: r.Data})
}

// shardRun executes a run of read/write/seek entries on (pid, fd) by the
// Run rule at the top of the file. run carries the entries — in its Run
// field, or in its own file fields for a one-entry run
// (sys.Kernel.fsRun); the inode, open flags and cursor the lock step
// returns are filled in here. It returns the lock step's response, the
// run's (zero when the lock failed, which fails every entry alike) and
// the offset the unlock step stored.
func (h *handler) shardRun(pid proc.PID, fd fs.FD, run sys.WriteOp) (lk, r sys.Resp, post uint64) {
	s := h.s
	ps := s.ProcShardOf(pid)
	lk = h.fdLock(ps, pid, fd)
	if lk.Errno != sys.EOK {
		return lk, sys.Resp{}, 0
	}
	n := 1
	if run.Run != nil {
		n = len(run.Run.Ops)
	}
	obs.ShardFDRuns.Add(uint32(h.core), 1)
	obs.ShardFDRunOps.Add(uint32(h.core), uint64(n))
	run.Num, run.PID, run.Ino, run.Flags, run.Size = sys.NumFsRun, pid, lk.Ino, lk.Val, lk.Off
	r = h.fsExecOn(s.FsShardOf(lk.Ino), run)
	return lk, r, h.fdUnlock(ps, pid, fd, r.Off)
}

// shardRunOne is a per-call write or SeekEnd: the one-entry run, which
// is the op itself, with the witness composed across its three steps.
func (h *handler) shardRunOne(op sys.WriteOp) sys.Resp {
	run := op
	run.Code = int(op.Num)
	lk, r, post := h.shardRun(op.PID, op.FD, run)
	if lk.Errno != sys.EOK {
		return composeWitness(op, lk, nil, 0, lk)
	}
	return composeWitness(op, lk, r.Witness, post, sys.Resp{Errno: r.Errno, Val: r.Val, Data: r.Data})
}

// shardRunBatch completes a batch's run: comps[k] answers ops[k].
func (h *handler) shardRunBatch(ops []sys.WriteOp, comps []sys.Completion) {
	lk, r, _ := h.shardRun(ops[0].PID, ops[0].FD, sys.WriteOp{Run: &sys.FsRun{Ops: ops}})
	for k := range ops {
		e := sys.RunResult{Errno: lk.Errno}
		if lk.Errno == sys.EOK {
			e = r.Run[k]
		}
		comps[k] = sys.Completion{Op: ops[k].Num, Errno: e.Errno, Val: e.Val, Data: e.Data}
	}
}

// shardSeek: SeekSet/SeekCur are one transition on the proc shard, which
// refuses a locked descriptor (retried here, like fdLock) so a seek
// never lands inside another handle's run. SeekEnd needs the owner's
// size, so it takes the descriptor like a data op: a one-entry run.
func (h *handler) shardSeek(op sys.WriteOp) sys.Resp {
	if op.Whence == fs.SeekEnd {
		return h.shardRunOne(op)
	}
	ps := h.s.ProcShardOf(op.PID)
	for {
		r := h.procExecOn(ps, sys.WriteOp{
			Num: sys.NumFDSeek, PID: op.PID, FD: op.FD,
			Whence: op.Whence, Off: op.Off, Witness: op.Witness,
		})
		if r.Errno != sys.EAGAIN {
			return r
		}
		runtime.Gosched()
	}
}

// shardTruncate: resolve the descriptor's inode, truncate on the owner.
func (h *handler) shardTruncate(op sys.WriteOp) sys.Resp {
	s := h.s
	g := h.procReadOn(s.ProcShardOf(op.PID), sys.ReadOp{Num: sys.NumFDGet, PID: op.PID, FD: op.FD})
	if g.Errno != sys.EOK {
		return g
	}
	return h.fsExecOn(s.FsShardOf(g.Ino), sys.WriteOp{Num: sys.NumFsTruncate, PID: op.PID, Ino: g.Ino, Len: op.Len})
}

// shardSpawn: tree first (shard 0 allocates the PID), resources second
// (the child's shard), with tree rollback when the attach fails.
func (h *handler) shardSpawn(op sys.WriteOp) sys.Resp {
	s := h.s
	tr := h.procExecOn(0, sys.WriteOp{Num: sys.NumProcSpawn, PID: op.PID, Name: op.Name})
	if tr.Errno != sys.EOK {
		return tr
	}
	child := proc.PID(tr.Val)
	at := h.procExecOn(s.ProcShardOf(child), sys.WriteOp{Num: sys.NumProcAttach, PID: op.PID, Target: child})
	if at.Errno != sys.EOK {
		_ = h.procExecOn(0, sys.WriteOp{Num: sys.NumProcUnspawn, PID: op.PID, Target: child})
		return at
	}
	return sys.Resp{Errno: sys.EOK, Val: uint64(child)}
}

// shardExit: resources first (victim's shard), tree last (shard 0) —
// see the ordering rules at the top of the file. op.PID is the victim.
func (h *handler) shardExit(op sys.WriteOp) sys.Resp {
	s := h.s
	dt := h.procExecOn(s.ProcShardOf(op.PID), sys.WriteOp{Num: sys.NumProcDetach, PID: op.PID, Target: op.PID})
	if dt.Errno != sys.EOK {
		return dt
	}
	tr := h.procExecOn(0, sys.WriteOp{Num: sys.NumProcExit, PID: op.PID, Code: op.Code})
	if tr.Errno != sys.EOK {
		return tr
	}
	return sys.Resp{Errno: sys.EOK, Freed: dt.Freed, Unpinned: dt.Unpinned}
}

// shardKill: SIGKILL composes as the victim's exit; other signals are a
// tree-only transition on shard 0.
func (h *handler) shardKill(op sys.WriteOp) sys.Resp {
	if op.Sig == proc.SIGKILL {
		if op.Target == proc.InitPID {
			return sys.Resp{Errno: sys.EPERM}
		}
		victim := op
		victim.PID = op.Target
		victim.Code = 128 + int(proc.SIGKILL)
		return h.shardExit(victim)
	}
	return h.procExecOn(0, op)
}
