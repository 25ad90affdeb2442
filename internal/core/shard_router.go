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
//   - batch drain (handler.batch): the same steps on both (a descriptor
//     run folds into one, sys.Steps.Fold), as one ExecuteBatch vs each
//     step's protocol.
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
// The pread family is not forked either: a copying pread is a resolve on
// the process's shard and one NumFsReadAt on the inode's owner shard on
// both kernels (handler.pread), even where one replica holds both.
//
// Cross-shard ordering rules (each rule keeps a half-done protocol
// observationally equivalent to some single-kernel state):
//
//   - Open: namespace first (resolve/create on the fs group), descriptor
//     install second (proc shard). A crash between the two leaves a
//     created file with no descriptor — the state after a plain creat.
//   - Run: consecutive read/write/seek entries on one descriptor — a
//     per-call read, write or seek is the one-entry case on both
//     kernels, a batch's NumFDRun step a whole run. Co-located, a run is
//     one transition (sys.Kernel.fdRun: resolve, apply, store the
//     cursor). Partitioned, a per-call write or SeekEnd and a NumFDRun
//     step execute as FDLock on the proc shard (capturing
//     ino/offset/flags), ONE NumFsRun on the inode's owner shard that
//     applies every entry in order, threading the cursor
//     (sys.Kernel.fsRun), then FDUnlock publishing the final cursor:
//     three combiner rounds however long the run. Either way one builder,
//     sys.ComposeWitness, makes the run's witness from the descriptor
//     half and fsRun's contents half. The held descriptor
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

// procExecOn and fsExecOn run one transition on a shard of either group
// and return its answer where the issuer's replica wrote it: the
// handler's thread slot on that shard (nr.ThreadContext.ExecuteInto),
// valid until the handler's next call on the same shard.
func (h *handler) procExecOn(shard int, op *sys.WriteOp) *sys.Resp {
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
	return *h.procExecOn(h.s.ProcShardOf(op.PID), &op)
}

func (h *handler) procReadOn(shard int, op sys.ReadOp) sys.Resp {
	t0 := h.shardStart()
	r := h.procCtx.ExecuteReadOn(shard, op)
	h.shardDone(obs.ProcShardSlot(shard), t0)
	return r
}

// procReadInto is procReadOn answering into *out.
func (h *handler) procReadInto(shard int, op *sys.ReadOp, out *sys.Resp) {
	t0 := h.shardStart()
	h.procCtx.ExecuteReadOnInto(shard, op, out)
	h.shardDone(obs.ProcShardSlot(shard), t0)
}

func (h *handler) fsExecOn(shard int, op *sys.WriteOp) *sys.Resp {
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

// fsReadInto is fsReadOn answering into *out.
func (h *handler) fsReadInto(shard int, op *sys.ReadOp, out *sys.Resp) {
	t0 := h.shardStart()
	h.fsCtx.ExecuteReadOnInto(shard, op, out)
	h.shardDone(obs.FsShardSlot(shard), t0)
}

// nsBroadcast applies a namespace mutation to every filesystem shard in
// ascending order under nsMu — the single total order that keeps the
// replicated namespaces identical (including deterministic inode
// numbering: every allocation runs on every shard in the same order).
// Namespace ops fail atomically, so a shard-0 failure means no shard
// mutated and the broadcast stops there with the common verdict. The
// verdict is shard 0's slot, which the other shards' steps leave alone.
func (h *handler) nsBroadcast(op *sys.WriteOp) *sys.Resp {
	s := h.s
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	resp := h.fsExecOn(0, op)
	if resp.Errno != sys.EOK {
		return resp
	}
	for i := 1; i < s.fsNR.NumShards(); i++ {
		h.fsExecOn(i, op)
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
// (ctxMu held) and returns its answer in place: the issuer slot the last
// step's replica wrote it into, or the handler's own slot (ans, readAns)
// for an answer the router composes. Either stays valid until the
// handler's next call.
func (h *handler) shardWrite(op *sys.WriteOp) *sys.Resp {
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
	case sys.NumWrite, sys.NumFDRun:
		return h.shardRun(op)
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
	return h.answer(sys.Resp{Errno: sys.ENOSYS})
}

// answer keeps a response the router composed in the handler's answer
// slot and returns it in place, like a step's issuer slot.
func (h *handler) answer(r sys.Resp) *sys.Resp {
	h.ans = r
	return &h.ans
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
// concurrent protocol holds it. It returns the descriptor as locked — its
// inode, offset and open flags — beside the lock step's response, in the
// proc shard's slot.
func (h *handler) fdLock(procShard int, pid proc.PID, fd fs.FD) (fs.OpenFile, *sys.Resp) {
	for {
		lk := h.procExecOn(procShard, &sys.WriteOp{Num: sys.NumFDLock, PID: pid, FD: fd})
		if lk.Errno != sys.EAGAIN {
			return fs.OpenFile{Ino: lk.Ino, Offset: lk.Off, Flags: int(lk.Val)}, lk
		}
		runtime.Gosched()
	}
}

// fdUnlock releases the descriptor, publishing off as its offset, and
// returns the offset the proc shard stored.
func (h *handler) fdUnlock(procShard int, pid proc.PID, fd fs.FD, off uint64) uint64 {
	return h.procExecOn(procShard, &sys.WriteOp{Num: sys.NumFDUnlock, PID: pid, FD: fd, Len: off}).Off
}

// shardOpen: flags check (pure), descriptor-table existence (proc
// shard), resolve or create (fs group), kind/truncate on the owner,
// descriptor install (proc shard). Mirrors FDTable.Open's order, so the
// errno priorities match the monolithic kernel.
func (h *handler) shardOpen(op *sys.WriteOp) *sys.Resp {
	s := h.s
	if e := sys.OpenFlag(op.Flags).Validate(); e != sys.EOK {
		return h.answer(sys.Resp{Errno: e})
	}
	ps := s.ProcShardOf(op.PID)
	if r := h.procReadOn(ps, sys.ReadOp{Num: sys.NumProcHasTable, PID: op.PID}); r.Errno != sys.EOK {
		return h.answer(r)
	}
	var ino fs.Ino
	lr := h.fsReadOn(s.fsPathShard(op.Path), sys.ReadOp{Num: sys.NumFsLookup, PID: op.PID, Path: op.Path})
	switch {
	case lr.Errno == sys.EOK:
		ino = lr.Ino
	case lr.Errno == sys.ENOENT && op.Flags&fs.OCreate != 0:
		cr := h.nsBroadcast(&sys.WriteOp{Num: sys.NumFsCreate, PID: op.PID, Path: op.Path})
		if cr.Errno == sys.EEXIST {
			// Lost a create race since the lookup; adopt the winner.
			lr = h.fsReadOn(s.fsPathShard(op.Path), sys.ReadOp{Num: sys.NumFsLookup, PID: op.PID, Path: op.Path})
			if lr.Errno != sys.EOK {
				return h.answer(lr)
			}
			ino = lr.Ino
		} else if cr.Errno != sys.EOK {
			return cr
		} else {
			ino = cr.Ino
		}
	default:
		return h.answer(lr)
	}
	owner := s.FsShardOf(ino)
	st := h.fsReadOn(owner, sys.ReadOp{Num: sys.NumFsStatIno, PID: op.PID, Ino: ino})
	if st.Errno != sys.EOK {
		return h.answer(st)
	}
	if st.Stat.Kind == fs.KindDir && op.Flags&(fs.OWrOnly|fs.ORdWr|fs.OTrunc|fs.OAppend) != 0 {
		return h.answer(sys.Resp{Errno: sys.EISDIR})
	}
	if op.Flags&fs.OTrunc != 0 {
		if tr := h.fsExecOn(owner, &sys.WriteOp{Num: sys.NumFsTruncate, PID: op.PID, Ino: ino, Len: 0}); tr.Errno != sys.EOK {
			return tr
		}
	}
	return h.procExecOn(ps, &sys.WriteOp{Num: sys.NumFDOpen, PID: op.PID, Ino: ino, Flags: op.Flags})
}

// shardReadData: NumRead = FDLock → owner ReadAt → FDUnlock(new offset),
// with the witness built (sys.ComposeWitness) from the lock step's
// descriptor, the owner's contents snapshot and the offset the unlock
// stored. The owner's read is replica-local, on this goroutine, into the
// handler's read slot: straight into the caller's buffer when the op
// carries it (op.Data, a per-call read's destination), else into a reply
// buffer.
func (h *handler) shardReadData(op *sys.WriteOp) *sys.Resp {
	s := h.s
	ps := s.ProcShardOf(op.PID)
	pre, lk := h.fdLock(ps, op.PID, op.FD)
	if lk.Errno != sys.EOK {
		sys.ComposeWitness(op, nil, 0, lk)
		return lk
	}
	r := &h.readAns
	if pre.Flags&fs.OWrOnly == 0 {
		h.readOp = sys.ReadOp{
			Num: sys.NumFsReadAt, PID: op.PID, Ino: pre.Ino, Off: pre.Offset, Len: op.Len, Witness: op.Witness, Dst: op.Data,
		}
		h.fsReadInto(s.FsShardOf(pre.Ino), &h.readOp, r)
		h.readOp.Dst = nil
	} else {
		*r = sys.Resp{Errno: sys.EPERM}
	}
	// A failed read has moved nothing: its Val is 0.
	sys.ComposeWitness(op, &pre, h.fdUnlock(ps, op.PID, op.FD, pre.Offset+r.Val), r)
	return r
}

// shardRun executes a run of read/write/seek entries on op's descriptor
// by the Run rule at the top of the file, with the witness built
// (sys.ComposeWitness) from the lock step's descriptor, the owner's
// contents pair around the run and the offset the unlock stored. op is a
// per-call write or SeekEnd — the one-entry run, whose file fields are
// the entry's (sys.Kernel.fsRun) — or a batch's NumFDRun step; the inode,
// open flags and cursor the lock step returns are filled in here. A
// failed lock fails every entry alike.
func (h *handler) shardRun(op *sys.WriteOp) *sys.Resp {
	s := h.s
	ps := s.ProcShardOf(op.PID)
	pre, lk := h.fdLock(ps, op.PID, op.FD)
	if lk.Errno != sys.EOK {
		sys.ComposeWitness(op, nil, 0, lk)
		return lk
	}
	obs.ShardFDRuns.Add(uint32(h.core), 1)
	obs.ShardFDRunOps.Add(uint32(h.core), uint64(op.Entries()))
	run := &h.runOp
	*run = *op
	run.Num, run.Code, run.Ino, run.Flags, run.Size = sys.NumFsRun, int(op.Num), pre.Ino, uint64(pre.Flags), pre.Offset
	r := h.fsExecOn(s.FsShardOf(pre.Ino), run)
	run.Data, run.Run = nil, nil
	sys.ComposeWitness(op, &pre, h.fdUnlock(ps, op.PID, op.FD, r.Off), r)
	return r
}

// shardSeek: SeekSet/SeekCur are one transition on the proc shard, which
// refuses a locked descriptor (retried here, like fdLock) so a seek
// never lands inside another handle's run. SeekEnd needs the owner's
// size, so it takes the descriptor like a data op: a one-entry run.
func (h *handler) shardSeek(op *sys.WriteOp) *sys.Resp {
	if op.Whence == fs.SeekEnd {
		return h.shardRun(op)
	}
	ps := h.s.ProcShardOf(op.PID)
	for {
		r := h.procExecOn(ps, &sys.WriteOp{
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
func (h *handler) shardTruncate(op *sys.WriteOp) *sys.Resp {
	s := h.s
	g := h.procReadOn(s.ProcShardOf(op.PID), sys.ReadOp{Num: sys.NumFDGet, PID: op.PID, FD: op.FD})
	if g.Errno != sys.EOK {
		return h.answer(g)
	}
	return h.fsExecOn(s.FsShardOf(g.Ino), &sys.WriteOp{Num: sys.NumFsTruncate, PID: op.PID, Ino: g.Ino, Len: op.Len})
}

// shardSpawn: tree first (shard 0 allocates the PID), resources second
// (the child's shard), with tree rollback when the attach fails.
func (h *handler) shardSpawn(op *sys.WriteOp) *sys.Resp {
	s := h.s
	tr := h.procExecOn(0, &sys.WriteOp{Num: sys.NumProcSpawn, PID: op.PID, Name: op.Name})
	if tr.Errno != sys.EOK {
		return tr
	}
	child := proc.PID(tr.Val)
	at := h.procExecOn(s.ProcShardOf(child), &sys.WriteOp{Num: sys.NumProcAttach, PID: op.PID, Target: child})
	if at.Errno != sys.EOK {
		at := *at
		h.procExecOn(0, &sys.WriteOp{Num: sys.NumProcUnspawn, PID: op.PID, Target: child})
		return h.answer(at)
	}
	return h.answer(sys.Resp{Errno: sys.EOK, Val: uint64(child)})
}

// shardExit: resources first (victim's shard), tree last (shard 0) —
// see the ordering rules at the top of the file. op.PID is the victim.
func (h *handler) shardExit(op *sys.WriteOp) *sys.Resp {
	s := h.s
	dt := *h.procExecOn(s.ProcShardOf(op.PID), &sys.WriteOp{Num: sys.NumProcDetach, PID: op.PID, Target: op.PID})
	if dt.Errno != sys.EOK {
		return h.answer(dt)
	}
	if tr := h.procExecOn(0, &sys.WriteOp{Num: sys.NumProcExit, PID: op.PID, Code: op.Code}); tr.Errno != sys.EOK {
		return tr
	}
	return h.answer(sys.Resp{Errno: sys.EOK, Freed: dt.Freed, Unpinned: dt.Unpinned})
}

// shardKill: SIGKILL composes as the victim's exit; other signals are a
// tree-only transition on shard 0.
func (h *handler) shardKill(op *sys.WriteOp) *sys.Resp {
	if op.Sig == proc.SIGKILL {
		if op.Target == proc.InitPID {
			return h.answer(sys.Resp{Errno: sys.EPERM})
		}
		return h.shardExit(&sys.WriteOp{Num: sys.NumExit, PID: op.Target, Code: 128 + int(proc.SIGKILL)})
	}
	return h.procExecOn(0, op)
}
