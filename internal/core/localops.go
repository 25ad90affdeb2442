package core

import (
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// This file implements the syscalls the composition layer serves
// outside the replicated kernel state: raw user-memory access (not a
// kernel-state transition), futexes (they block), and the durability
// transition (a device effect against the one disk). NrOS similarly
// keeps device- and blocking-state per node rather than in the
// replicated structures. Sockets used to live here wholesale; their
// table half is now replicated state (see netops.go) and only the
// interrupt-fed receive path remains device-local.

func (s *System) localOp(h *handler, op sys.WriteOp) sys.Resp {
	switch op.Num {
	case sys.NumMemRead:
		// Len is the frame's word, so the kernel sizes the reply itself,
		// after checking the range against the caller's mappings.
		var buf []byte
		e := sys.EFAULT
		s.procKernel(h.core, op.PID, func(k *sys.Kernel) { buf, e = k.UserReadN(op.PID, op.VA, op.Len) })
		if e != sys.EOK {
			return sys.Resp{Errno: e}
		}
		return sys.Resp{Errno: sys.EOK, Val: op.Len, Data: buf}

	case sys.NumMemWrite:
		if e := s.userMem(h.core, op.PID, op.VA, op.Data, true); e != sys.EOK {
			return sys.Resp{Errno: e}
		}
		return sys.Resp{Errno: sys.EOK, Val: uint64(len(op.Data))}

	case sys.NumMemCAS:
		return s.memCAS(h, op)

	case sys.NumFutexWait:
		return s.futexWait(h, op)

	case sys.NumFutexWake:
		return s.futexWake(op)

	case sys.NumSync:
		// The durability transition (§3 contract extended with crash
		// consistency): one journal group-commit round (internal/walshard)
		// — or a full snapshot without a journal, which only a co-located
		// kernel can take (ENOSYS otherwise; see snapshotFS). Local because
		// the disk is a device, not replicated state; replica ordering
		// comes from syncing replica 0 of each fs shard to its log tail
		// first (see syncDurable).
		return sys.Resp{Errno: s.syncErrno()}
	}
	return sys.Resp{Errno: sys.ENOSYS}
}

// userMem accesses process memory through the calling core's replica,
// under the replica's read lock so the page tables are stable.
func (s *System) userMem(core int, pid proc.PID, va mmu.VAddr, p []byte, write bool) sys.Errno {
	e := sys.EFAULT
	s.procKernel(core, pid, func(k *sys.Kernel) {
		if write {
			e = k.UserWrite(pid, va, p)
		} else {
			e = k.UserRead(pid, va, p)
		}
	})
	return e
}

// procKernel runs f against core's replica of the process shard that
// holds pid's address space, synced to its log tail.
func (s *System) procKernel(core int, pid proc.PID, f func(*sys.Kernel)) {
	s.InspectProcShard(s.ProcShardOf(pid), s.replicaOf(core), f)
}

// memCAS implements the atomic compare-and-swap "instruction" on a
// 32-bit user word. Atomicity with respect to other memCAS and
// futexWait value checks is provided by futexMu — the same serialization
// point the kernel futex uses, so the userspace mutex protocol composes
// correctly with FUTEX_WAIT.
func (s *System) memCAS(h *handler, op sys.WriteOp) sys.Resp {
	s.futexMu.Lock()
	defer s.futexMu.Unlock()
	var word [4]byte
	if e := s.userMem(h.core, op.PID, op.VA, word[:], false); e != sys.EOK {
		return sys.Resp{Errno: e}
	}
	cur := uint32(word[0]) | uint32(word[1])<<8 | uint32(word[2])<<16 | uint32(word[3])<<24
	swapped := false
	if cur == op.Word {
		nv := uint32(op.Len)
		nw := [4]byte{byte(nv), byte(nv >> 8), byte(nv >> 16), byte(nv >> 24)}
		if e := s.userMem(h.core, op.PID, op.VA, nw[:], true); e != sys.EOK {
			return sys.Resp{Errno: e}
		}
		swapped = true
	}
	return sys.Resp{Errno: sys.EOK, Val: uint64(cur), SigOK: swapped}
}

// futexWait implements FUTEX_WAIT: the value check and the enqueue are
// atomic with respect to futexWake (both hold futexMu), eliminating
// lost wakeups — the property the ulib Mutex, Cond and Semaphore
// protocols depend on.
func (s *System) futexWait(h *handler, op sys.WriteOp) sys.Resp {
	key := futexKey{pid: op.PID, va: op.VA}
	s.futexMu.Lock()
	var word [4]byte
	if e := s.userMem(h.core, op.PID, op.VA, word[:], false); e != sys.EOK {
		s.futexMu.Unlock()
		return sys.Resp{Errno: e}
	}
	cur := uint32(word[0]) | uint32(word[1])<<8 | uint32(word[2])<<16 | uint32(word[3])<<24
	if cur != op.Word {
		s.futexMu.Unlock()
		return sys.Resp{Errno: sys.EAGAIN}
	}
	ch := make(chan struct{})
	s.futexQ[key] = append(s.futexQ[key], ch)
	s.futexMu.Unlock()
	<-ch
	return sys.Resp{Errno: sys.EOK}
}

// futexWake implements FUTEX_WAKE, returning the number woken.
func (s *System) futexWake(op sys.WriteOp) sys.Resp {
	key := futexKey{pid: op.PID, va: op.VA}
	n := op.Len
	if n == 0 {
		n = 1
	}
	s.futexMu.Lock()
	q := s.futexQ[key]
	woken := uint64(0)
	for woken < n && len(q) > 0 {
		close(q[0])
		q = q[1:]
		woken++
	}
	if len(q) == 0 {
		delete(s.futexQ, key)
	} else {
		s.futexQ[key] = q
	}
	s.futexMu.Unlock()
	return sys.Resp{Errno: sys.EOK, Val: woken}
}
