package core

import (
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// This file is the core half of the sharded page cache (internal/
// pcache): the pread family's dispatch, the cache's frame source over
// the shared data-frame allocator, and the boot/teardown wiring that
// keeps cache-owned frames out of the buddy allocator while readers or
// mappings can still reach them.
//
// The read-path contract: a pread resolves its descriptor with one
// replica-local ExecuteRead (NumFDGet — never the write log), then
// serves bytes from the per-fs-shard cache. Cache hits copy out under
// an epoch pin without touching any NR instance; misses fill with one
// more ExecuteRead (NumFsReadAt) against the inode's owner shard.
// Writers invalidate through the fs Invalidator hook as their mutation
// applies, before the write returns — so a pread that starts after a
// write completes can never serve the overwritten bytes.

// cacheFrames adapts the system's shared data-frame allocator and
// physical memory to pcache.FrameSource.
type cacheFrames struct{ s *System }

func (cf cacheFrames) AllocFrame() (mem.PAddr, error) {
	fr, err := cf.s.allocDataFrames(1)
	if err != nil {
		return 0, err
	}
	return fr[0], nil
}

func (cf cacheFrames) FreeFrame(f mem.PAddr) { cf.s.freeDataFrames([]mem.PAddr{f}) }

func (cf cacheFrames) WriteFrame(f mem.PAddr, off uint64, p []byte) {
	_ = cf.s.Machine.Mem.Write(f+mem.PAddr(off), p)
}

func (cf cacheFrames) ReadFrame(f mem.PAddr, off uint64, p []byte) {
	_ = cf.s.Machine.Mem.Read(f+mem.PAddr(off), p)
}

// pcacheFor returns the cache serving an inode's pages: its owner
// shard's.
func (s *System) pcacheFor(ino fs.Ino) *pcache.Cache { return s.pcaches[s.FsShardOf(ino)] }

// PCache exposes a shard's cache for obligations and tools.
func (s *System) PCache(shard int) *pcache.Cache { return s.pcaches[shard] }

// unpinFrames routes cache-owned frames whose vspace alias went away
// (Resp.Unpinned from page_unmap/exit) back to their owning cache. They
// must never reach freeDataFrames: the cache still serves reads from
// them, and reclamation frees them only at epoch quiescence.
func (s *System) unpinFrames(frames []mem.PAddr) {
	for _, f := range frames {
		for _, c := range s.pcaches {
			if c.Owns(f) {
				c.UnmapFrame(f)
				break
			}
		}
	}
}

// preadResolve resolves a descriptor to (ino, flags) with one
// replica-local read — the only kernel crossing a cache-hit pread pays.
func (h *handler) preadResolve(pid proc.PID, fd fs.FD) (fs.Ino, int, sys.Resp) {
	h.ctxMu.Lock()
	g := h.procReadOn(h.s.ProcShardOf(pid), sys.ReadOp{Num: sys.NumFDGet, PID: pid, FD: fd})
	h.ctxMu.Unlock()
	if g.Errno != sys.EOK {
		return 0, 0, g
	}
	return g.Ino, int(g.Val), sys.Resp{Errno: sys.EOK}
}

// fsRead runs one replica-local read against the owner of op.Ino (the
// authoritative contents and size).
func (h *handler) fsRead(op sys.ReadOp) sys.Resp {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	return h.fsReadOn(h.s.FsShardOf(op.Ino), op)
}

// preadFill returns the Filler backing cache misses: one ExecuteRead of
// the page against the inode's owner (the authoritative contents).
func (h *handler) preadFill(pid proc.PID) pcache.Filler {
	return func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		r := h.fsRead(sys.ReadOp{Num: sys.NumFsReadAt, PID: pid, Ino: ino, Off: off, Len: uint64(len(p))})
		if r.Errno != sys.EOK {
			return 0, r.Errno
		}
		copy(p, r.Data)
		return int(r.Val), sys.EOK
	}
}

// pread serves NumPread: descriptor resolve, permission check, then the
// cache read, delivered into dst — the caller's own buffer when the call
// crossed through SyscallInto, so a hit is one copy, frame to buffer. A
// nil dst is the reply form (an encoded reply, or a batch completion,
// carries the bytes): the buffer is allocated here, and because op.Len
// is then the only bound and comes from the frame, it is first clamped
// to what the file can supply — one more replica-local read, which the
// destination form never pays. No descriptor lock is taken — a
// positioned read neither reads nor writes the offset, so there is no
// descriptor state to race on; concurrent writes to the same file are
// handled by the cache's invalidation protocol (page-wise read
// atomicity, as documented on pcache.ReadAt).
func (h *handler) pread(op sys.ReadOp, dst []byte) sys.Resp {
	ino, flags, r := h.preadResolve(op.PID, op.FD)
	if r.Errno != sys.EOK {
		return r
	}
	if flags&fs.OWrOnly != 0 {
		return sys.Resp{Errno: sys.EPERM}
	}
	if dst == nil {
		st := h.fsRead(sys.ReadOp{Num: sys.NumFsStatIno, PID: op.PID, Ino: ino})
		if st.Errno != sys.EOK {
			return sys.Resp{Errno: st.Errno}
		}
		dst = make([]byte, sys.ClampReadLen(op.Len, op.Off, st.Stat.Size))
	}
	n, e := h.s.pcacheFor(ino).ReadAt(ino, op.Off, dst, h.preadFill(op.PID), h.core)
	if e != sys.EOK {
		return sys.Resp{Errno: e}
	}
	return sys.Resp{Errno: sys.EOK, Val: uint64(n), Data: dst[:n]}
}

// SyscallInto implements sys.DestHandler: the boundary crossing whose
// result lands in the caller's buffer instead of a reply payload. Only
// the positioned read has a destination; it gets the same interrupt
// drain and kstat probe as Syscall.
func (h *handler) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	t0 := obs.Start()
	h.pollInterrupts()
	r := sys.Resp{Errno: sys.EINVAL}
	if op, err := sys.DecodeRead(frame, payload); err == nil && op.Num == sys.NumPread {
		// The frame's length is the caller's word; the buffer is the bound.
		// (An empty buffer degenerates to the reply form with nothing to
		// carry: the descriptor is still checked.)
		op.Len = min(op.Len, uint64(len(dst)))
		r = h.pread(op, dst[:op.Len])
	}
	obs.Syscalls.Observe(frame.Num, uint32(h.core), t0)
	obs.KernelTrace.Emit(obs.KindSyscall, frame.Num, uint64(h.core))
	return marshal.RetFrame{Value: r.Val, Errno: uint64(r.Errno)}
}

// preadMap serves NumPreadMap, the zero-copy tier: pin the cached page
// covering the page-aligned offset (populating it through the copying
// path if absent), then run the logged mapping transition that aliases
// the frame read-only into the caller's vspace. Resp.Val is the mapping
// VA; Resp.Stat.Size is the page's valid byte count.
func (h *handler) preadMap(op sys.WriteOp) sys.Resp {
	s := h.s
	if op.Off < 0 || uint64(op.Off)%pcache.PageSize != 0 {
		return sys.Resp{Errno: sys.EINVAL}
	}
	off := uint64(op.Off)
	ino, flags, r := h.preadResolve(op.PID, op.FD)
	if r.Errno != sys.EOK {
		return r
	}
	if flags&fs.OWrOnly != 0 {
		return sys.Resp{Errno: sys.EPERM}
	}
	cache := s.pcacheFor(ino)
	frame, n, ok := cache.MapPage(ino, off, h.core)
	if !ok {
		// Miss: populate the page through the copying path (which fills
		// and inserts the whole page), then pin it. A second failure
		// means an invalidation raced us — the caller may retry.
		var one [1]byte
		if _, e := cache.ReadAt(ino, off, one[:], h.preadFill(op.PID), h.core); e != sys.EOK {
			return sys.Resp{Errno: e}
		}
		if frame, n, ok = cache.MapPage(ino, off, h.core); !ok {
			return sys.Resp{Errno: sys.EAGAIN}
		}
	}
	mr := h.procExec(sys.WriteOp{Num: sys.NumPageMap, PID: op.PID, Frames: []mem.PAddr{frame}})
	if mr.Errno != sys.EOK {
		cache.UnmapFrame(frame) // drop the pin; the mapping never existed
		return mr
	}
	return sys.Resp{Errno: sys.EOK, Val: mr.Val, Stat: fs.Stat{Ino: ino, Size: uint64(n)}}
}

// preadUnmap serves NumPreadUnmap: the logged unmap transition returns
// the frame in Resp.Unpinned, and the cache pin drops here — never a
// buddy free.
func (h *handler) preadUnmap(op sys.WriteOp) sys.Resp {
	r := h.procExec(sys.WriteOp{Num: sys.NumPageUnmap, PID: op.PID, VA: op.VA})
	if r.Errno == sys.EOK {
		h.s.unpinFrames(r.Unpinned)
	}
	return r
}
