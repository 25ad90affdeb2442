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

// This file is the pread family's dispatch and the core half of the
// page cache (internal/pcache): the cache's frame source over the shared
// data-frame allocator, and the routing that keeps cache-owned frames out
// of the buddy allocator while mappings can still reach them.
//
// The read-path contract (PAPER.md §4.1): a copying pread is two
// replica-local reads and never the write log — NumFDGet on the
// process's shard resolves the descriptor, then one NumFsReadAt on the
// inode's owner shard reads the file straight into the caller's buffer
// under that replica's read lock. The fs replica already holds every
// file's pages (fs.PageFile), so the copy is file → buffer, and a read
// of any length observes one state of the file. Only the zero-copy tier
// (PreadMap) goes through the cache, whose frames it aliases into the
// caller's vspace; writers invalidate those pages through the fs
// Invalidator hook as their mutation applies, before the write returns.

// cacheFrames adapts the system's shared data-frame allocator and
// physical memory to pcache.FrameSource. Its frames are not zeroed
// (allocDataFrames is the user-mapping source, which must zero): the
// cache writes every byte of a frame before publishing it.
type cacheFrames struct{ s *System }

func (cf cacheFrames) AllocFrame() (mem.PAddr, error) {
	cf.s.dataMu.Lock()
	defer cf.s.dataMu.Unlock()
	return cf.s.dataAlloc.AllocOrder(0)
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

// resolveLocked resolves a descriptor to (ino, flags) with one
// replica-local read (ctxMu held). The kernel answers into the handler's
// read slot, and the resolver returns the three scalars it needs, not a
// response: a Resp is 360 bytes, and the read path would copy it through
// every frame back.
func (h *handler) resolveLocked(pid proc.PID, fd fs.FD) (fs.Ino, int, sys.Errno) {
	h.readOp = sys.ReadOp{Num: sys.NumFDGet, PID: pid, FD: fd}
	g := &h.readAns
	h.procReadInto(h.s.ProcShardOf(pid), &h.readOp, g)
	return g.Ino, int(g.Val), g.Errno
}

// pread serves NumPread into *out: the descriptor resolve, the
// permission check, then one NumFsReadAt on the inode's owner shard, a
// replica-local read that writes dst — the caller's own buffer when the
// call crossed through SyscallInto, so the read is one copy, file to
// buffer, and what crosses back is the (value, errno) pair. A nil dst is
// the reply form (an encoded reply, or a batch completion, carries the
// bytes): the apply allocates the buffer, clamped to what the file can
// supply from op.Off. Both reads answer in the handler's slot (a slot
// on this stack would escape through the replica's interface), and no
// descriptor lock is taken — a positioned read neither reads nor writes
// the offset.
//
// The read is one transition, so however many pages it spans it returns
// the file as of one point of the owner's log, and a witnessed pread is
// the same transition asked for its witness: the file's contents as of
// that point, on both sides (sys.Kernel.contentsWitness).
func (h *handler) pread(op *sys.ReadOp, dst []byte, out *sys.Resp) {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	ino, flags, e := h.resolveLocked(op.PID, op.FD)
	if e == sys.EOK && flags&fs.OWrOnly != 0 {
		e = sys.EPERM
	}
	if e != sys.EOK {
		*out = sys.Resp{Errno: e}
		return
	}
	h.readOp = sys.ReadOp{Num: sys.NumFsReadAt, PID: op.PID, Ino: ino, Off: op.Off, Len: op.Len, Witness: op.Witness, Dst: dst}
	r := &h.readAns
	h.fsReadInto(h.s.FsShardOf(ino), &h.readOp, r)
	*out = sys.Resp{Errno: r.Errno, Val: r.Val, Data: r.Data, Witness: r.Witness}
	// The slot must not keep the caller's buffer or the witness's views.
	h.readOp.Dst, r.Data, r.Witness = nil, nil, sys.Witness{}
}

// preadReply is pread's reply form (an encoded reply, or a batch
// completion): the bytes travel in the response. It is kept out of its
// callers so that the response and the op it takes by value live in its
// frame only while it runs, not in the syscall and batch frames: those
// run on the submission ring's drainer, a goroutine started per batch on
// a minimum stack, and a few hundred bytes more there make every batch
// grow its stack (ring_sync ×0.79 when this was inlined).
//
//go:noinline
func (h *handler) preadReply(op sys.ReadOp) sys.Resp {
	var r sys.Resp
	h.pread(&op, nil, &r)
	return r
}

// SyscallInto implements sys.DestHandler: the boundary crossing whose
// result lands in the caller's buffer instead of a reply payload. The
// two copying reads have a destination: a pread fills it in its
// replica-local read, a read rides the log with it and only the issuer
// replica's apply fills it (handler.logged). Both get the same kstat
// probe as Syscall.
func (h *handler) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	t0 := obs.Start()
	ret := marshal.RetFrame{Errno: uint64(sys.EINVAL)}
	if frame.Num == sys.NumRead {
		ret, _ = h.logged(frame, payload, dst, true)
	} else if op, err := sys.DecodeRead(frame, payload); err == nil && op.Num == sys.NumPread {
		// The frame's length is the caller's word; the buffer is the bound.
		// (An empty buffer degenerates to the reply form with nothing to
		// carry: the descriptor is still checked.)
		op.Len = min(op.Len, uint64(len(dst)))
		var r sys.Resp
		h.pread(&op, dst[:op.Len], &r)
		if op.Witness {
			h.keepWitness(r.Witness)
		}
		ret = marshal.RetFrame{Value: r.Val, Errno: uint64(r.Errno)}
	}
	obs.Syscalls.Observe(frame.Num, uint32(h.core), t0)
	obs.KernelTrace.Emit(obs.KindSyscall, frame.Num, uint64(h.core))
	return ret
}

// preadMap serves NumPreadMap, the zero-copy tier: pin the cached page
// covering the page-aligned offset (filling it if absent), then run the
// logged mapping transition that aliases the frame read-only into the
// caller's vspace. Resp.Val is the mapping VA; Resp.Stat.Size is the
// page's valid byte count.
func (h *handler) preadMap(op sys.WriteOp) sys.Resp {
	if op.Off < 0 || uint64(op.Off)%pcache.PageSize != 0 {
		return sys.Resp{Errno: sys.EINVAL}
	}
	h.ctxMu.Lock()
	ino, flags, e := h.resolveLocked(op.PID, op.FD)
	if e == sys.EOK && flags&fs.OWrOnly != 0 {
		e = sys.EPERM
	}
	var frame mem.PAddr
	var n uint32
	if e == sys.EOK {
		frame, n, e = h.pinPageLocked(op.PID, ino, uint64(op.Off))
	}
	h.ctxMu.Unlock()
	if e != sys.EOK {
		return sys.Resp{Errno: e}
	}
	mr := h.procExec(sys.WriteOp{Num: sys.NumPageMap, PID: op.PID, Frames: []mem.PAddr{frame}})
	if mr.Errno != sys.EOK {
		h.s.pcacheFor(ino).UnmapFrame(frame) // drop the pin; the mapping never existed
		return mr
	}
	return sys.Resp{Errno: sys.EOK, Val: mr.Val, Stat: fs.Stat{Ino: ino, Size: uint64(n)}}
}

// pinPageLocked pins ino's cached page at off for a mapping (ctxMu held).
// A miss fills the page through the cache — one NumFsReadAt on the
// owner shard into the handler's fill page, which the cache installs
// the frame from — and pins it then; a second failure means an
// invalidation raced the fill, and the caller may retry (EAGAIN).
func (h *handler) pinPageLocked(pid proc.PID, ino fs.Ino, off uint64) (mem.PAddr, uint32, sys.Errno) {
	cache := h.s.pcacheFor(ino)
	if frame, n, ok := cache.MapPage(ino, off, h.core); ok {
		return frame, n, sys.EOK
	}
	if h.fillPage == nil {
		h.fillPage = new([pcache.PageSize]byte)
	}
	fill := func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		r := h.fsReadOn(h.s.FsShardOf(ino), sys.ReadOp{Num: sys.NumFsReadAt, PID: pid, Ino: ino, Off: off, Len: uint64(len(p)), Dst: p})
		return int(r.Val), r.Errno
	}
	if _, e := cache.ReadAt(ino, off, h.fillPage[:], fill, h.core); e != sys.EOK {
		return 0, 0, e
	}
	if frame, n, ok := cache.MapPage(ino, off, h.core); ok {
		return frame, n, sys.EOK
	}
	return 0, 0, sys.EAGAIN
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
