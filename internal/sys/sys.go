package sys

import (
	"fmt"
	"sync"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
)

// Handler is the kernel side of the syscall boundary: internal/core's
// replicated kernel implements it. The two byte slices are the
// marshalled argument and result payloads — nothing else crosses.
type Handler interface {
	Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte)
}

// Viewer exposes the kernel's view() abstraction (the paper's
// sys.view()) for the two contract checks that span a window rather than
// one transition: a drained batch (checkBatch) and Pread. Views are O(1)
// immutable snapshots (fs.AbstractFDs).
type Viewer interface {
	ViewFDs(pid proc.PID) (fs.SpecState, bool)
}

// Witnesser is implemented by handlers that can hand over the witness
// of the op they just served (Resp.Witness travels unmarshalled: it is a
// snapshot of kernel memory, not bytes). Read, Write and Seek are
// checked against it.
type Witnesser interface {
	// TakeWitness returns and clears the last witnessed op's witness.
	TakeWitness() *Witness
}

// DestHandler is implemented by handlers that take the caller's buffer
// as the destination of a read: the §3 mapping obligation ("user buffers
// appear at known kernel addresses") instead of marshalling. The kernel
// writes at most len(dst) bytes into dst and nothing past the count it
// returns; the reply is the register frame alone (errno and count), with
// no payload to allocate, encode or copy out of. Pread crosses this way
// when it can. dst is the handler's until the call returns — one handle
// is one thread of control, and the buffer is the call's `&mut` borrow.
type DestHandler interface {
	SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame
}

// Sys is the user-space handle encapsulating the syscall interface —
// the paper's `Sys` type. Each process (and in the simulated system,
// each user program goroutine) holds one. When a Viewer is attached,
// every file syscall is checked against its spec relation, making the
// paper's `ensures` clauses executable.
//
// What is captured where: a checked Read, Write or Seek sets
// WriteOp.Witness, and the kernel captures the descriptor's abstraction
// on both sides of the transition inside the apply (Kernel.witnessed; on
// the sharded kernel composed across the fd lock, see core's
// composeWitness). The spec relation is evaluated here, over that pair
// and the buffer the caller received — one crossing, and pre and post
// are adjacent however many handles or processes run beside this one.
// A batch and Pread are windows, not single transitions: they bracket
// the crossing with two Viewer snapshots instead.
//
// One handle is one thread of control. The paper's Sys methods take
// `&mut self`, so two calls on one handle can never overlap. Go cannot
// say that statically, so Read, Write, Seek and Pread hold the handle
// for the whole call: the handler keeps one witness per handle, and
// Pread's two views must not bracket a sibling call's offset change.
// They hold it with the contract off too, so a call that started
// unchecked cannot overlap the first checked one after EnableContract.
type Sys struct {
	pid proc.PID
	h   Handler
	// wit is h when it can witness (nil otherwise); dest is h when it
	// takes a destination buffer.
	wit  Witnesser
	dest DestHandler

	// core is the core the handle's kernel handler is pinned to (0 when
	// the handler doesn't expose one) — the stripe for ring and contract
	// obs counters and the documentation of the per-core ring placement.
	core uint32
	// ring is this handle's submission ring (see submit.go). The handler
	// pins the handle to one core, so this is the per-core ring.
	ring subRing

	// contract checking (optional). mu guards viewer and cerr: the
	// viewer may be attached by EnableContract after syscall goroutines
	// are already running, so unsynchronized reads would race.
	mu     sync.Mutex
	viewer Viewer
	cerr   error
	// call is held by Read, Write, Seek and Pread for the whole call (see
	// the type comment).
	call sync.Mutex
}

// CorePinned is implemented by handlers that pin the handle to one
// core (internal/core's per-process handler does); the submission ring
// uses it to stripe its observability counters by core.
type CorePinned interface {
	Core() int
}

// NewSys creates a handle for the given process.
func NewSys(pid proc.PID, h Handler) *Sys {
	s := &Sys{pid: pid, h: h}
	if cp, ok := h.(CorePinned); ok {
		s.core = uint32(cp.Core())
	}
	s.wit, _ = h.(Witnesser)
	s.dest, _ = h.(DestHandler)
	return s
}

// PID returns the owning process.
func (s *Sys) PID() proc.PID { return s.pid }

// EnableContract attaches a Viewer; from now on file syscalls are
// checked against read_spec/write_spec/seek_spec. Safe to call while
// other goroutines are issuing syscalls through this handle: a call
// decides whether it is checked when it starts (Read, Write, Seek: when
// it builds the op; a batch or Pread: at its pre view), so calls already
// past that point complete unchecked and later ones are checked.
func (s *Sys) EnableContract(v Viewer) {
	s.mu.Lock()
	s.viewer = v
	s.mu.Unlock()
}

// ContractErr returns the first recorded contract violation, if any.
func (s *Sys) ContractErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cerr
}

func (s *Sys) recordViolation(err error) {
	obs.ContractViolations.Add(s.core, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cerr == nil {
		s.cerr = err
	}
}

// checking reports whether a Viewer is attached (contract mode).
func (s *Sys) checking() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewer != nil
}

// callWitnessed crosses the boundary with a read, write or seek. In
// contract mode the op asks for a witness and the handler's is returned
// beside the response; a kernel that delivers none has broken the
// contract as surely as one that delivers wrong bytes.
func (s *Sys) callWitnessed(op WriteOp) (Resp, *Witness) {
	op.Witness = s.checking()
	r := s.callWrite(op)
	if !op.Witness {
		return r, nil
	}
	var w *Witness
	if s.wit != nil {
		w = s.wit.TakeWitness()
	}
	if w == nil {
		s.recordViolation(fmt.Errorf("%s(%d): kernel returned no witness", OpName(op.Num), op.FD))
		return r, nil
	}
	obs.ContractWitnessed.Add(s.core, 1)
	if r.Errno != EOK {
		// A failed transition changes nothing.
		if err := w.Unchanged(); err != nil {
			s.recordViolation(fmt.Errorf("%s(%d) failed with %v but: %w", OpName(op.Num), op.FD, r.Errno, err))
		}
		return r, nil
	}
	return r, w
}

// callWrite crosses the boundary with a mutating op.
func (s *Sys) callWrite(op WriteOp) Resp {
	op.PID = s.pid
	frame, payload := EncodeWrite(op)
	ret, out := s.h.Syscall(frame, payload)
	r, err := DecodeResp(ret, out)
	if err != nil {
		return Resp{Errno: EINVAL}
	}
	return r
}

// callRead crosses the boundary with a read-only op.
func (s *Sys) callRead(op ReadOp) Resp {
	op.PID = s.pid
	frame, payload := EncodeRead(op)
	ret, out := s.h.Syscall(frame, payload)
	r, err := DecodeResp(ret, out)
	if err != nil {
		return Resp{Errno: EINVAL}
	}
	return r
}

// view snapshots the kernel's abstraction of this process's
// descriptors (contract mode only).
func (s *Sys) view() (fs.SpecState, bool) {
	s.mu.Lock()
	v := s.viewer
	s.mu.Unlock()
	if v == nil {
		return fs.SpecState{}, false
	}
	// ViewFDs runs outside the lock: it crosses into the kernel and
	// must not serialize against recordViolation on other goroutines.
	return v.ViewFDs(s.pid)
}

// Open opens (or with OCreate creates) path. Invalid flag combinations
// are rejected here, before the boundary crossing — the typed OpenFlag
// surface makes "deep in fs" rejection unnecessary.
func (s *Sys) Open(path string, flags OpenFlag) (fs.FD, Errno) {
	if e := flags.Validate(); e != EOK {
		return 0, e
	}
	r := s.callWrite(WriteOp{Num: NumOpen, Path: path, Flags: uint64(flags)})
	return fs.FD(r.Val), r.Errno
}

// Close releases a descriptor.
func (s *Sys) Close(fd fs.FD) Errno {
	return s.callWrite(WriteOp{Num: NumClose, FD: fd}).Errno
}

// Read reads up to len(buffer) bytes at the descriptor's offset,
// returning the count — the paper's worked example. In contract mode
// the call is checked against read_spec over the witnessed transition
// and the bytes delivered into buffer.
func (s *Sys) Read(fd fs.FD, buffer []byte) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	r, w := s.callWitnessed(WriteOp{Num: NumRead, FD: fd, Len: uint64(len(buffer))})
	if r.Errno != EOK {
		return 0, r.Errno
	}
	n := copy(buffer, r.Data)
	if w != nil {
		// The kernel acquires the descriptor lock as the first step of
		// the atomic syscall transition; the spec's precondition sees
		// that intermediate state.
		w.Pre.Locked = true
		pre, post := w.States(fd)
		if err := fs.ReadSpec(pre, post, fd, uint64(len(buffer)), buffer, r.Val); err != nil {
			s.recordViolation(fmt.Errorf("read(%d): %w", fd, err))
		}
	}
	return uint64(n), EOK
}

// Pread reads up to len(buffer) bytes at the absolute offset off,
// without moving the descriptor's offset. Because it mutates no kernel
// state it travels as a read op: cache hits are served from the sharded
// page cache without crossing the NR combiner. A DestHandler is handed
// buffer itself, so a hit costs one copy (cached frame to buffer) and the
// reply carries no data; any other handler returns the bytes in an
// encoded reply. In contract mode the result is checked against the pre
// view's contents (a positioned read_spec: same bytes, offset
// untouched), on what was delivered into buffer either way.
func (s *Sys) Pread(fd fs.FD, buffer []byte, off uint64) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	pre, checking := s.view()
	op := ReadOp{Num: NumPread, PID: s.pid, FD: fd, Len: uint64(len(buffer)), Off: off}
	var val uint64 // the count the kernel reports
	if s.dest != nil {
		frame, payload := EncodeRead(op)
		ret := s.dest.SyscallInto(frame, payload, buffer)
		if e := Errno(ret.Errno); e != EOK {
			return 0, e
		}
		val = ret.Value
	} else {
		r := s.callRead(op)
		if r.Errno != EOK {
			return 0, r.Errno
		}
		copy(buffer, r.Data)
		val = r.Val
	}
	if checking {
		post, _ := s.view()
		if err := preadCheck(pre, post, fd, off, buffer, val); err != nil {
			s.recordViolation(fmt.Errorf("pread(%d): %w", fd, err))
		}
	}
	return min(val, uint64(len(buffer))), EOK
}

// preadCheck is the positioned-read contract: the first n bytes of the
// caller's buffer got are exactly pre.contents[off:off+n], n is
// min(len(got), size-off), and the descriptor's offset is unchanged. A
// concurrent writer can move the file between the pre snapshot and the
// read, so the check tolerates a post-state match too (the read
// linearized after the write); only a result matching neither snapshot
// is a violation.
func preadCheck(pre, post fs.SpecState, fd fs.FD, off uint64, got []byte, n uint64) error {
	match := func(st fs.SpecState) bool {
		f, ok := st.Files[fd]
		if !ok {
			return false
		}
		want := uint64(0)
		if off < f.Size() {
			want = f.Size() - off
		}
		if uint64(len(got)) < want {
			want = uint64(len(got))
		}
		if n != want {
			return false
		}
		// n > 0 implies off+n <= size, so the window is in bounds.
		return n == 0 || f.Contents.EqualBytes(off, got[:n])
	}
	if !match(pre) && !match(post) {
		return fmt.Errorf("pread at %d returned %d bytes matching neither pre nor post contents", off, n)
	}
	pf, ok1 := pre.Files[fd]
	qf, ok2 := post.Files[fd]
	if ok1 && ok2 && qf.Offset != pf.Offset {
		return fmt.Errorf("pread moved descriptor offset %d -> %d", pf.Offset, qf.Offset)
	}
	return nil
}

// PreadMap is the zero-copy tier of the positioned read: for a
// page-aligned offset whose page is resident in the page cache, it maps
// the cached frame read-only into the caller's vspace and returns the
// mapping's base address plus the number of valid bytes behind it
// (Stat.Size of the response). The mapping observes exactly the bytes a
// copying Pread would have returned (the read-mapping-refines-copy VC);
// release it with PreadUnmap. EAGAIN means no cached page was available
// — fall back to Pread.
func (s *Sys) PreadMap(fd fs.FD, off uint64) (mmu.VAddr, uint64, Errno) {
	r := s.callWrite(WriteOp{Num: NumPreadMap, FD: fd, Off: int64(off)})
	if r.Errno != EOK {
		return 0, 0, r.Errno
	}
	return mmu.VAddr(r.Val), r.Stat.Size, EOK
}

// PreadUnmap releases a mapping returned by PreadMap, unpinning the
// cached frame. Only pread mappings are accepted (EINVAL otherwise).
func (s *Sys) PreadUnmap(va mmu.VAddr) Errno {
	return s.callWrite(WriteOp{Num: NumPreadUnmap, VA: va}).Errno
}

// Write writes data at the descriptor's offset.
func (s *Sys) Write(fd fs.FD, data []byte) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	r, w := s.callWitnessed(WriteOp{Num: NumWrite, FD: fd, Data: data})
	if r.Errno != EOK {
		return 0, r.Errno
	}
	if w != nil {
		w.Pre.Locked = true // as in Read
		pre, post := w.States(fd)
		if err := fs.WriteSpec(pre, post, fd, data, r.Val); err != nil {
			s.recordViolation(fmt.Errorf("write(%d): %w", fd, err))
		}
	}
	return r.Val, EOK
}

// Seek repositions the descriptor offset.
func (s *Sys) Seek(fd fs.FD, off int64, whence int) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	r, w := s.callWitnessed(WriteOp{Num: NumSeek, FD: fd, Off: off, Whence: whence})
	if r.Errno != EOK {
		return 0, r.Errno
	}
	if w != nil {
		pre, post := w.States(fd)
		if err := fs.SeekSpec(pre, post, fd, off, whence, r.Val); err != nil {
			s.recordViolation(fmt.Errorf("seek(%d): %w", fd, err))
		}
	}
	return r.Val, EOK
}

// Truncate resizes the file behind fd.
func (s *Sys) Truncate(fd fs.FD, size uint64) Errno {
	return s.callWrite(WriteOp{Num: NumTruncate, FD: fd, Len: size}).Errno
}

// Sync is the durability transition: it returns only after every
// filesystem mutation acknowledged before the call is durable on disk
// (one write-ahead journal group commit — or a full snapshot on
// journal-less systems). EIO reports a disk failure; the mutations
// remain applied in memory but their durability is not acknowledged.
func (s *Sys) Sync() Errno {
	return s.callWrite(WriteOp{Num: NumSync}).Errno
}

// Mkdir creates a directory.
func (s *Sys) Mkdir(path string) Errno {
	return s.callWrite(WriteOp{Num: NumMkdir, Path: path}).Errno
}

// Unlink removes a file.
func (s *Sys) Unlink(path string) Errno {
	return s.callWrite(WriteOp{Num: NumUnlink, Path: path}).Errno
}

// Rmdir removes an empty directory.
func (s *Sys) Rmdir(path string) Errno {
	return s.callWrite(WriteOp{Num: NumRmdir, Path: path}).Errno
}

// Rename moves a file or directory.
func (s *Sys) Rename(old, new string) Errno {
	return s.callWrite(WriteOp{Num: NumRename, Path: old, Path2: new}).Errno
}

// Link creates a hard link.
func (s *Sys) Link(old, new string) Errno {
	return s.callWrite(WriteOp{Num: NumLink, Path: old, Path2: new}).Errno
}

// Stat describes the object at path.
func (s *Sys) Stat(path string) (fs.Stat, Errno) {
	r := s.callRead(ReadOp{Num: NumStat, Path: path})
	return r.Stat, r.Errno
}

// ReadDir lists a directory.
func (s *Sys) ReadDir(path string) ([]fs.DirEntry, Errno) {
	r := s.callRead(ReadOp{Num: NumReadDir, Path: path})
	return r.Entries, r.Errno
}

// Spawn creates a child process.
func (s *Sys) Spawn(name string) (proc.PID, Errno) {
	r := s.callWrite(WriteOp{Num: NumSpawn, Name: name})
	return proc.PID(r.Val), r.Errno
}

// Wait reaps one exited child.
func (s *Sys) Wait() (proc.WaitResult, Errno) {
	r := s.callWrite(WriteOp{Num: NumWaitPID})
	return r.Wait, r.Errno
}

// Exit terminates the calling process.
func (s *Sys) Exit(code int) Errno {
	return s.callWrite(WriteOp{Num: NumExit, Code: code}).Errno
}

// Kill sends a signal to target.
func (s *Sys) Kill(target proc.PID, sig proc.Signal) Errno {
	return s.callWrite(WriteOp{Num: NumKill, Target: target, Sig: sig}).Errno
}

// TakeSignal consumes one pending signal.
func (s *Sys) TakeSignal() (proc.Signal, bool, Errno) {
	r := s.callWrite(WriteOp{Num: NumTakeSignal})
	return r.Sig, r.SigOK, r.Errno
}

// GetPID returns the caller's PID (via the kernel, as a sanity check).
func (s *Sys) GetPID() (proc.PID, Errno) {
	r := s.callRead(ReadOp{Num: NumGetPID})
	return proc.PID(r.Val), r.Errno
}

// MMap maps size bytes of fresh memory, returning its base.
func (s *Sys) MMap(size uint64) (mmu.VAddr, Errno) {
	r := s.callWrite(WriteOp{Num: NumMMap, Size: size})
	return mmu.VAddr(r.Val), r.Errno
}

// MUnmap unmaps the region based at va.
func (s *Sys) MUnmap(va mmu.VAddr) Errno {
	return s.callWrite(WriteOp{Num: NumMUnmap, VA: va}).Errno
}

// MemResolve translates a user virtual address (diagnostics).
func (s *Sys) MemResolve(va mmu.VAddr) (uint64, Errno) {
	r := s.callRead(ReadOp{Num: NumMemResolve, VA: va})
	return r.Val, r.Errno
}

// FutexWait blocks while the 32-bit word at va equals expected (the
// §3/§4.1 futex the userspace mutex builds on). Served by core.
func (s *Sys) FutexWait(va mmu.VAddr, expected uint32) Errno {
	return s.callWrite(WriteOp{Num: NumFutexWait, VA: va, Word: expected}).Errno
}

// FutexWake wakes up to n waiters on the word at va, returning the
// number woken.
func (s *Sys) FutexWake(va mmu.VAddr, n uint64) (uint64, Errno) {
	r := s.callWrite(WriteOp{Num: NumFutexWake, VA: va, Len: n})
	return r.Val, r.Errno
}

// MemRead copies process-virtual memory into p — the simulation's
// stand-in for ordinary loads in the §3 execution model.
func (s *Sys) MemRead(va mmu.VAddr, p []byte) Errno {
	r := s.callWrite(WriteOp{Num: NumMemRead, VA: va, Len: uint64(len(p))})
	if r.Errno == EOK {
		copy(p, r.Data)
	}
	return r.Errno
}

// MemWrite copies p into process-virtual memory.
func (s *Sys) MemWrite(va mmu.VAddr, p []byte) Errno {
	return s.callWrite(WriteOp{Num: NumMemWrite, VA: va, Data: p}).Errno
}

// SockBind binds a datagram socket (port 0 picks an ephemeral port),
// returning its handle.
func (s *Sys) SockBind(port Port) (SockID, Errno) {
	return s.SockBindBudget(port, 0)
}

// SockBindBudget binds a socket with an explicit receive budget — the
// queue depth past which incoming datagrams are shed (0 = default). The
// budget is part of the logged bind, so every replica's table agrees on
// the socket's backpressure contract.
func (s *Sys) SockBindBudget(port Port, budget uint32) (SockID, Errno) {
	r := s.callWrite(WriteOp{Num: NumSockBind, Port: uint16(port), Word: budget})
	return SockID(r.Val), r.Errno
}

// SockSend transmits payload to (addr, port) from the given socket,
// returning the accepted byte count like the write path. The socket id
// and destination port are validated before the crossing, like Open's
// flag set.
func (s *Sys) SockSend(sock SockID, addr NetAddr, port Port, payload []byte) (uint64, Errno) {
	if e := sock.Validate(); e != EOK {
		return 0, e
	}
	if e := port.Validate(); e != EOK {
		return 0, e
	}
	r := s.callWrite(WriteOp{Num: NumSockSend, Sock: uint64(sock), Addr: uint64(addr), Port: uint16(port), Data: payload})
	return r.Val, r.Errno
}

// SockRecv receives one datagram without blocking (EAGAIN when empty).
// The source address and port are returned through resp fields.
func (s *Sys) SockRecv(sock SockID) (payload []byte, from NetAddr, fromPort Port, e Errno) {
	if e := sock.Validate(); e != EOK {
		return nil, 0, 0, e
	}
	r := s.callWrite(WriteOp{Num: NumSockRecv, Sock: uint64(sock)})
	if r.Errno != EOK {
		return nil, 0, 0, r.Errno
	}
	return r.Data, NetAddr(r.Val), Port(uint16(r.TID)), EOK
}

// SockRecvBlocking receives one datagram, parking the calling core's
// handler on the socket's delivery doorbell until a datagram arrives or
// the socket closes — a single boundary crossing, not an EAGAIN poll
// loop over every core.
func (s *Sys) SockRecvBlocking(sock SockID) ([]byte, NetAddr, Port, Errno) {
	if e := sock.Validate(); e != EOK {
		return nil, 0, 0, e
	}
	r := s.callWrite(WriteOp{Num: NumSockRecv, Sock: uint64(sock), Flags: SockRecvBlock})
	if r.Errno != EOK {
		return nil, 0, 0, r.Errno
	}
	return r.Data, NetAddr(r.Val), Port(uint16(r.TID)), EOK
}

// SockClose releases a socket.
func (s *Sys) SockClose(sock SockID) Errno {
	if e := sock.Validate(); e != EOK {
		return e
	}
	return s.callWrite(WriteOp{Num: NumSockClose, Sock: uint64(sock)}).Errno
}

// MemCAS32 atomically compares-and-swaps the 32-bit word at va: if it
// equals old it becomes new. It returns the observed value and whether
// the swap happened — the simulation's model of a LOCK CMPXCHG
// instruction, which user-space synchronization (ulib) builds on.
func (s *Sys) MemCAS32(va mmu.VAddr, old, new uint32) (uint32, bool, Errno) {
	r := s.callWrite(WriteOp{Num: NumMemCAS, VA: va, Word: old, Len: uint64(new)})
	if r.Errno != EOK {
		return 0, false, r.Errno
	}
	return uint32(r.Val), r.SigOK, EOK
}
