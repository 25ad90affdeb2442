package sys

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
)

// Handler is the kernel side of the syscall boundary: internal/core's
// replicated kernel implements it. The two byte slices are the
// marshalled argument and result payloads — nothing else crosses. The
// argument payload is lent for the call only: a batch's is the handle's
// encode buffer, which its next batch reuses, so a handler that keeps
// any of it past its return keeps a copy.
type Handler interface {
	Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte)
}

// Witnesser is implemented by handlers that can hand over the witnesses
// of the crossing they just served (Resp.Witness travels unmarshalled: it
// is a view of kernel memory, not bytes to copy). Every checked call and
// batch entry is checked against one.
type Witnesser interface {
	// TakeWitness appends the last witnessed crossing's witnesses, each
	// naming the entries it covers, to into and clears them: the caller
	// now holds their views, and gives them back (Witness.Release).
	TakeWitness(into []Witness) []Witness
}

// DestHandler is implemented by handlers that take the caller's buffer
// as the destination of a read: the §3 mapping obligation ("user buffers
// appear at known kernel addresses") instead of marshalling. The kernel
// writes at most len(dst) bytes into dst and nothing past the count it
// returns; the reply is the register frame alone (errno and count), with
// no payload to allocate, encode or copy out of. Pread and Read cross
// this way when they can. dst is the handler's until the call returns —
// one handle is one thread of control, and the buffer is the call's
// `&mut` borrow — and nothing writes it after: a logged read carries it
// to every replica, but only the issuer's apply writes it
// (Kernel.DispatchWriteInto).
type DestHandler interface {
	SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame
}

// Sys is the user-space handle encapsulating the syscall interface —
// the paper's `Sys` type. Each process (and in the simulated system,
// each user program goroutine) holds one. With the contract enabled,
// every file syscall is checked against its spec relation, making the
// paper's `ensures` clauses executable.
//
// What is captured where: a checked Read, Write, Seek or Pread, and each
// read, write, seek and pread entry of a checked batch, asks the kernel
// for a witness taken at the transition's linearization point — the
// descriptor's abstraction on both sides of the transition, built by
// ComposeWitness while the transition holds the descriptor (inside the
// apply on a co-located kernel, across the fd lock on a partitioned one),
// one per descriptor run of a batch, which is one transition; for a
// pread, the file's contents on either side of its read. The spec
// relations are evaluated here, over that pair and what the caller
// received (checkWitnessed) — pre and post are adjacent however many
// handles or processes run beside this one.
//
// One handle is one thread of control. The paper's Sys methods take
// `&mut self`, so two calls on one handle can never overlap. Go cannot
// say that statically, so Read, Write, Seek, Pread and a batch's reaper
// hold the handle for the whole call: the handler keeps one witness
// slot per handle, and so does the handle (wits). They hold it with the
// contract off too, so a call that started unchecked cannot overlap the
// first checked one after EnableContract.
//
// A checked call allocates what an unchecked one does: the witness comes
// back by value, into slots both sides reuse, and once checked its views
// are given back, so the file they pin reuses what its next write
// replaces (fs.PageFile).
type Sys struct {
	pid proc.PID
	h   Handler
	// wit is h when it can witness (nil otherwise); dest is h when it
	// takes a destination buffer.
	wit  Witnesser
	dest DestHandler

	// core is the core the handle's kernel handler is pinned to (0 when
	// the handler doesn't expose one), the stripe of its contract obs
	// counters.
	core uint32

	// contract is set by EnableContract; mu guards cerr, the first
	// violation.
	contract atomic.Bool
	mu       sync.Mutex
	cerr     error
	// call is held by Read, Write, Seek, Pread, Submit and a batch's
	// reaper for the whole call (see the type comment); wits, the
	// witnesses taken of the crossing, with it.
	call sync.Mutex
	wits []Witness
	// ring is the handle's submitted batches that have not crossed yet,
	// oldest first (under call; see submit.go).
	ring []*Batch
	// batchOps and batchBuf are the request vector and encode buffer a
	// batch crosses in, reused by every batch (under call; crossBatch).
	batchOps []WriteOp
	batchBuf []byte
}

// CorePinned is implemented by handlers that pin the handle to one
// core (internal/core's per-process handler does); the handle stripes
// its contract counters by it.
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

// EnableContract turns contract checking on: from now on Read, Write,
// Seek, Pread and a batch's file entries are checked against
// fs.StepHolds. Safe to call while other goroutines are issuing syscalls
// through this handle: a call decides whether it is checked when it
// builds its frame, so calls already past that point complete unchecked
// and later ones are checked.
func (s *Sys) EnableContract() { s.contract.Store(true) }

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

// checking reports whether the contract is on.
func (s *Sys) checking() bool { return s.contract.Load() }

// takeWitness hands over the witnesses of the crossing just made, into
// the handle's slot. The caller holds s.call, and gives them back with
// releaseWitness.
func (s *Sys) takeWitness() []Witness {
	if s.wit != nil {
		s.wits = s.wit.TakeWitness(s.wits[:0])
	}
	return s.wits
}

// releaseWitness gives back the views of the witnesses takeWitness
// handed over: nothing reads them after the check.
func (s *Sys) releaseWitness() {
	for i := range s.wits {
		s.wits[i].Release()
	}
	s.wits = s.wits[:0]
}

// checkCall checks a per-call crossing — the vector of one entry — when
// it asked for a witness. op is a pointer so that an unchecked call, the
// hot path with the contract off, copies nothing.
func (s *Sys) checkCall(op *WriteOp, c Completion) {
	if op.Witness {
		s.checkWitnessed([]WriteOp{*op}, []Completion{c}, s.takeWitness())
		s.releaseWitness()
	}
}

// checkWitnessed is the §3 contract of a checked crossing: ops and comps
// are its entries, ws the witnesses the kernel took for them. Each
// checked entry must be covered by exactly one witness — a failed pread
// by at most one, since it changed nothing — and each witness is checked
// over the entries it covers (Witness.check). A kernel that delivers no
// witness has broken the contract as surely as one that delivers wrong
// bytes. The first violation is recorded, formatted before the caller
// gives the witnesses' views back.
func (s *Sys) checkWitnessed(ops []WriteOp, comps []Completion, ws []Witness) {
	// A batch's preads complete, and are witnessed, after its other entries.
	slices.SortFunc(ws, func(a, b Witness) int { return int(a.At - b.At) })
	for i := 0; i < len(ops); {
		n, bad, err := 1, 0, error(nil)
		switch {
		case len(ws) > 0 && int(ws[0].At) == i:
			obs.ContractWitnessed.Add(s.core, 1)
			n = int(ws[0].N)
			bad, err = ws[0].check(ops[i:], comps[i:])
			ws = ws[1:]
		case checked(ops[i].Num) && (ops[i].Num != NumPread || comps[i].Errno == EOK):
			err = errors.New("kernel returned no witness")
		}
		if err != nil {
			i += bad
			err = fmt.Errorf("%s(%d): %w", OpName(ops[i].Num), ops[i].FD, err)
			if len(ops) > 1 {
				err = fmt.Errorf("batch op %d: %w", i, err)
			}
			s.recordViolation(err)
			return
		}
		i += n
	}
	if len(ws) > 0 {
		s.recordViolation(fmt.Errorf("a witness for entries [%d, %d) of a %d-entry crossing",
			ws[0].At, ws[0].At+ws[0].N, len(ops)))
	}
}

// check is the contract of one witnessed transition over the entries it
// covers, the first w.N of ops and comps. A violation comes with the
// index of the entry it is about.
//
// A pread matches the file's contents on one side of its read. A run of
// reads, writes and seeks on one descriptor is replayed from Pre: each
// entry is checked with fs.StepHolds from the state the entries before
// it specify into the next — cur advanced by the entry's fs.Step, or cur
// itself when the entry failed — and the last entry into Post. Only a
// run's interior states are the replay's own: their contents are a
// fs.PageFile over Pre's pages that clones the pages the run writes,
// writing them in place after that — so a write's modelled pre state may
// show its own new bytes, and the relation pins its count, size and
// offset while the contents are settled against Post. One entry, a
// per-call transition, has no interior state and allocates no model.
func (w *Witness) check(ops []WriteOp, comps []Completion) (int, error) {
	n := int(w.N)
	if n < 1 || n > len(ops) {
		return 0, fmt.Errorf("a witness for %d entries of %d", n, len(ops))
	}
	if ops[0].Num == NumPread && n == 1 {
		return 0, w.preadSpec(&ops[0], comps[0])
	}
	// The transition holds the descriptor for its whole length — through
	// one apply on a co-located kernel, through the fd lock on a
	// partitioned one — so the spec's locked precondition holds of every
	// state it passes through.
	cur, curOK, post := w.Pre, w.PreOK, w.Post
	cur.Locked, post.Locked = true, true
	var model *fs.PageFile
	for k := range n {
		op, c := &ops[k], comps[k]
		if !IsRunOp(op.Num) || op.FD != ops[0].FD {
			return k, fmt.Errorf("witnessed as entry %d of a run on fd %d", k, ops[0].FD)
		}
		next, nextOK := post, w.PostOK
		if k < n-1 {
			next, nextOK = cur, curOK
			if c.Errno == EOK {
				var err error
				if next, err = cur.Advance(stepOf(op), &model); err != nil {
					return k, fmt.Errorf("reported success: %w", err)
				}
			}
		}
		if err := holds(op, c, cur, curOK, next, nextOK); err != nil {
			return k, err
		}
		cur, curOK = next, nextOK
	}
	return 0, nil
}

// holds checks one entry from cur to next with fs.StepHolds: the
// descriptor is open on both sides, or — for a failed entry, which
// changes nothing — on neither.
func holds(op *WriteOp, c Completion, cur fs.SpecFile, curOK bool, next fs.SpecFile, nextOK bool) error {
	ok := c.Errno == EOK
	if curOK != nextOK || ok && !curOK {
		return fmt.Errorf("descriptor open %v -> %v", curOK, nextOK)
	}
	err := fs.StepHolds(cur, stepOf(op), ok, c.Val, c.Data, next)
	if err != nil && !ok {
		return fmt.Errorf("failed with %v but: %w", c.Errno, err)
	}
	return err
}

// preadSpec is the positioned read's contract: a pread is fs.Step's read
// at Off that moves no descriptor state, and the bytes it delivered are
// the file's there — on one side of the read or the other.
func (w *Witness) preadSpec(op *WriteOp, c Completion) error {
	if c.Errno != EOK {
		return nil
	}
	step := stepOf(op)
	match := func(f fs.SpecFile, ok bool) bool {
		return ok && fs.StepHolds(f, step, true, c.Val, c.Data, f) == nil
	}
	if !match(w.Pre, w.PreOK) && !match(w.Post, w.PostOK) {
		return fmt.Errorf("%d bytes at %d match neither side's contents", c.Val, uint64(op.Off))
	}
	return nil
}

// stepOf is a checked entry as the descriptor transition it names.
func stepOf(op *WriteOp) fs.StepOp {
	kind := fs.StepSeek
	switch op.Num {
	case NumRead:
		kind = fs.StepRead
	case NumWrite:
		kind = fs.StepWrite
	case NumPread:
		kind = fs.StepPread
	}
	return fs.StepOp{Kind: kind, Len: op.Len, Data: op.Data, Off: op.Off, Whence: op.Whence}
}

// callWrite crosses the boundary with a mutating op.
func (s *Sys) callWrite(op WriteOp) Resp {
	op.PID = s.pid
	frame, payload := encodeWrite(&op)
	ret, out := s.h.Syscall(frame, payload)
	r, err := DecodeResp(ret, out)
	if err != nil {
		return Resp{Errno: EINVAL}
	}
	return r
}

// callScalar crosses the boundary with a mutating op whose answer is its
// value and errno — a write or a seek: a reply that is the register
// frame alone is read off the frame, with no response to decode into.
func (s *Sys) callScalar(op *WriteOp) (uint64, Errno) {
	op.PID = s.pid
	frame, payload := encodeWrite(op)
	ret, out := s.h.Syscall(frame, payload)
	if len(out) == 0 {
		return ret.Value, Errno(ret.Errno)
	}
	r, err := DecodeResp(ret, out)
	if err != nil {
		return 0, EINVAL
	}
	return r.Val, r.Errno
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
// returning the count — the paper's worked example. Like Pread, a
// DestHandler is handed buffer itself: the logged read carries it to the
// kernel, whose issuer replica's apply reads the file straight into it,
// so the call costs one copy (file to buffer) and the reply is the
// register frame alone; any other handler returns the bytes in an
// encoded reply. In contract mode the call is checked against read_spec
// over the witnessed transition and the bytes delivered into buffer.
func (s *Sys) Read(fd fs.FD, buffer []byte) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	op := WriteOp{Num: NumRead, PID: s.pid, FD: fd, Len: uint64(len(buffer)), Witness: s.checking()}
	var val, n uint64
	var e Errno
	if s.dest != nil {
		frame, payload := encodeWrite(&op)
		ret := s.dest.SyscallInto(frame, payload, buffer)
		val, e = ret.Value, Errno(ret.Errno)
		n = min(val, uint64(len(buffer)))
	} else {
		r := s.callWrite(op)
		val, e = r.Val, r.Errno
		n = uint64(copy(buffer, r.Data))
	}
	s.checkCall(&op, Completion{Op: NumRead, Errno: e, Val: val, Data: buffer[:n]})
	if e != EOK {
		return 0, e
	}
	return n, EOK
}

// Pread reads up to len(buffer) bytes at the absolute offset off,
// without moving the descriptor's offset. Because it mutates no kernel
// state it travels as a read op, served by replica-local reads without
// crossing the NR combiner. A DestHandler is handed buffer itself, so
// the read costs one copy (file to buffer) and the reply carries no
// data; any other handler returns the bytes in an encoded reply. In
// contract mode the frame's witness bit asks for the file's contents as
// the read saw them, and what was delivered into buffer must match them
// (a positioned read_spec).
func (s *Sys) Pread(fd fs.FD, buffer []byte, off uint64) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	op := ReadOp{Num: NumPread, PID: s.pid, FD: fd, Len: uint64(len(buffer)), Off: off, Witness: s.checking()}
	var val uint64
	var e Errno
	if s.dest != nil {
		frame, payload := EncodeRead(op)
		ret := s.dest.SyscallInto(frame, payload, buffer)
		val, e = ret.Value, Errno(ret.Errno)
	} else {
		r := s.callRead(op)
		copy(buffer, r.Data)
		val, e = r.Val, r.Errno
	}
	n := min(val, uint64(len(buffer)))
	if op.Witness {
		s.checkCall(&WriteOp{Num: NumPread, FD: fd, Len: op.Len, Off: int64(off), Witness: true},
			Completion{Op: NumPread, Errno: e, Val: val, Data: buffer[:n]})
	}
	if e != EOK {
		return 0, e
	}
	return n, EOK
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
	op := WriteOp{Num: NumWrite, FD: fd, Data: data, Witness: s.checking()}
	val, e := s.callScalar(&op)
	s.checkCall(&op, Completion{Op: NumWrite, Errno: e, Val: val})
	if e != EOK {
		return 0, e
	}
	return val, EOK
}

// Seek repositions the descriptor offset.
func (s *Sys) Seek(fd fs.FD, off int64, whence int) (uint64, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	op := WriteOp{Num: NumSeek, FD: fd, Off: off, Whence: whence, Witness: s.checking()}
	val, e := s.callScalar(&op)
	s.checkCall(&op, Completion{Op: NumSeek, Errno: e, Val: val})
	if e != EOK {
		return 0, e
	}
	return val, EOK
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

// SockRecv receives one datagram without blocking (EAGAIN when empty),
// with its source.
func (s *Sys) SockRecv(sock SockID) (payload []byte, from NetAddr, fromPort Port, e Errno) {
	return s.sockRecv(sock, 0)
}

// SockRecvBlocking receives one datagram, parking the calling core's
// handler on the socket's delivery doorbell until a datagram arrives or
// the socket closes — a single boundary crossing, not an EAGAIN poll
// loop over every core.
func (s *Sys) SockRecvBlocking(sock SockID) ([]byte, NetAddr, Port, Errno) {
	return s.sockRecv(sock, SockRecvBlock)
}

// sockRecv crosses with a NumSockRecv; the reply's Val is the source,
// packed as in a batch's completion (SockFrom.Pack).
func (s *Sys) sockRecv(sock SockID, flags uint64) ([]byte, NetAddr, Port, Errno) {
	if e := sock.Validate(); e != EOK {
		return nil, 0, 0, e
	}
	r := s.callWrite(WriteOp{Num: NumSockRecv, Sock: uint64(sock), Flags: flags})
	if r.Errno != EOK {
		return nil, 0, 0, r.Errno
	}
	f := unpackSockFrom(r.Val)
	return r.Data, f.Addr, f.Port, EOK
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
