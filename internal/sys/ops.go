package sys

import (
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sched"
)

// Syscall numbers. These are the wire ABI: the user-side Sys handle
// packs them into marshal.SyscallFrame.Num.
const (
	NumOpen uint64 = iota + 1
	NumClose
	NumRead
	NumWrite
	NumSeek
	NumStat
	NumMkdir
	NumUnlink
	NumRmdir
	NumRename
	NumLink
	NumReadDir
	NumTruncate

	NumSpawn
	NumWaitPID
	NumExit
	NumKill
	NumGetPID
	NumTakeSignal

	NumMMap
	NumMUnmap
	NumMemResolve

	NumThreadAdd
	NumThreadYield
	NumThreadBlock
	NumThreadWake
	NumThreadExit
	NumPickNext

	// Handled outside the replicated kernel state (core):
	NumFutexWait
	NumFutexWake
	NumSockBind
	NumSockSend
	NumSockRecv
	NumSockClose
	NumMemRead
	NumMemWrite
	NumMemCAS

	// NumBatch carries a vector of batchable write ops (the submission
	// ring, Sys.Submit): core decodes it and drains the vector through
	// one NR combiner round (sharded: three per descriptor run).
	NumBatch

	// NumSync is the durability transition: it completes only once
	// every mutation acknowledged before it is durable on disk (a
	// write-ahead journal group commit, or a full snapshot when the
	// system runs without a journal). Served locally by core — the
	// disk lives outside the replicated state machine.
	NumSync

	// NumPread is the positioned read: read Len bytes at absolute
	// offset Off without touching the descriptor's offset. Because it
	// mutates no kernel state it is a ReadOp — core serves it from the
	// sharded page cache (cache hits never cross the combiner) with a
	// replica-local fill on miss.
	NumPread

	// NumPreadMap / NumPreadUnmap are the zero-copy tier: a page-aligned
	// positioned read that maps the cached frame read-only into the
	// caller's vspace and returns the mapping descriptor (VA + valid
	// length) instead of bytes, and the paired unmap that releases it.
	// Both mutate the caller's address space, so they are logged write
	// ops; core intercepts them to coordinate the page-cache pin with
	// the replicated mapping transition.
	NumPreadMap
	NumPreadUnmap

	// ---- Internal cross-shard protocol ops (above the wire ABI) ----
	//
	// Everything below is NOT a syscall: these ops never cross the user
	// boundary (core rejects them at the dispatch entry) and are never
	// marshalled. They are the steps of the sharded kernel's cross-shard
	// protocols (§4.1 composition): when descriptor tables live on a
	// process-state shard and the namespace/contents on filesystem
	// shards, one user syscall becomes an ordered sequence of these
	// single-shard transitions (see internal/core's shard router for the
	// ordering rules). They share the WriteOp/ReadOp/Resp containers so
	// each shard remains one monomorphic NR instantiation.

	// Descriptor-table ops (process shard owning the PID).
	NumFDOpen   // install a descriptor for a resolved inode (Ino, Flags)
	NumFDLock   // lock fd for a data op; returns Ino/Offset/Flags
	NumFDUnlock // unlock fd, setting the absolute offset from Len
	NumFDSeek   // reposition offset (SeekSet/SeekCur); EAGAIN while locked

	// Process-tree ops (pinned to process shard 0) and per-process
	// resource ops (process shard owning the PID).
	NumProcSpawn   // tree half of spawn: allocate the child PID
	NumProcUnspawn // roll a spawn back when resource attach fails
	NumProcAttach  // resource half of spawn: vspace, page table, fds
	NumProcDetach  // resource half of exit: unmap, destroy, free
	NumProcExit    // tree half of exit: zombie + reparent + signal

	// Filesystem ops (namespace ops broadcast to every fs shard; data
	// ops routed to the shard owning the inode).
	NumFsCreate   // namespace: create a file (broadcast)
	NumFsRun      // data: a descriptor's read/write/seek run (owner shard)
	NumFsTruncate // data: truncate (owner shard)

	// Page-cache mapping ops (process shard owning the PID): install or
	// remove a read-only alias of a pinned cache frame in the caller's
	// vspace. The frame is pre-pinned by core's page cache; NumPageUnmap
	// returns it in Resp.Unpinned (never Freed — the cache owns it).
	NumPageMap
	NumPageUnmap

	// Internal read-only ops.
	NumFDGet        // descriptor state without locking
	NumFsLookup     // path → inode (any fs shard; namespace replicated)
	NumFsStatIno    // stat by inode (owner shard has the true size)
	NumFsReadAt     // data: read at offset (owner shard)
	NumProcHasTable // does the PID own a descriptor table here

	// Socket-table ops (socktab.go): the replicated half of the network
	// path. Socket *table* state — which (PID, id) owns which port —
	// lives in the kernel state machine so bind/close/ownership get the
	// same logging and replica agreement as the file path, while the
	// interrupt-fed receive queues stay device-local in core behind a
	// doorbell. The table is one global relation on process shard 0 (like
	// the process tree), on either kernel.
	NumSockTabBind  // install (PID, id=++nextID) → Port; Val = id
	NumSockTabClose // remove the entry, free its port; Val = port

	// Socket-table read-only op: a send's admission.
	NumSockTabGet // (PID, Sock) → bound port; EBADF if not the PID's
)

// MaxInternalOpNum is the highest internal (cross-shard protocol) op
// number; the obs opcode space must cover it too.
const MaxInternalOpNum = NumSockTabGet

// SockRecvBlock, set in WriteOp.Flags of a NumSockRecv, asks the kernel
// to park the caller on the socket's doorbell until a datagram arrives
// or the socket closes, instead of returning EAGAIN.
const SockRecvBlock uint64 = 1

// IsInternalOp reports whether num is a cross-shard protocol op — valid
// only inside the kernel composition, never at the user boundary.
func IsInternalOp(num uint64) bool { return num > MaxOpNum && num <= MaxInternalOpNum }

// opNames maps syscall numbers to their display names, for the
// observability layer (obs records by number; tools render names).
var opNames = map[uint64]string{
	NumOpen: "open", NumClose: "close", NumRead: "read", NumWrite: "write",
	NumSeek: "seek", NumStat: "stat", NumMkdir: "mkdir", NumUnlink: "unlink",
	NumRmdir: "rmdir", NumRename: "rename", NumLink: "link",
	NumReadDir: "readdir", NumTruncate: "truncate",
	NumSpawn: "spawn", NumWaitPID: "waitpid", NumExit: "exit", NumKill: "kill",
	NumGetPID: "getpid", NumTakeSignal: "takesignal",
	NumMMap: "mmap", NumMUnmap: "munmap", NumMemResolve: "memresolve",
	NumThreadAdd: "thread_add", NumThreadYield: "thread_yield",
	NumThreadBlock: "thread_block", NumThreadWake: "thread_wake",
	NumThreadExit: "thread_exit", NumPickNext: "picknext",
	NumFutexWait: "futex_wait", NumFutexWake: "futex_wake",
	NumSockBind: "sock_bind", NumSockSend: "sock_send",
	NumSockRecv: "sock_recv", NumSockClose: "sock_close",
	NumMemRead: "mem_read", NumMemWrite: "mem_write", NumMemCAS: "mem_cas",
	NumBatch: "batch", NumSync: "sync",
	NumPread: "pread", NumPreadMap: "pread_map", NumPreadUnmap: "pread_unmap",
	NumPageMap: "page_map", NumPageUnmap: "page_unmap",
	NumFDOpen: "fd_open", NumFDLock: "fd_lock", NumFDUnlock: "fd_unlock",
	NumFDSeek: "fd_seek", NumProcSpawn: "proc_spawn", NumProcUnspawn: "proc_unspawn",
	NumProcAttach: "proc_attach", NumProcDetach: "proc_detach", NumProcExit: "proc_exit",
	NumFsCreate: "fs_create", NumFsRun: "fs_run", NumFsTruncate: "fs_truncate",
	NumFDGet: "fd_get", NumFsLookup: "fs_lookup", NumFsStatIno: "fs_statino",
	NumFsReadAt: "fs_readat", NumProcHasTable: "proc_hastable",
	NumSockTabBind: "socktab_bind", NumSockTabClose: "socktab_close",
	NumSockTabGet: "socktab_get",
}

// OpName returns the syscall's display name ("open", "mmap", ...), or
// "sys<N>" for unknown numbers.
func OpName(num uint64) string {
	if s, ok := opNames[num]; ok {
		return s
	}
	return fmt.Sprintf("sys%d", num)
}

// MaxOpNum is the highest assigned syscall number (wire ABI bound; the
// obs opcode space must cover it).
const MaxOpNum = NumPreadUnmap

// WriteOp is a mutating kernel operation — one logged NR entry. A
// single struct (rather than one type per syscall) keeps the NR
// instantiation monomorphic; unused fields are zero.
type WriteOp struct {
	Num uint64
	PID proc.PID

	// File syscalls.
	FD     fs.FD
	Flags  uint64
	Whence int
	Off    int64
	Len    uint64
	Path   string
	Path2  string
	Data   []byte

	// Process syscalls (Sig, the kill signal, sits with the other
	// sub-word fields below).
	Name   string
	Code   int
	Target proc.PID // kill target

	// Memory syscalls. Frames are pre-allocated by the caller (the
	// shared data-frame allocator lives outside the replicated state;
	// see internal/core) so that applying the op on every replica does
	// not double-allocate shared physical memory.
	VA     mmu.VAddr
	Size   uint64
	Frames []mem.PAddr

	// Scheduler syscalls (Pri sits with the other sub-word fields below).
	TID  sched.TID
	Core int

	// Socket and futex syscalls (handled by internal/core outside the
	// replicated state; carried in the same op container so they share
	// the codec and its round-trip obligations).
	Sock uint64
	Addr uint64

	// The sub-word fields share two words: every logged entry is a
	// WriteOp, so a field in an 8-byte slot of its own is paid for 1<<16
	// times per NR instance (TestWriteOpDoesNotGrow).
	Port uint16
	// Witness asks the kernel to capture the descriptor's §3 abstraction
	// on both sides of this transition, inside the apply, and return it
	// in Resp.Witness. Set by a contract-checked Sys.Read/Write/Seek; one
	// bit on the wire.
	Witness bool
	Sig     proc.Signal
	Pri     sched.Priority
	Word    uint32

	// Ino addresses an inode directly — internal cross-shard ops only
	// (the wire codec never carries it; internal ops never cross the
	// boundary).
	Ino fs.Ino

	// Run is a multi-entry NumFsRun's payload (Kernel.fsRun) — internal,
	// never marshalled, and behind a pointer so the op stays the size the
	// regrouping above bought.
	Run *FsRun
}

// FsRun is what a NumFsRun from a batch applies: consecutive
// read/write/seek entries on a single descriptor, in submission order.
// Ops aliases the decoded submission vector (no copy) and is immutable
// once the op is logged — every replica applies the same slice.
type FsRun struct {
	Ops []WriteOp
}

// RunResult is one run entry's outcome, the part of a Resp a completion
// carries. A failed entry has only its Errno set.
type RunResult struct {
	Errno Errno
	Val   uint64
	Data  []byte
}

// ReadOp is a read-only kernel operation (executes on the local
// replica).
type ReadOp struct {
	Num  uint64
	PID  proc.PID
	FD   fs.FD
	Path string
	VA   mmu.VAddr
	Len  uint64
	TID  sched.TID

	// Off is the absolute offset of a positioned read. NumPread carries
	// it across the wire; the internal cross-shard read ops reuse it.
	Off uint64

	// Internal cross-shard read ops only (never marshalled).
	Ino  fs.Ino
	Sock uint64
	// Witness on NumFsReadAt/NumFsStatIno returns the inode's contents
	// snapshot beside the result (the owner shard's half of a witness).
	Witness bool
}

// Witness is the §3 abstraction of the one descriptor a checked
// read/write/seek names, on either side of that transition. The kernel
// captures it inside the apply — under the same exclusion that makes the
// transition atomic — so Pre and Post are adjacent states by
// construction, however many handles share the process. Contents are
// zero-copy snapshots (fs.AbstractFD); PreOK/PostOK say whether the
// descriptor was open in that state.
type Witness struct {
	Pre, Post     fs.SpecFile
	PreOK, PostOK bool
}

// States lifts the witness to the one-descriptor pre and post states
// the fs spec relations take.
func (w *Witness) States(fd fs.FD) (pre, post fs.SpecState) {
	pre.Files = make(map[fs.FD]fs.SpecFile, 1)
	post.Files = make(map[fs.FD]fs.SpecFile, 1)
	if w.PreOK {
		pre.Files[fd] = w.Pre
	}
	if w.PostOK {
		post.Files[fd] = w.Post
	}
	return pre, post
}

// Unchanged is the contract of a failed transition: the descriptor is
// exactly as it was — open or not, offset, lock, size and contents.
// Equal snapshots share their pages, so the contents clause is a pointer
// comparison per page in the common case.
func (w *Witness) Unchanged() error {
	switch {
	case w.PreOK != w.PostOK:
		return fmt.Errorf("descriptor open %v -> %v", w.PreOK, w.PostOK)
	case w.Pre.Offset != w.Post.Offset:
		return fmt.Errorf("offset moved %d -> %d", w.Pre.Offset, w.Post.Offset)
	case w.Pre.Locked != w.Post.Locked:
		return fmt.Errorf("lock state changed %v -> %v", w.Pre.Locked, w.Post.Locked)
	case w.Pre.Size() != w.Post.Size():
		return fmt.Errorf("size changed %d -> %d", w.Pre.Size(), w.Post.Size())
	case !w.Pre.Contents.Equal(w.Post.Contents):
		return fmt.Errorf("contents changed")
	}
	return nil
}

// Resp is the kernel response for either kind.
type Resp struct {
	Errno Errno
	Val   uint64
	Data  []byte

	Stat    fs.Stat
	Entries []fs.DirEntry
	Wait    proc.WaitResult
	TID     sched.TID
	Sig     proc.Signal
	SigOK   bool

	// Freed frames from munmap/exit, for the caller to return to the
	// shared allocator (only meaningful on one replica's response).
	Freed []mem.PAddr

	// Internal cross-shard protocol results only (never marshalled):
	// the inode/offset a descriptor op resolved to.
	Ino fs.Ino
	Off uint64

	// Unpinned frames from page_unmap/exit: cache-owned frames whose
	// vspace alias went away. The caller (core) unpins them in the page
	// cache instead of returning them to the allocator — freeing them
	// here would free memory the cache still serves reads from. Never
	// marshalled: mapping teardown is core-internal.
	Unpinned []mem.PAddr

	// Run answers a multi-entry NumFsRun: one result per entry, in order;
	// Off beside it is the descriptor's cursor after the last entry.
	Run []RunResult

	// Witness answers WriteOp.Witness. Never marshalled — its contents
	// are snapshots of kernel memory, not bytes to copy: the handler keeps
	// it for its handle and Sys takes it through Witnesser.
	Witness *Witness
}

// ok returns a success response with a value.
func ok(val uint64) Resp { return Resp{Errno: EOK, Val: val} }

// fail returns an errno response.
func fail(err error) Resp { return Resp{Errno: ErrnoFromError(err)} }
