package sys

import (
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/nr"
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
	// ring, Batch.Submit): core decodes it and drains the vector through
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
	// mutates no kernel state it is a ReadOp — core serves it with a
	// replica-local descriptor resolve and one replica-local NumFsReadAt
	// on the inode's owner shard, never crossing the combiner.
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

	NumFDOpen   // install a descriptor for a resolved inode (Ino, Flags)
	NumFDLock   // lock fd for a data op; returns Ino/Offset/Flags
	NumFDUnlock // unlock fd, setting the absolute offset from Len
	NumFDSeek   // reposition offset (SeekSet/SeekCur); EAGAIN while locked
	NumFDRun    // co-located: resolve fd, apply a batch's run on it, store its cursor

	NumProcSpawn   // tree half of spawn: allocate the child PID
	NumProcUnspawn // roll a spawn back when resource attach fails
	NumProcAttach  // resource half of spawn: vspace, page table, fds
	NumProcDetach  // resource half of exit: unmap, destroy, free
	NumProcExit    // tree half of exit: zombie + reparent + signal

	NumFsCreate   // namespace: create a file (broadcast)
	NumFsRun      // data: a descriptor's read/write/seek run (owner shard)
	NumFsTruncate // data: truncate (owner shard)

	// Page-cache mapping ops: install or remove a read-only alias of a
	// cache frame core's page cache has pinned in the caller's vspace.
	// NumPageUnmap returns it in Resp.Unpinned (never Freed — the cache
	// owns it).
	NumPageMap
	NumPageUnmap

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

	NumSockTabGet // a send's admission: (PID, Sock) → bound port; EBADF if not the PID's
)

// MaxOpNum is the last wire row: the highest syscall number a user frame
// may carry. The internal ops sit above it.
const MaxOpNum = NumPreadUnmap

// MaxInternalOpNum is the highest internal (cross-shard protocol) op
// number, the last row of opTable; the obs opcode space must cover it.
const MaxInternalOpNum = NumSockTabGet

// SockRecvBlock, set in WriteOp.Flags of a NumSockRecv, asks the kernel
// to park the caller on the socket's doorbell until a datagram arrives
// or the socket closes, instead of returning EAGAIN.
const SockRecvBlock uint64 = 1

// opClass is where an op is served.
type opClass uint8

const (
	classNone   opClass = iota // no row: the kernel answers ENOSYS
	classRead                  // read-only: replica-local, not logged
	classLogged                // a mutating transition through the log
	// classLocal: served by core outside the replicated state — futex,
	// raw user memory (no kernel-state transition at all), and sync,
	// because durability is a device effect: the journal flush happens
	// once, against the one disk, not once per replica.
	classLocal
	// classSock: core intercepts these and sequences both halves: the
	// table transition (bind/close/ownership), logged as a socktab op, and
	// the device effect (netops.go).
	classSock
	// classInternal: a cross-shard protocol op, never at the user boundary.
	classInternal
)

// opProps are an op's batching and checking properties.
type opProps uint8

const (
	// opBatchable: may ride in a NumBatch submission. These are the
	// file-state transitions, with no core-side handling (no frame
	// allocation, no process lifecycle, no blocking), so a kernel applies
	// them in one combiner round (ring.go's Steps.Fold).
	opBatchable opProps = 1 << iota
	// opRun: can be an entry of a run (NumFsRun, NumFDRun), touching
	// nothing but one descriptor's cursor and its inode's contents.
	opRun
	// opChecked: contract-checked against a witness, per call or batched,
	// so its request carries the witness bit.
	opChecked
)

// opRow is one op as the kernel knows it: its display name (obs records
// by number; tools render names), its class and properties, where its
// footprint lives on a partitioned kernel, and the write-tail fields its
// request may carry, as a presence mask over tailFields (codec.go).
type opRow struct {
	name   string
	class  opClass
	props  opProps
	target ShardTarget
	tail   uint32
}

// row declares an op carrying the named tail fields — and the witness
// bit, when it is checked.
func row(name string, class opClass, props opProps, target ShardTarget, fields ...string) opRow {
	r := opRow{name: name, class: class, props: props, target: target}
	if props&opChecked != 0 {
		fields = append(fields, "Witness")
	}
	for _, f := range fields {
		r.tail |= tailBit(f)
	}
	return r
}

// opTable is the syscall surface, declared once: a row per op number, the
// wire ABI up to MaxOpNum and the internal ops above it. The classifiers
// below and the codec's per-op tail are lookups into it.
var opTable = [MaxInternalOpNum + 1]opRow{
	NumOpen:        row("open", classLogged, opBatchable, TargetCompose, "Flags", "Path"),
	NumClose:       row("close", classLogged, opBatchable, TargetProcKey),
	NumRead:        row("read", classLogged, opBatchable|opRun|opChecked, TargetCompose),
	NumWrite:       row("write", classLogged, opBatchable|opRun|opChecked, TargetCompose, "Data"),
	NumSeek:        row("seek", classLogged, opBatchable|opRun|opChecked, TargetCompose, "Whence", "Off"),
	NumStat:        row("stat", classRead, 0, TargetCompose, "Path"),
	NumMkdir:       row("mkdir", classLogged, opBatchable, TargetFsNS, "Path"),
	NumUnlink:      row("unlink", classLogged, opBatchable, TargetFsNS, "Path"),
	NumRmdir:       row("rmdir", classLogged, opBatchable, TargetFsNS, "Path"),
	NumRename:      row("rename", classLogged, opBatchable, TargetFsNS, "Path", "Path2"),
	NumLink:        row("link", classLogged, opBatchable, TargetFsNS, "Path", "Path2"),
	NumReadDir:     row("readdir", classRead, 0, TargetFsPath, "Path"),
	NumTruncate:    row("truncate", classLogged, opBatchable, TargetCompose),
	NumSpawn:       row("spawn", classLogged, 0, TargetCompose, "Name"),
	NumWaitPID:     row("waitpid", classLogged, 0, TargetProcTree),
	NumExit:        row("exit", classLogged, 0, TargetCompose, "Code"),
	NumKill:        row("kill", classLogged, 0, TargetCompose, "Sig", "Target"),
	NumGetPID:      row("getpid", classRead, 0, TargetProcTree),
	NumTakeSignal:  row("takesignal", classLogged, 0, TargetProcTree),
	NumMMap:        row("mmap", classLogged, 0, TargetProcKey),
	NumMUnmap:      row("munmap", classLogged, 0, TargetProcKey),
	NumMemResolve:  row("memresolve", classRead, 0, TargetProcKey),
	NumThreadAdd:   row("thread_add", classLogged, 0, TargetProcTree, "Pri"),
	NumThreadYield: row("thread_yield", classLogged, 0, TargetProcTree),
	NumThreadBlock: row("thread_block", classLogged, 0, TargetProcTree),
	NumThreadWake:  row("thread_wake", classLogged, 0, TargetProcTree),
	NumThreadExit:  row("thread_exit", classLogged, 0, TargetProcTree),
	NumPickNext:    row("picknext", classLogged, 0, TargetProcTree, "Core"),
	NumFutexWait:   row("futex_wait", classLocal, 0, TargetLocal, "Word"),
	NumFutexWake:   row("futex_wake", classLocal, 0, TargetLocal),
	NumSockBind:    row("sock_bind", classSock, 0, TargetLocal, "Port", "Word"),
	NumSockSend:    row("sock_send", classSock, 0, TargetLocal, "Data", "Sock", "Addr", "Port"),
	NumSockRecv:    row("sock_recv", classSock, 0, TargetLocal, "Flags", "Sock"),
	NumSockClose:   row("sock_close", classSock, 0, TargetLocal, "Sock"),
	NumMemRead:     row("mem_read", classLocal, 0, TargetLocal),
	NumMemWrite:    row("mem_write", classLocal, 0, TargetLocal, "Data"),
	NumMemCAS:      row("mem_cas", classLocal, 0, TargetLocal, "Word"),
	NumBatch:       row("batch", classLogged, 0, TargetCompose),
	NumSync:        row("sync", classLocal, 0, TargetLocal),
	NumPread:       row("pread", classRead, opChecked, TargetCompose, "Off"),
	NumPreadMap:    row("pread_map", classLogged, 0, TargetCompose, "Off"),
	NumPreadUnmap:  row("pread_unmap", classLogged, 0, TargetCompose),

	NumFDOpen:      row("fd_open", classInternal, 0, TargetProcKey),
	NumFDLock:      row("fd_lock", classInternal, 0, TargetProcKey),
	NumFDUnlock:    row("fd_unlock", classInternal, 0, TargetProcKey),
	NumFDSeek:      row("fd_seek", classInternal, 0, TargetProcKey),
	NumFDRun:       row("fd_run", classInternal, 0, TargetCompose),
	NumProcSpawn:   row("proc_spawn", classInternal, 0, TargetProcTree),
	NumProcUnspawn: row("proc_unspawn", classInternal, 0, TargetProcTree),
	NumProcAttach:  row("proc_attach", classInternal, 0, TargetProcKey),
	NumProcDetach:  row("proc_detach", classInternal, 0, TargetProcKey),
	NumProcExit:    row("proc_exit", classInternal, 0, TargetProcTree),
	NumFsCreate:    row("fs_create", classInternal, 0, TargetFsNS),
	NumFsRun:       row("fs_run", classInternal, 0, TargetFsOwner),
	NumFsTruncate:  row("fs_truncate", classInternal, 0, TargetFsOwner),
	NumPageMap:     row("page_map", classInternal, 0, TargetProcKey),
	NumPageUnmap:   row("page_unmap", classInternal, 0, TargetProcKey),

	NumFDGet:        row("fd_get", classInternal, 0, TargetProcKey),
	NumFsLookup:     row("fs_lookup", classInternal, 0, TargetFsPath),
	NumFsStatIno:    row("fs_statino", classInternal, 0, TargetFsOwner),
	NumFsReadAt:     row("fs_readat", classInternal, 0, TargetFsOwner),
	NumProcHasTable: row("proc_hastable", classInternal, 0, TargetProcKey),
	NumSockTabBind:  row("socktab_bind", classInternal, 0, TargetProcTree),
	NumSockTabClose: row("socktab_close", classInternal, 0, TargetProcTree),
	NumSockTabGet:   row("socktab_get", classInternal, 0, TargetProcTree),
}

// unknownOp is every number without a row: nameless and classless, free
// to carry any tail field — it decodes, and the kernel answers ENOSYS.
var unknownOp = opRow{target: TargetCompose, tail: tailDefined}

// lookup returns num's row, or unknownOp.
func lookup(num uint64) *opRow {
	if num < uint64(len(opTable)) && opTable[num].class != classNone {
		return &opTable[num]
	}
	return &unknownOp
}

// IsReadOp reports whether num is a read-only op (classRead).
func IsReadOp(num uint64) bool { return lookup(num).class == classRead }

// IsLocalOp reports whether core serves num outside the kernel state.
func IsLocalOp(num uint64) bool { return lookup(num).class == classLocal }

// IsSockOp reports whether num is a socket op (classSock).
func IsSockOp(num uint64) bool { return lookup(num).class == classSock }

// IsInternalOp reports whether num is a cross-shard protocol op.
func IsInternalOp(num uint64) bool { return lookup(num).class == classInternal }

// IsBatchableOp reports whether num may ride in a NumBatch submission.
func IsBatchableOp(num uint64) bool { return lookup(num).props&opBatchable != 0 }

// IsRunOp reports whether num can be an entry of a run: read, write, seek.
func IsRunOp(num uint64) bool { return lookup(num).props&opRun != 0 }

// checked reports whether num is contract-checked: read, write, seek, pread.
func checked(num uint64) bool { return lookup(num).props&opChecked != 0 }

// ClassifyWrite maps a mutating syscall to its shard target. Socket ops
// classify local: the dispatcher intercepts them before routing.
func ClassifyWrite(num uint64) ShardTarget { return lookup(num).target }

// ClassifyRead maps a read-only syscall to its shard target.
func ClassifyRead(num uint64) ShardTarget { return lookup(num).target }

// OpName returns the syscall's display name ("open", "mmap", ...), or
// "sys<N>" for unknown numbers.
func OpName(num uint64) string {
	if name := lookup(num).name; name != "" {
		return name
	}
	return fmt.Sprintf("sys%d", num)
}

// WriteOp is a mutating kernel operation — one logged NR entry. A
// single struct (rather than one type per syscall) keeps the NR
// instantiation monomorphic; unused fields are zero.
type WriteOp struct {
	Num uint64
	PID proc.PID

	// File syscalls. Data is a write's payload — or, on a per-call
	// NumRead, the caller's buffer, the read's destination: the kernel
	// side attaches it after the decode (a read's row carries no Data, so
	// it never crosses the wire), and only the issuer replica's apply
	// writes it, at most Len bytes and nothing past the count
	// (Kernel.DispatchWriteInto). A nil Data is the reply form.
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

	// Memory syscalls. Frames are attached by core after the decode (the
	// shared data-frame allocator lives outside the replicated state) so
	// that applying the op on every replica does not double-allocate
	// shared physical memory; they never cross the wire.
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
	// on both sides of this transition, while the transition holds the
	// descriptor (ComposeWitness), and return it in Resp.Witness. Set by a contract-checked Sys.Read/Write/Seek and on
	// a checked batch's entries; one bit on the wire.
	Witness bool
	Sig     proc.Signal
	Pri     sched.Priority
	Word    uint32

	// Ino addresses an inode directly — internal cross-shard ops only
	// (the wire codec never carries it; internal ops never cross the
	// boundary).
	Ino fs.Ino

	// Run is a batch's descriptor run, the entries a NumFsRun or NumFDRun
	// applies (Kernel.fsRun) — internal, never marshalled, and behind a
	// pointer so the op stays the size the regrouping above bought.
	Run *FsRun
}

// Entries is the number of submitted entries the op applies: its Run's,
// or itself.
func (op *WriteOp) Entries() int32 {
	if op.Run != nil {
		return int32(len(*op.Run))
	}
	return 1
}

// Lent implements nr.Owner. A run is the only memory a logged op borrows
// for no longer than its call: its entries are the vector the handler
// decoded the batch into and its writes' bytes the handle's encode
// buffer, and both reuse them for their next batch, while a replica that
// lags applies the entry after this one has returned. Every other
// reference an op carries is its own crossing's — a per-call write's
// payload, decoded from a request encoded for that call, or strings,
// which are copies — or a per-call read's destination, the caller's
// buffer, which its issuer's apply must fill in place and so must not
// be copied.
func (op *WriteOp) Lent() (entries, bytes int) {
	if op.Run == nil {
		return 0, 0
	}
	for i := range *op.Run {
		bytes += len((*op.Run)[i].Data)
	}
	return len(*op.Run), bytes
}

// Own implements nr.Owner: the slot's copy of a run entry points at the
// slot's own copies of the run and its writes' bytes.
func (op *WriteOp) Own(st *nr.SlotStore[WriteOp]) {
	run := st.Vector(*op.Run)
	for i := range *run {
		(*run)[i].Data = st.Bytes((*run)[i].Data)
	}
	op.Run = (*FsRun)(run)
}

// FsRun is what a NumFsRun or NumFDRun from a batch applies: consecutive
// read/write/seek entries on a single descriptor, in submission order.
// It aliases the decoded submission vector, which the handler reuses for
// its next batch, so the log copies it into the entry's slot (Own).
type FsRun []WriteOp

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
	// Witness on NumPread — one bit of the register frame, set by a
	// contract-checked Pread — asks for the file's contents on either side
	// of the read; on NumFsReadAt/NumFsStatIno it returns the inode's
	// contents snapshot beside the result (the owner shard's half of a
	// witness).
	Witness bool
	// Dst on NumFsReadAt is the buffer the caller lends the read: up to
	// len(Dst) bytes of the file land in it, and the reply's Data aliases
	// it, instead of in a buffer the apply allocates — a copying pread's
	// destination, of any length, is filled in the one replica-local
	// apply. The apply runs on the caller's goroutine (ExecuteRead), so
	// the buffer is written before the call returns and never after, and
	// nothing past the count is written. A nil Dst is the reply form.
	Dst []byte
}

// Witness is the §3 abstraction of the one descriptor a checked
// transition names, on either side of it. The kernel captures it while
// the transition holds the descriptor — inside the apply, or under the fd
// lock on a partitioned kernel (ComposeWitness) — so Pre and Post are
// adjacent states by construction, however many handles share the
// process. A transition may apply several entries of a batch (a
// descriptor run): Pre is then the state before its first and Post the
// state after its last. A pread moves no descriptor state: its witness is
// the file's contents on either side of the read. Contents are zero-copy
// snapshots (fs.FS.Contents); PreOK/PostOK say whether the descriptor was
// open in that state.
type Witness struct {
	Pre, Post     fs.SpecFile
	PreOK, PostOK bool
	// At and N name the entries the witness covers, [At, At+N) of the
	// crossing's vector (a per-call crossing is the vector of one): the
	// kernel sets N, the entries its transition applied, and the handler
	// sets At.
	At, N int32
}

// Release gives back the views the witness holds (fs.Pages.Release),
// once nothing reads it any more, and empties it.
func (w *Witness) Release() {
	w.Pre.Contents.Release()
	w.Post.Contents.Release()
	*w = Witness{}
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

	// Run answers a NumFsRun or NumFDRun that carries a Run: one result
	// per entry, in order; Off beside it is the descriptor's cursor after
	// the last entry. Kernel.fsRun answers into the vector the slot's
	// previous answer left here, so a slot reused for run after run (the
	// handler's batch answers) allocates none.
	Run []RunResult

	// Witness answers WriteOp.Witness (and a pread's ReadOp.Witness): the
	// transition's, by value, so taking it allocates nothing; N is 0 when
	// there is none. Never marshalled — its contents are views of kernel
	// memory, not bytes to copy: the handler keeps it for its handle, Sys
	// takes it through Witnesser and gives its views back once checked,
	// and a replica whose response nobody reads takes none
	// (Kernel.DispatchWriteInto with no slot).
	Witness Witness
}

// ok returns a success response with a value.
func ok(val uint64) Resp { return Resp{Errno: EOK, Val: val} }

// fail returns an errno response.
func fail(err error) Resp { return Resp{Errno: ErrnoFromError(err)} }
