// Package vnros is the public API of the vnros project: a Go
// reproduction of "Beyond isolation: OS verification as a foundation
// for correct applications" (Brun et al., HotOS '23).
//
// It exposes the composed simulated operating system (a multi-core,
// NR-replicated kernel with a process-centric, spec-checked syscall
// contract), the verification-condition engine that stands in for the
// paper's Verus pipeline, and the experiment harness that regenerates
// the paper's evaluation.
//
// Quick start:
//
//	system, err := vnros.Boot(vnros.Config{Cores: 4})
//	initSys, err := system.Init()
//	system.Run(initSys, "hello", func(p *vnros.Process) int {
//	    fd, _ := p.Sys.Open("/hello.txt", vnros.OCreate|vnros.ORdWr)
//	    p.Sys.Write(fd, []byte("hello from a verified-OS contract"))
//	    return 0
//	})
//
// Every syscall a program issues is checked against the paper's §3
// specification relations (read_spec and friends) through the kernel's
// view abstraction; violations surface via Sys.ContractErr.
//
// Batched file ops go through the submission ring: Sys.SubmitOpts
// queues a vector of Ops on the handle and returns a Batch, and the
// batch crosses the boundary at its Wait, on the waiting goroutine,
// after every batch the handle queued before it.
// Sys.NewBatch(opts).Add(ops...) builds the same batch step by step,
// and Sys.SubmitWait is the synchronous shorthand over the same path.
//
// Positioned reads (Sys.Pread, OpPread in a batch) are replica-local
// reads of the file's owner replica, into the caller's buffer: they
// never cross the kernel's operation-log combiner, and one read returns
// one state of the file. Sys.PreadMap is the zero-copy tier — it maps a
// page of the sharded page cache read-only into the caller's
// address space and returns the mapping's base VA; release it with
// Sys.PreadUnmap. See DESIGN.md, "The zero-copy read path", for when a
// read returns a mapping versus bytes.
package vnros

import (
	"github.com/verified-os/vnros/internal/core"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
	"github.com/verified-os/vnros/internal/verifier/diff"
)

// Core system types.
type (
	// System is a booted instance of the simulated OS.
	System = core.System
	// Config sizes a System.
	Config = core.Config
	// Process is a running user program's handle.
	Process = core.Process
	// Program is a user program body; the return value is its exit code.
	Program = core.Program
	// Sys is the per-process syscall interface (the paper's Sys type).
	Sys = sys.Sys
	// Errno is the syscall error number.
	Errno = sys.Errno
	// FD is a file descriptor.
	FD = fs.FD
	// Stat describes a file.
	Stat = fs.Stat
	// DirEntry is a directory listing entry.
	DirEntry = fs.DirEntry
	// PID identifies a process.
	PID = proc.PID
	// Signal is a POSIX-style signal number.
	Signal = proc.Signal
	// WaitResult is a reaped child.
	WaitResult = proc.WaitResult
	// VAddr is a user virtual address.
	VAddr = mmu.VAddr
	// Network is a virtual switch connecting Systems.
	Network = netstack.Network
	// NetAddr is a machine address on a Network.
	NetAddr = netstack.Addr
	// Ino is an inode number.
	Ino = fs.Ino
	// FileKind distinguishes files from directories in Stat/DirEntry.
	FileKind = fs.Kind

	// OpenFlag is the typed flag set of Sys.Open; invalid combinations
	// are rejected before the boundary crossing.
	OpenFlag = sys.OpenFlag
	// Op is one entry of a batched submission (Sys.NewBatch).
	Op = sys.Op
	// Batch is a batched submission; it crosses, and is reaped, at Wait.
	Batch = sys.Batch
	// Completion is one completion-queue entry of a drained batch.
	Completion = sys.Completion
	// SubmitOptions configures a submission (Sys.SubmitOpts /
	// Sys.NewBatch).
	SubmitOptions = sys.SubmitOptions
	// WaitMode is a batch's reap discipline; WaitBlock is the one mode.
	WaitMode = sys.WaitMode
	// Port is a typed socket port number.
	Port = sys.Port
	// SockID is a typed socket handle; the zero SockID is never valid.
	SockID = sys.SockID
	// SockFrom is the typed source of a received datagram
	// (Completion.SockFrom).
	SockFrom = sys.SockFrom
)

// WaitBlock is the reap mode of every batch (SubmitOptions.Wait): Wait
// returns once the batch has crossed.
const WaitBlock = sys.WaitBlock

// Batch lifecycle errors (Batch.Submit/Wait).
var (
	ErrBatchEmpty        = sys.ErrBatchEmpty
	ErrBatchNotSubmitted = sys.ErrBatchNotSubmitted
	ErrBatchSubmitted    = sys.ErrBatchSubmitted
	ErrBatchReaped       = sys.ErrBatchReaped
)

// Open flags (typed; untyped constant combinations like OCreate|ORdWr
// still convert implicitly).
const (
	ORdOnly = sys.ORdOnly
	OWrOnly = sys.OWrOnly
	ORdWr   = sys.ORdWr
	OCreate = sys.OCreate
	OTrunc  = sys.OTrunc
	OAppend = sys.OAppend
)

// File kinds.
const (
	KindFile = fs.KindFile
	KindDir  = fs.KindDir
)

// Seek whence values.
const (
	SeekSet = fs.SeekSet
	SeekCur = fs.SeekCur
	SeekEnd = fs.SeekEnd
)

// Errnos (the full kernel error ABI; Errno.Err() converts to a nil-on-
// success error).
const (
	EOK        = sys.EOK
	EPERM      = sys.EPERM
	ENOENT     = sys.ENOENT
	ESRCH      = sys.ESRCH
	EBADF      = sys.EBADF
	ECHILD     = sys.ECHILD
	EAGAIN     = sys.EAGAIN
	ENOMEM     = sys.ENOMEM
	EFAULT     = sys.EFAULT
	EBUSY      = sys.EBUSY
	EEXIST     = sys.EEXIST
	ENOTDIR    = sys.ENOTDIR
	EISDIR     = sys.EISDIR
	EINVAL     = sys.EINVAL
	ENFILE     = sys.ENFILE
	EFBIG      = sys.EFBIG
	ENOSYS     = sys.ENOSYS
	ENOTEMPTY  = sys.ENOTEMPTY
	EADDRINUSE = sys.EADDRINUSE
	EIO        = sys.EIO
)

// Signals.
const (
	SIGKILL = proc.SIGKILL
	SIGTERM = proc.SIGTERM
	SIGUSR1 = proc.SIGUSR1
	SIGCHLD = proc.SIGCHLD
)

// PageSize is the base page size of the simulated machine.
const PageSize = mmu.L1PageSize

// InitPID is the init process's PID.
const InitPID = proc.InitPID

// Boot builds and starts a simulated OS instance.
func Boot(cfg Config) (*System, error) { return core.Boot(cfg) }

// Submission-queue entry constructors (see Sys.NewBatch). Each enqueues
// one syscall; the completion's Val carries the scalar result.
func OpOpen(path string, flags OpenFlag) Op { return sys.OpOpen(path, flags) }
func OpClose(fd FD) Op                      { return sys.OpClose(fd) }
func OpRead(fd FD, n uint64) Op             { return sys.OpRead(fd, n) }
func OpWrite(fd FD, data []byte) Op         { return sys.OpWrite(fd, data) }

// OpPread enqueues a positioned read served after the batch's logged
// ops complete; the descriptor offset is untouched.
func OpPread(fd FD, n, off uint64) Op { return sys.OpPread(fd, n, off) }

// OpPreadMap enqueues the zero-copy positioned read: the completion's
// Val is the mapping's base VA (release it with Sys.PreadUnmap).
func OpPreadMap(fd FD, off uint64) Op { return sys.OpPreadMap(fd, off) }
func OpSeek(fd FD, off int64, whence int) Op {
	return sys.OpSeek(fd, off, whence)
}
func OpTruncate(fd FD, size uint64) Op { return sys.OpTruncate(fd, size) }
func OpMkdir(path string) Op           { return sys.OpMkdir(path) }
func OpUnlink(path string) Op          { return sys.OpUnlink(path) }
func OpRmdir(path string) Op           { return sys.OpRmdir(path) }
func OpRename(old, new string) Op      { return sys.OpRename(old, new) }
func OpLink(old, new string) Op        { return sys.OpLink(old, new) }

// OpSync enqueues a durability barrier: placed at the end of a batch it
// turns the whole submission into one group commit — every mutation in
// the batch is journaled and flushed by a single disk write sequence.
func OpSync() Op { return sys.OpSync() }

// Socket submission-queue entries: the networked syscall path batched
// through the same ring. A batched receive is always non-blocking; its
// completion carries the typed sender in Completion.SockFrom.
func OpSockBind(port Port, budget uint32) Op { return sys.OpSockBind(port, budget) }
func OpSockSend(sock SockID, addr NetAddr, port Port, payload []byte) Op {
	return sys.OpSockSend(sock, addr, port, payload)
}
func OpSockRecv(sock SockID) Op  { return sys.OpSockRecv(sock) }
func OpSockClose(sock SockID) Op { return sys.OpSockClose(sock) }

// NewNetwork creates a virtual switch; pass it in Config.Network to
// connect multiple Systems (the blockstore example builds a small
// cluster this way).
func NewNetwork() *Network { return netstack.NewNetwork() }

// Verification re-exports: the VC engine behind "verified" claims.
type (
	// VCRegistry collects verification conditions.
	VCRegistry = verifier.Registry
	// VCReport is a verification run's outcome (Figure 1a's data).
	VCReport = verifier.Report
	// VCOptions configures a run.
	VCOptions = verifier.Options
)

// NewVCRegistry returns a registry pre-loaded with every module's
// verification conditions — the full proof ledger of the system —
// including the differential harness's trace-diff VCs, which sit above
// core (they boot whole kernels) and so register here rather than in
// core.RegisterAllObligations.
func NewVCRegistry() *VCRegistry {
	g := &verifier.Registry{}
	core.RegisterAllObligations(g)
	diff.RegisterObligations(g)
	return g
}

// Verify discharges every verification condition and returns the
// report. A failed VC means a broken invariant, refinement, round-trip
// or linearizability property somewhere in the stack.
func Verify(seed int64) *VCReport {
	return NewVCRegistry().Run(verifier.Options{Seed: seed})
}
