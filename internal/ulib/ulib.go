// Package ulib is the user-space runtime and standard library — the §1
// "system libraries (e.g., libc)" component, the §4.1 user-space half of
// NrOS ("thread scheduler, synchronization, allocator, POSIX-ish library
// layer"), and the paper's §3 suggestion made concrete: "implement and
// verify core 'standard library' features like those in glibc and
// pthreads, connecting to the model of the operating system. This allows
// the kernel APIs to remain narrow while giving applications a
// higher-level programming API with an easier-to-use spec."
//
// Everything that touches the kernel is built strictly on the Sys
// syscall contract: buffered stdio over read/write/seek, a malloc over
// mmap, C-string routines over the process-memory model, and a mutex,
// condition variable and semaphore over MemCAS32 + FutexWait/FutexWake
// (the exact layering the paper sketches: "we might expose futexes from
// the kernel and then verify a userspace mutex implementation on top").
// The green-thread scheduler (uthread.go) needs no kernel at all.
package ulib

import (
	"errors"
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/sys"
)

// Runtime is a process's library state (think: the C runtime).
type Runtime struct {
	S *sys.Sys

	// slabs are the mmap'd regions malloc carves, in address order, each
	// with its own block manager (malloc.go).
	slabs []*heap
}

// Library errors.
var (
	ErrClosed  = errors.New("ulib: file is closed")
	ErrNoMem   = errors.New("ulib: out of memory")
	ErrBadFree = errors.New("ulib: free of unallocated pointer")
	ErrSyscall = errors.New("ulib: syscall failed")
)

// errnoErr wraps a kernel errno.
func errnoErr(op string, e sys.Errno) error {
	return fmt.Errorf("%w: %s: %v", ErrSyscall, op, e)
}

// New creates a runtime over a process's Sys handle.
func New(s *sys.Sys) *Runtime {
	return &Runtime{S: s}
}

// Sync makes all acknowledged filesystem mutations durable — libc's
// sync(2) wrapper over the kernel's durability transition. Without a
// journal this snapshots; with one it group-commits the pending tail.
func (rt *Runtime) Sync() error {
	if e := rt.S.Sync(); e != sys.EOK {
		return errnoErr("sync", e)
	}
	return nil
}

// --- mem/str routines over the process-memory model ---

// Memcpy copies n bytes of process memory from src to dst.
func (rt *Runtime) Memcpy(dst, src mmu.VAddr, n uint64) error {
	buf := make([]byte, n)
	if e := rt.S.MemRead(src, buf); e != sys.EOK {
		return errnoErr("memcpy read", e)
	}
	if e := rt.S.MemWrite(dst, buf); e != sys.EOK {
		return errnoErr("memcpy write", e)
	}
	return nil
}

// Memset fills n bytes at va with c.
func (rt *Runtime) Memset(va mmu.VAddr, c byte, n uint64) error {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = c
	}
	if e := rt.S.MemWrite(va, buf); e != sys.EOK {
		return errnoErr("memset", e)
	}
	return nil
}

// maxCString bounds Strlen scans so a missing NUL cannot loop forever.
const maxCString = 1 << 20

// WriteCString stores s NUL-terminated at va.
func (rt *Runtime) WriteCString(va mmu.VAddr, s string) error {
	buf := append([]byte(s), 0)
	if e := rt.S.MemWrite(va, buf); e != sys.EOK {
		return errnoErr("strcpy", e)
	}
	return nil
}

// Strlen scans for the NUL terminator, chunk by chunk, as a libc
// implementation does.
func (rt *Runtime) Strlen(va mmu.VAddr) (uint64, error) {
	var n uint64
	chunk := make([]byte, 64)
	for n < maxCString {
		if e := rt.S.MemRead(va+mmu.VAddr(n), chunk); e != sys.EOK {
			return 0, errnoErr("strlen", e)
		}
		for i, b := range chunk {
			if b == 0 {
				return n + uint64(i), nil
			}
		}
		n += uint64(len(chunk))
	}
	return 0, fmt.Errorf("%w: unterminated string at %#x", ErrSyscall, uint64(va))
}

// ReadCString loads the NUL-terminated string at va.
func (rt *Runtime) ReadCString(va mmu.VAddr) (string, error) {
	n, err := rt.Strlen(va)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if e := rt.S.MemRead(va, buf); e != sys.EOK {
		return "", errnoErr("read cstring", e)
	}
	return string(buf), nil
}

// Strcmp compares the strings at a and b, returning <0, 0, >0.
func (rt *Runtime) Strcmp(a, b mmu.VAddr) (int, error) {
	sa, err := rt.ReadCString(a)
	if err != nil {
		return 0, err
	}
	sb, err := rt.ReadCString(b)
	if err != nil {
		return 0, err
	}
	switch {
	case sa < sb:
		return -1, nil
	case sa > sb:
		return 1, nil
	}
	return 0, nil
}

// --- buffered stdio ---

// BufSize is the stdio buffer size.
const BufSize = 4096

// File is a buffered stream over a descriptor (a FILE*).
type File struct {
	rt     *Runtime
	fd     fs.FD
	closed bool
	// wbuf accumulates writes until Flush/BufSize.
	wbuf []byte
	// rbuf holds read-ahead; rpos indexes into it.
	rbuf []byte
	rpos int
}

// Open opens a buffered stream (flags as in sys: ORdWr|OCreate etc).
func (rt *Runtime) Open(path string, flags sys.OpenFlag) (*File, error) {
	fd, e := rt.S.Open(path, flags)
	if e != sys.EOK {
		return nil, errnoErr("open "+path, e)
	}
	return &File{rt: rt, fd: fd, wbuf: make([]byte, 0, BufSize)}, nil
}

// syncForWrite repositions the kernel offset when unread read-ahead
// exists: the stream's logical position trails the kernel offset by the
// unread bytes, and a write must land at the logical position. (ANSI C
// leaves read→write without an intervening seek undefined; this stdio
// defines it, which is what the stdio-equals-direct-syscalls VC checks.)
func (f *File) syncForWrite() error {
	if unread := len(f.rbuf) - f.rpos; unread > 0 {
		f.rbuf = nil
		f.rpos = 0
		if _, e := f.rt.S.Seek(f.fd, -int64(unread), fs.SeekCur); e != sys.EOK {
			return errnoErr("write sync seek", e)
		}
	}
	return nil
}

// Write buffers p, flushing full buffers — libc's fwrite.
func (f *File) Write(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.syncForWrite(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		space := BufSize - len(f.wbuf)
		if space == 0 {
			if err := f.Flush(); err != nil {
				return total, err
			}
			space = BufSize
		}
		n := len(p)
		if n > space {
			n = space
		}
		f.wbuf = append(f.wbuf, p[:n]...)
		p = p[n:]
		total += n
	}
	return total, nil
}

// WriteString writes s.
func (f *File) WriteString(s string) (int, error) { return f.Write([]byte(s)) }

// Printf formats into the stream — fprintf.
func (f *File) Printf(format string, args ...any) (int, error) {
	return f.WriteString(fmt.Sprintf(format, args...))
}

// Flush pushes buffered writes through the syscall boundary.
func (f *File) Flush() error {
	if f.closed {
		return ErrClosed
	}
	for len(f.wbuf) > 0 {
		n, e := f.rt.S.Write(f.fd, f.wbuf)
		if e != sys.EOK {
			return errnoErr("write", e)
		}
		f.wbuf = f.wbuf[n:]
	}
	f.wbuf = f.wbuf[:0]
	return nil
}

// Sync flushes the stream's buffer and then asks the kernel to make
// every acknowledged mutation durable (one journal group commit) —
// libc's fflush followed by fsync. On return the file's contents
// survive a crash up to this point.
func (f *File) Sync() error {
	if err := f.Flush(); err != nil {
		return err
	}
	return f.rt.Sync()
}

// Writev flushes any buffered data and then writes the buffers through
// one batched submission (Sys.Writev): one boundary crossing and one
// combiner round for the whole vector, where a Write loop would pay the
// crossing per buffer.
func (f *File) Writev(bufs [][]byte) (uint64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.syncForWrite(); err != nil {
		return 0, err
	}
	if err := f.Flush(); err != nil {
		return 0, err
	}
	n, e := f.rt.S.Writev(f.fd, bufs)
	if e != sys.EOK {
		return n, errnoErr("writev", e)
	}
	return n, nil
}

// Read fills p from the read-ahead buffer, refilling via the read
// syscall — fread. A short count with nil error means EOF.
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	// Reads must observe writes: flush first, as libc does on streams
	// used for update.
	if err := f.Flush(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		if f.rpos >= len(f.rbuf) {
			buf := make([]byte, BufSize)
			n, e := f.rt.S.Read(f.fd, buf)
			if e != sys.EOK {
				return total, errnoErr("read", e)
			}
			if n == 0 {
				return total, nil // EOF
			}
			f.rbuf = buf[:n]
			f.rpos = 0
		}
		n := copy(p, f.rbuf[f.rpos:])
		f.rpos += n
		p = p[n:]
		total += n
	}
	return total, nil
}

// ReadLine reads through the next '\n' (not returned) — fgets.
func (f *File) ReadLine() (string, error) {
	var out []byte
	one := make([]byte, 1)
	for {
		n, err := f.Read(one)
		if err != nil {
			return string(out), err
		}
		if n == 0 {
			if len(out) == 0 {
				return "", fmt.Errorf("%w: EOF", ErrSyscall)
			}
			return string(out), nil
		}
		if one[0] == '\n' {
			return string(out), nil
		}
		out = append(out, one[0])
	}
}

// Seek flushes and repositions; read-ahead is discarded (libc semantics
// after fseek). The new offset accounts for unread buffered bytes. The
// signature matches io.Seeker.
func (f *File) Seek(off int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.Flush(); err != nil {
		return 0, err
	}
	if whence == fs.SeekCur {
		// The kernel offset is ahead of the stream by the unread
		// read-ahead bytes.
		off -= int64(len(f.rbuf) - f.rpos)
	}
	f.rbuf = nil
	f.rpos = 0
	pos, e := f.rt.S.Seek(f.fd, off, whence)
	if e != sys.EOK {
		return 0, errnoErr("seek", e)
	}
	return int64(pos), nil
}

// Close flushes and releases the descriptor.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	if err := f.Flush(); err != nil {
		return err
	}
	f.closed = true
	if e := f.rt.S.Close(f.fd); e != sys.EOK {
		return errnoErr("close", e)
	}
	return nil
}
