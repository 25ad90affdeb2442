package fs

import (
	"errors"
	"fmt"
)

// FD is a file descriptor.
type FD uint64

// Open flags.
const (
	ORdOnly = 1 << iota
	OWrOnly
	ORdWr
	OCreate
	OTrunc
	OAppend
)

// Errors for the descriptor layer.
var (
	ErrBadFD      = errors.New("fs: bad file descriptor")
	ErrNotLocked  = errors.New("fs: descriptor not locked for syscall")
	ErrPermission = errors.New("fs: descriptor not opened for this operation")
)

// OpenFile is the kernel state behind one descriptor — the fields the
// paper's read_spec state machine exposes: the file, the cursor, and
// the per-descriptor lock that discharges the §3 data-race-freedom
// obligation (the syscall layer locks the descriptor for the duration
// of each call).
type OpenFile struct {
	Ino    Ino
	Offset uint64
	Flags  int
	Locked bool
}

// FDTable maps descriptors to open files. Like FS it is sequential.
// The records Close releases are kept on a free list that Open and
// Attach take from, so a warm open+close allocates nothing inside the
// NR apply: nothing holds an *OpenFile past the apply that resolved it
// (a witness and the sharded kernel's lock step take copies).
type FDTable struct {
	fs   *FS
	open map[FD]*OpenFile
	free []*OpenFile
	next FD
}

// NewFDTable creates an empty table over fs.
func NewFDTable(fs *FS) *FDTable {
	return &FDTable{fs: fs, open: make(map[FD]*OpenFile), next: 3} // 0-2 reserved
}

// FS returns the underlying filesystem.
func (t *FDTable) FS() *FS { return t.fs }

// Open opens path with flags, creating the file when OCreate is set.
func (t *FDTable) Open(path string, flags int) (FD, error) {
	ino, err := t.fs.Lookup(path)
	if err != nil {
		if flags&OCreate == 0 {
			return 0, err
		}
		ino, err = t.fs.Create(path)
		if err != nil {
			return 0, err
		}
	}
	st, err := t.fs.StatIno(ino)
	if err != nil {
		return 0, err
	}
	if st.Kind == KindDir && flags&(OWrOnly|ORdWr|OTrunc|OAppend) != 0 {
		return 0, fmt.Errorf("%w: cannot open directory for writing", ErrIsDir)
	}
	if flags&OTrunc != 0 {
		if err := t.fs.Truncate(ino, 0); err != nil {
			return 0, err
		}
	}
	return t.install(ino, flags), nil
}

// install gives ino a new descriptor opened with flags, in a record the
// free list holds when it has one.
func (t *FDTable) install(ino Ino, flags int) FD {
	var of *OpenFile
	if n := len(t.free); n > 0 {
		of, t.free = t.free[n-1], t.free[:n-1]
	} else {
		of = new(OpenFile)
	}
	*of = OpenFile{Ino: ino, Flags: flags}
	fd := t.next
	t.next++
	t.open[fd] = of
	return fd
}

// Get returns the open file for fd.
func (t *FDTable) Get(fd FD) (*OpenFile, error) {
	of := t.open[fd]
	if of == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return of, nil
}

// Lock marks the descriptor as held by an in-flight syscall; the
// read/write paths require it (the read_spec precondition
// `pre.files[fd].locked`).
func (t *FDTable) Lock(fd FD) error {
	of, err := t.Get(fd)
	if err != nil {
		return err
	}
	if of.Locked {
		return fmt.Errorf("fs: descriptor %d already locked", fd)
	}
	of.Locked = true
	return nil
}

// Unlock releases the descriptor.
func (t *FDTable) Unlock(fd FD) error {
	of, err := t.Get(fd)
	if err != nil {
		return err
	}
	if !of.Locked {
		return fmt.Errorf("%w: %d", ErrNotLocked, fd)
	}
	of.Locked = false
	return nil
}

// Read implements the paper's read syscall semantics: read_len =
// min(len(buffer), size - offset) bytes from the current offset, then
// advance the offset. The descriptor must be locked.
func (t *FDTable) Read(fd FD, buffer []byte) (uint64, error) {
	of, err := t.Get(fd)
	if err != nil {
		return 0, err
	}
	if !of.Locked {
		return 0, fmt.Errorf("%w: read(%d)", ErrNotLocked, fd)
	}
	n, next, err := t.fs.ReadCursor(of.Ino, of.Flags, of.Offset, buffer)
	of.Offset = next
	return n, err
}

// Write writes buffer at the current offset (or EOF with OAppend) and
// advances it. The descriptor must be locked.
func (t *FDTable) Write(fd FD, buffer []byte) (uint64, error) {
	of, err := t.Get(fd)
	if err != nil {
		return 0, err
	}
	if !of.Locked {
		return 0, fmt.Errorf("%w: write(%d)", ErrNotLocked, fd)
	}
	n, next, err := t.fs.WriteCursor(of.Ino, of.Flags, of.Offset, buffer)
	of.Offset = next
	return n, err
}

// Whence values for Seek.
const (
	SeekSet = iota
	SeekCur
	SeekEnd
)

// Seek repositions the descriptor's offset.
func (t *FDTable) Seek(fd FD, off int64, whence int) (uint64, error) {
	of, err := t.Get(fd)
	if err != nil {
		return 0, err
	}
	n, err := t.fs.SeekCursor(of.Ino, of.Offset, off, whence)
	if err != nil {
		return 0, err
	}
	of.Offset = n
	return n, nil
}

// The three cursor operations below are read(2), write(2) and lseek(2)
// against an explicit cursor: the descriptor's offset and open flags,
// wherever they are kept. FDTable keeps them beside the filesystem; the
// sharded kernel keeps them on another shard and threads them through a
// run of these calls (sys.NumFsRun). Each returns the cursor the
// descriptor moves to, which on any error is the cursor it was given.

// ReadCursor reads up to len(p) bytes of ino at cur into p.
func (f *FS) ReadCursor(ino Ino, flags int, cur uint64, p []byte) (n, next uint64, err error) {
	if flags&OWrOnly != 0 {
		return 0, cur, fmt.Errorf("%w: read on write-only fd", ErrPermission)
	}
	c, err := f.ReadAt(ino, cur, p)
	if err != nil {
		return 0, cur, err
	}
	return uint64(c), cur + uint64(c), nil
}

// WriteCursor writes p to ino at cur — or, for an OAppend descriptor
// writing at least one byte, at the file's size as of this call, the one
// moment it is authoritative.
func (f *FS) WriteCursor(ino Ino, flags int, cur uint64, p []byte) (n, next uint64, err error) {
	if flags&(OWrOnly|ORdWr|OAppend) == 0 {
		return 0, cur, fmt.Errorf("%w: write on read-only fd", ErrPermission)
	}
	at := cur
	if flags&OAppend != 0 && len(p) > 0 {
		st, err := f.StatIno(ino)
		if err != nil {
			return 0, cur, err
		}
		at = st.Size
	}
	c, err := f.WriteAt(ino, at, p)
	if err != nil {
		return 0, cur, err
	}
	return uint64(c), at + uint64(c), nil
}

// SeekCursor resolves a seek from cur; ino is consulted only by SeekEnd.
func (f *FS) SeekCursor(ino Ino, cur uint64, off int64, whence int) (uint64, error) {
	var base uint64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = cur
	case SeekEnd:
		st, err := f.StatIno(ino)
		if err != nil {
			return cur, err
		}
		base = st.Size
	default:
		return cur, fmt.Errorf("%w: whence %d", ErrInval, whence)
	}
	n := int64(base) + off
	if n < 0 {
		return cur, fmt.Errorf("%w: negative offset", ErrInval)
	}
	return uint64(n), nil
}

// Close releases the descriptor, and its record to the free list.
func (t *FDTable) Close(fd FD) error {
	of, ok := t.open[fd]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	delete(t.open, fd)
	t.free = append(t.free, of)
	return nil
}

// OpenCount returns the number of live descriptors.
func (t *FDTable) OpenCount() int { return len(t.open) }
