package fs

import (
	"fmt"
	"math"
)

// This file is the §3 client-application contract for the file system:
// the descriptor half of the spec state machine, one transition per
// read, write, seek and pread. The paper's example is read_spec,
// transcribed from its Verus:
//
//	spec fn read_spec(pre: State, post: State, fd: usize,
//	                  buffer: Seq<u8>, read_len: usize)
//	{ pre.files[fd].locked
//	  && read_len == min(buffer.len(), pre.files[fd].size - pre.files[fd].offset)
//	  && buffer[0 .. read_len] == pre.files[fd].contents[
//	         pre.files[fd].offset .. (pre.files[fd].offset + read_len)]
//	  && post.files[fd].offset == pre.files[fd].offset + read_len }
//
// It is Step's StepRead arm — read_len is the value, the pre offset the
// position and the post offset the cursor — and StepHolds is the
// relation: post is Step(pre, op), over the bytes the caller received.
// SpecFile is one descriptor of the abstract "State"; AbstractFDs is
// the abstraction of a real FDTable, and the obligations check every
// implementation step against StepHolds, exactly as the `ensures` clause
// of the paper's read wrapper demands.

// SpecFile is the abstract view of one descriptor. Ino identifies the
// underlying file so checkers can tell when two descriptors alias the
// same contents; the transitions themselves never inspect it. Append
// mirrors the descriptor's OAppend flag: Step resolves such a
// descriptor's writes at EOF, exactly as the implementation does.
type SpecFile struct {
	Contents Pages
	Offset   uint64
	Locked   bool
	Append   bool
	Ino      Ino
}

// Size returns the abstract file size.
func (s SpecFile) Size() uint64 { return s.Contents.Len() }

// SpecState is the abstract system state from the client's perspective.
type SpecState struct {
	Files map[FD]SpecFile
}

// StepKind names a descriptor transition.
type StepKind uint8

// The descriptor transitions.
const (
	StepRead StepKind = iota
	StepWrite
	StepSeek
	StepPread
)

// StepOp is one descriptor transition's input: a read of Len bytes, a
// write of Data, a seek to Off from Whence, or a pread of Len bytes at
// Off.
type StepOp struct {
	Kind   StepKind
	Len    uint64
	Data   []byte
	Off    int64
	Whence int
}

// Step is the one definition of what a descriptor op does from s: the
// value it reports (a count, or a seek's new offset), the position it
// reads or writes at, and the cursor after it. It builds no contents: a
// write's post contents are s's with Data at the position, a gap beyond
// EOF reading as zeroes, and every other op leaves them as they are. An
// op that is not enabled from s returns an error; a failed op is the
// identity step.
func (s SpecFile) Step(op StepOp) (val, at, next uint64, err error) {
	size := s.Size()
	switch op.Kind {
	case StepRead, StepPread:
		at = s.Offset
		if op.Kind == StepPread {
			at = uint64(op.Off)
		}
		val = min(op.Len, size-min(at, size)) // read_spec's read_len
		if op.Kind == StepPread {
			return val, at, s.Offset, nil // no cursor to move, none to hold
		}
		if !s.Locked {
			return 0, 0, s.Offset, ErrNotLocked
		}
		return val, at, at + val, nil
	case StepWrite:
		if !s.Locked {
			return 0, 0, s.Offset, ErrNotLocked
		}
		val = uint64(len(op.Data))
		if val == 0 {
			// POSIX write(2): a zero-length write has no other results — no
			// growth to an offset past EOF, no append repositioning.
			return 0, min(s.Offset, size), s.Offset, nil
		}
		at = s.Offset
		if s.Append {
			at = size
		}
		return val, at, at + val, nil
	}
	// StepSeek.
	var base uint64
	switch op.Whence {
	case SeekSet:
	case SeekCur:
		base = s.Offset
	case SeekEnd:
		base = size
	default:
		return 0, 0, s.Offset, fmt.Errorf("%w: whence %d", ErrInval, op.Whence)
	}
	// The target is base+Off as an integer, and lseek(2) returns it as an
	// off_t: below zero (the sum wraps under base) or from 2^63 up, the
	// seek is refused.
	at = base + uint64(op.Off)
	if (op.Off < 0) != (at < base) || at > math.MaxInt64 {
		return 0, 0, s.Offset, fmt.Errorf("%w: seek %d from %d", ErrInval, op.Off, base)
	}
	return at, at, at, nil
}

// StepHolds is the relation "post is Step(pre, op)" for an op that
// reported ok, val and delivered got (a read's or pread's bytes): the
// value, the bytes and the post cursor are Step's, and the contents are
// pre's with a write's data at its position, or pre's. Contents are
// compared in place. A failed op (!ok) is the identity step: the
// descriptor is exactly as it was — offset, lock, size and contents.
// Equal snapshots share their pages, so a contents clause is a pointer
// comparison per page in the common case.
func StepHolds(pre SpecFile, op StepOp, ok bool, val uint64, got []byte, post SpecFile) error {
	if !ok {
		switch {
		case pre.Offset != post.Offset:
			return fmt.Errorf("offset moved %d -> %d", pre.Offset, post.Offset)
		case pre.Locked != post.Locked:
			return fmt.Errorf("lock state changed %v -> %v", pre.Locked, post.Locked)
		case pre.Size() != post.Size():
			return fmt.Errorf("size changed %d -> %d", pre.Size(), post.Size())
		case !pre.Contents.Equal(post.Contents):
			return fmt.Errorf("contents changed")
		}
		return nil
	}
	want, at, next, err := pre.Step(op)
	switch {
	case err != nil:
		return fmt.Errorf("reported success from a state that refuses it: %w", err)
	case val != want:
		return fmt.Errorf("reported %d, want %d", val, want)
	case post.Offset != next:
		return fmt.Errorf("post offset %d, want %d", post.Offset, next)
	case op.Kind == StepWrite:
		return writeHolds(pre, post, at, op.Data)
	case op.Kind != StepSeek && uint64(len(got)) != val:
		return fmt.Errorf("%d bytes delivered for count %d", len(got), val)
	case op.Kind != StepSeek && !pre.Contents.EqualBytes(at, got):
		return fmt.Errorf("the %d bytes delivered differ from the contents at %d", val, at)
	case !post.Contents.Equal(pre.Contents):
		return fmt.Errorf("contents changed (%d -> %d bytes)", pre.Size(), post.Size())
	}
	return nil
}

// writeHolds is a write's contents clause: post is pre with data at
// wOff — prefix preserved, any gap beyond pre's EOF zero-filled, suffix
// preserved. The frame segments are compared page by page: a page both
// states hold by the same pointer is unchanged without being read, and a
// differing pointer is not a violation — it falls back to the bytes, as
// do the partial pages at the window's edges.
func writeHolds(pre, post SpecFile, wOff uint64, data []byte) error {
	end := wOff + uint64(len(data))
	if want := max(pre.Size(), end); post.Size() != want {
		return fmt.Errorf("post size %d, want %d", post.Size(), want)
	}
	cut := min(wOff, pre.Size())
	if !post.Contents.EqualRange(pre.Contents, 0, cut) || !post.Contents.IsZero(cut, wOff) ||
		!post.Contents.EqualBytes(wOff, data) ||
		// A tail implies the write ended inside the old contents, so the
		// sizes are equal.
		end < post.Size() && !post.Contents.EqualRange(pre.Contents, end, post.Size()) {
		return fmt.Errorf("post contents are not pre's with the %d bytes at %d", len(data), wOff)
	}
	return nil
}

// Advance returns the state op leads to from s, for a model that
// replays ops rather than observing them: Step's cursor, and for a write
// the contents of *model with Data written at Step's position. *model is
// a PageFile over s's contents, made by the first write that needs one;
// from then on the caller hands back the states Advance returned, and
// their pages may show later writes in place (see PageFile.Peek).
func (s SpecFile) Advance(op StepOp, model **PageFile) (SpecFile, error) {
	_, at, next, err := s.Step(op)
	if err != nil {
		return s, err
	}
	s.Offset = next
	if op.Kind == StepWrite {
		if *model == nil {
			*model = FileOf(s.Contents)
		}
		if _, err := (*model).WriteAt(at, op.Data); err != nil {
			return s, err
		}
		s.Contents = (*model).Peek()
	}
	return s, nil
}

// AbstractFDs computes the abstraction of an FDTable: the paper's
// `view()` function from runtime values to the mathematical State. The
// view is an immutable snapshot at zero copy: Contents shares the
// inode's page array, marked shared so the filesystem never writes
// through it again (see PageFile.View).
func AbstractFDs(t *FDTable) SpecState {
	out := SpecState{Files: make(map[FD]SpecFile, len(t.open))}
	for fd, of := range t.open {
		contents, _ := t.fs.Contents(of.Ino)
		out.Files[fd] = SpecFile{Contents: contents, Offset: of.Offset, Locked: of.Locked,
			Append: of.Flags&OAppend != 0, Ino: of.Ino}
	}
	return out
}
