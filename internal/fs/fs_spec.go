package fs

import (
	"fmt"
	"maps"
)

// This file is the §3 client-application contract for the file system,
// centered on the paper's read_spec example, transcribed from the
// paper's Verus into executable Go:
//
//	spec fn read_spec(pre: State, post: State, fd: usize,
//	                  buffer: Seq<u8>, read_len: usize)
//	{ pre.files[fd].locked
//	  && read_len == min(buffer.len(), pre.files[fd].size - pre.files[fd].offset)
//	  && buffer[0 .. read_len] == pre.files[fd].contents[
//	         pre.files[fd].offset .. (pre.files[fd].offset + read_len)]
//	  && post.files[fd].offset == pre.files[fd].offset + read_len }
//
// SpecState is the abstract "State" — the per-descriptor view a client
// application reasons about — and ReadSpec/WriteSpec/SeekSpec are the
// transition relations. AbstractFDs computes the abstraction of a real
// FDTable, and the obligations check every implementation step against
// the relation, exactly as the `ensures` clause of the paper's read
// wrapper demands.

// SpecFile is the abstract view of one descriptor. Ino identifies the
// underlying file so checkers can tell when two descriptors alias the
// same contents; the transition relations themselves never inspect it.
// Append mirrors the descriptor's OAppend flag: write_spec resolves the
// effective write offset at EOF for such descriptors, exactly as the
// implementation does.
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

// CloneSpec copies the state; contents are immutable values and are
// shared.
func (s SpecState) CloneSpec() SpecState { return SpecState{Files: maps.Clone(s.Files)} }

// ReadSpec is the paper's read_spec: it relates pre and post states for
// a read of readLen bytes into a buffer of the given length, returning
// nil when the transition is allowed.
func ReadSpec(pre, post SpecState, fd FD, bufferLen uint64, gotBuffer []byte, readLen uint64) error {
	pf, ok := pre.Files[fd]
	if !ok {
		return fmt.Errorf("read_spec: fd %d not open in pre", fd)
	}
	if !pf.Locked {
		return fmt.Errorf("read_spec: pre.files[%d].locked is false", fd)
	}
	want := pf.Size() - pf.Offset
	if pf.Offset >= pf.Size() {
		want = 0
	}
	if bufferLen < want {
		want = bufferLen
	}
	if readLen != want {
		return fmt.Errorf("read_spec: read_len %d != min(buffer.len=%d, size-offset=%d)",
			readLen, bufferLen, pf.Size()-min64(pf.Offset, pf.Size()))
	}
	// Fast path: the whole-segment comparison is the relation; the byte
	// loop only runs on mismatch to name the offending index.
	// readLen > 0 implies offset+readLen <= size, so the slice is in
	// bounds (readLen == 0 can coincide with an offset beyond EOF).
	if readLen > 0 && !pf.Contents.EqualBytes(pf.Offset, gotBuffer[:readLen]) {
		for i := uint64(0); i < readLen; i++ {
			if gotBuffer[i] != pf.Contents.At(pf.Offset+i) {
				return fmt.Errorf("read_spec: buffer[%d] = %#x != contents[%d] = %#x",
					i, gotBuffer[i], pf.Offset+i, pf.Contents.At(pf.Offset+i))
			}
		}
	}
	qf, ok := post.Files[fd]
	if !ok {
		return fmt.Errorf("read_spec: fd %d not open in post", fd)
	}
	if qf.Offset != pf.Offset+readLen {
		return fmt.Errorf("read_spec: post offset %d != pre offset %d + read_len %d",
			qf.Offset, pf.Offset, readLen)
	}
	return nil
}

// WriteSpec relates pre and post for a write: the written bytes appear
// in contents at the effective offset — the pre offset, or EOF when the
// descriptor carries OAppend (zero-filling any gap) — the offset
// advances to the end of the written segment, everything else is
// unchanged. A zero-length write changes nothing at all.
func WriteSpec(pre, post SpecState, fd FD, data []byte, wrote uint64) error {
	pf, ok := pre.Files[fd]
	if !ok {
		return fmt.Errorf("write_spec: fd %d not open in pre", fd)
	}
	if !pf.Locked {
		return fmt.Errorf("write_spec: pre.files[%d].locked is false", fd)
	}
	if wrote != uint64(len(data)) {
		return fmt.Errorf("write_spec: wrote %d != len(data) %d", wrote, len(data))
	}
	qf, ok := post.Files[fd]
	if !ok {
		return fmt.Errorf("write_spec: fd %d not open in post", fd)
	}
	if wrote == 0 {
		// POSIX write(2): a zero-length write has no other results — no
		// growth to an offset past EOF, no append repositioning.
		if qf.Offset != pf.Offset {
			return fmt.Errorf("write_spec: zero-length write moved offset %d to %d", pf.Offset, qf.Offset)
		}
		if !qf.Contents.Equal(pf.Contents) {
			return fmt.Errorf("write_spec: zero-length write changed contents (size %d -> %d)", pf.Size(), qf.Size())
		}
		return nil
	}
	wOff := pf.Offset
	if pf.Append {
		wOff = pf.Size() // append resolves the write offset at EOF
	}
	wantSize := pf.Size()
	if wOff+wrote > wantSize {
		wantSize = wOff + wrote
	}
	if qf.Size() != wantSize {
		return fmt.Errorf("write_spec: post size %d != %d", qf.Size(), wantSize)
	}
	if !writeSpecContentsOK(pf, qf, wOff, data, wrote) {
		// Slow path names the first offending index.
		for i := uint64(0); i < qf.Size(); i++ {
			var want byte
			switch {
			case i >= wOff && i < wOff+wrote:
				want = data[i-wOff]
			case i < pf.Size():
				want = pf.Contents.At(i)
			default:
				want = 0 // gap beyond old EOF zero-fills
			}
			if got := qf.Contents.At(i); got != want {
				return fmt.Errorf("write_spec: post contents[%d] = %#x, want %#x", i, got, want)
			}
		}
	}
	if qf.Offset != wOff+wrote {
		return fmt.Errorf("write_spec: post offset %d != %d", qf.Offset, wOff+wrote)
	}
	return nil
}

// writeSpecContentsOK is the segment form of WriteSpec's contents
// clause: prefix preserved, any gap beyond old EOF zero-filled, the
// written data at the effective offset wOff, suffix preserved. The two
// frame segments are compared page by page: a page both states hold by
// the same pointer is unchanged without being read, and a differing
// pointer is not a violation — it falls back to the bytes, as do the
// partial pages at the window's edges. The caller has already
// established wrote == len(data) and post size == the expected size, so
// every range below is in bounds.
func writeSpecContentsOK(pf, qf SpecFile, wOff uint64, data []byte, wrote uint64) bool {
	cut := min64(wOff, pf.Size())
	end := wOff + wrote
	return qf.Contents.EqualRange(pf.Contents, 0, cut) &&
		qf.Contents.IsZero(cut, wOff) && // gap beyond old EOF
		qf.Contents.EqualBytes(wOff, data) &&
		// A tail implies the write ended inside the old contents, so
		// qf.Size() == pf.Size() here.
		(end >= qf.Size() || qf.Contents.EqualRange(pf.Contents, end, qf.Size()))
}

// SeekSpec relates pre and post for a seek.
func SeekSpec(pre, post SpecState, fd FD, off int64, whence int, result uint64) error {
	pf, ok := pre.Files[fd]
	if !ok {
		return fmt.Errorf("seek_spec: fd %d not open", fd)
	}
	var base uint64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = pf.Offset
	case SeekEnd:
		base = pf.Size()
	default:
		return fmt.Errorf("seek_spec: bad whence %d", whence)
	}
	want := int64(base) + off
	if want < 0 {
		return fmt.Errorf("seek_spec: negative target accepted")
	}
	if result != uint64(want) {
		return fmt.Errorf("seek_spec: result %d != %d", result, want)
	}
	if qf := post.Files[fd]; qf.Offset != uint64(want) {
		return fmt.Errorf("seek_spec: post offset %d != %d", qf.Offset, want)
	}
	return nil
}

// AbstractFDs computes the abstraction of an FDTable: the paper's
// `view()` function from runtime values to the mathematical State. The
// view is an immutable snapshot at zero copy: Contents shares the
// inode's page array, marked shared so the filesystem never writes
// through it again (see PageFile.View).
func AbstractFDs(t *FDTable) SpecState {
	out := SpecState{Files: make(map[FD]SpecFile, len(t.open))}
	for fd, of := range t.open {
		out.Files[fd] = t.abstract(of)
	}
	return out
}

// AbstractFD is view() restricted to one descriptor — what a single
// read/write/seek transition can observe or change — or ok=false if fd
// is not open.
func AbstractFD(t *FDTable, fd FD) (SpecFile, bool) {
	of := t.open[fd]
	if of == nil {
		return SpecFile{}, false
	}
	return t.abstract(of), true
}

func (t *FDTable) abstract(of *OpenFile) SpecFile {
	var contents Pages
	if n := t.fs.inodes[of.Ino]; n != nil {
		contents = n.file.View()
	}
	return SpecFile{Contents: contents, Offset: of.Offset, Locked: of.Locked,
		Append: of.Flags&OAppend != 0, Ino: of.Ino}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
