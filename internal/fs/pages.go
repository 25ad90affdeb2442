package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/marshal"
)

// This file is the one representation of file contents: an array of
// 4 KiB pages plus a size. PageFile is the mutable form an inode (and
// the ring's replay model) holds; Pages is the immutable value a §3
// view hands out. The two share pages copy-on-write:
//
//   - A page held by a Pages value denotes immutable bytes for as long
//     as any view holds it.
//   - Only the PageFile that allocated or cloned a page since its last
//     view may write it, and only under the exclusion its owner provides
//     (the replica write lock for an inode).
//   - Nobody frees a page: the collector retires it when the last
//     page array referencing it is dropped.
//
// A page is the []byte of what has been written of it, up to its highest
// written byte: whatever a page covers past its length reads as zero and
// costs nothing — so a 100-byte file costs 100 bytes — and a nil page, a
// hole, is the case where nothing was written at all.

// PageSize is the unit file contents are shared and cloned in.
const PageSize = mem.PageSize

// MaxFileSize bounds a file's size. Offsets and lengths arrive in
// syscall frames, so a write or truncate past it is refused with
// ErrFileTooBig before anything is sized from the caller's word. It is
// the longest byte field the image format holds, so a file that can be
// written can be saved.
const MaxFileSize = marshal.MaxBytes

// ErrFileTooBig reports a write or truncate past MaxFileSize.
var ErrFileTooBig = errors.New("fs: file too large")

// zeroPage is what the unwritten rest of a page is compared against.
var zeroPage [PageSize]byte

// pagesFor is the number of pages a file of the given size has.
func pagesFor(size uint64) int { return int((size + PageSize - 1) / PageSize) }

// spanAt returns the page holding offset at and the byte range [a, b)
// of that page which [at, end) covers. at < end.
func spanAt(at, end uint64) (i, a, b int) {
	i, a, b = int(at/PageSize), int(at%PageSize), PageSize
	if rem := end - at; rem < uint64(b-a) {
		b = a + int(rem)
	}
	return i, a, b
}

// stored returns the bytes page pg holds of its range [a, b); what the
// range has past them is zero.
func stored(pg []byte, a, b int) []byte { return pg[min(a, len(pg)):min(b, len(pg))] }

// isZero reports whether b, at most a page, is all zero.
func isZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// equalStored reports whether x and y, each the stored part of the same
// range, denote the same bytes once both are extended with zeroes.
func equalStored(x, y []byte) bool {
	if len(x) > len(y) {
		x, y = y, x
	}
	return bytes.Equal(x, y[:len(x)]) && isZero(y[len(x):])
}

// samePage reports whether x and y are one page — the same memory, so
// the same bytes without reading them.
func samePage(x, y []byte) bool { return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0]) }

// Pages is an immutable sequence of bytes held as pages: what a view of
// a file's contents is. The zero value is the empty sequence. Two values
// that hold the same page at an index hold the same bytes there, which
// is what makes comparing a pre and a post view cheap; differing pages
// say nothing, and every comparison below falls back to bytes.
type Pages struct {
	pages [][]byte // len == pagesFor(size); nothing is stored past size
	size  uint64
}

// PagesOf returns b's bytes as a page sequence (a copy).
func PagesOf(b []byte) Pages {
	var f PageFile
	f.adopt(append([]byte(nil), b...))
	return f.Peek()
}

// Len returns the number of bytes.
func (c Pages) Len() uint64 { return c.size }

// Bytes returns a flat copy of the sequence.
func (c Pages) Bytes() []byte {
	b := make([]byte, c.size)
	c.ReadAt(b, 0)
	return b
}

// At returns byte i, which must be below Len.
func (c Pages) At(i uint64) byte {
	if pg, j := c.pages[i/PageSize], int(i%PageSize); j < len(pg) {
		return pg[j]
	}
	return 0
}

// ReadAt copies bytes from off into p, returning the count: 0 at or
// past Len, short when the sequence ends inside p.
func (c Pages) ReadAt(p []byte, off uint64) int {
	if off >= c.size {
		return 0
	}
	if rem := c.size - off; uint64(len(p)) > rem {
		p = p[:rem]
	}
	for at, end := off, off+uint64(len(p)); at < end; {
		i, a, b := spanAt(at, end)
		dst := p[at-off:][:b-a]
		clear(dst[copy(dst, stored(c.pages[i], a, b)):])
		at += uint64(b - a)
	}
	return len(p)
}

// EqualRange reports whether c and d hold the same bytes in [lo, hi),
// which must lie within both. A page both hold is equal without being
// read.
func (c Pages) EqualRange(d Pages, lo, hi uint64) bool {
	for at := lo; at < hi; {
		i, a, b := spanAt(at, hi)
		if x, y := c.pages[i], d.pages[i]; !samePage(x, y) && !equalStored(stored(x, a, b), stored(y, a, b)) {
			return false
		}
		at += uint64(b - a)
	}
	return true
}

// Equal reports whether c and d are the same byte sequence.
func (c Pages) Equal(d Pages) bool { return c.size == d.size && c.EqualRange(d, 0, c.size) }

// Same reports whether c and d are one snapshot: one page array, one
// size. A file replaces the array a view holds before its next mutation,
// so two views of a file are the same exactly when nothing mutated it in
// between.
func (c Pages) Same(d Pages) bool {
	return c.size == d.size && len(c.pages) == len(d.pages) && (len(c.pages) == 0 || &c.pages[0] == &d.pages[0])
}

// EqualBytes reports whether c holds b at off; off+len(b) must lie
// within c.
func (c Pages) EqualBytes(off uint64, b []byte) bool {
	for at, end := off, off+uint64(len(b)); at < end; {
		i, lo, hi := spanAt(at, end)
		if !equalStored(stored(c.pages[i], lo, hi), b[at-off:][:hi-lo]) {
			return false
		}
		at += uint64(hi - lo)
	}
	return true
}

// IsZero reports whether every byte in [lo, hi) is zero; the range must
// lie within c.
func (c Pages) IsZero(lo, hi uint64) bool {
	for at := lo; at < hi; {
		i, a, b := spanAt(at, hi)
		if !isZero(stored(c.pages[i], a, b)) {
			return false
		}
		at += uint64(b - a)
	}
	return true
}

// PageFile is a file's contents: pages, a size, and the copy-on-write
// bookkeeping against the views taken of it. The zero value is an empty
// file. It is a sequential structure: View may run from several readers
// at once under a shared lock, everything else needs exclusion.
type PageFile struct {
	// len(pages) == pagesFor(size) and nothing is stored past size. A
	// page's spare capacity, where it has any, is zero and this file's
	// alone, so a private page grows into it in place.
	pages [][]byte
	size  uint64

	// shared is set once the page array has been handed out by View:
	// from then on the array and every page in it are immutable. Views
	// are taken under the replica read lock, possibly by several readers
	// at once, hence atomic — and setting it is all a view does. Only a
	// mutator clears it, when own installs an array no view aliases.
	shared atomic.Bool

	// viewed is the array own last replaced — the one every view since
	// the mutation before that may hold. A page is private to this file,
	// writable in place, exactly when it is not the memory viewed holds
	// at its index: it was allocated or cloned after the array was copied,
	// and no view has been taken since (or shared would be set again).
	// Neither field is file state: Equal, SaveStamped and the journal
	// never see them.
	viewed [][]byte
}

// Cloned is what a mutation had to copy because a view held it.
type Cloned struct{ Pages, Bytes int }

// FileOf returns a file whose contents start as c, in O(1): it shares
// every page of c and clones the ones it comes to write.
func FileOf(c Pages) *PageFile {
	f := &PageFile{pages: c.pages, size: c.size}
	f.shared.Store(true)
	return f
}

// adopt makes b's bytes the contents of f, an empty file, slicing the
// pages out of b rather than copying them; the caller gives b up.
func (f *PageFile) adopt(b []byte) {
	f.pages, f.size = make([][]byte, pagesFor(uint64(len(b)))), uint64(len(b))
	for i := range f.pages {
		lo, hi := i*PageSize, min((i+1)*PageSize, len(b))
		f.pages[i] = b[lo:hi:hi] // no spare capacity: it is the next page's bytes
	}
}

// Size returns the file's size in bytes.
func (f *PageFile) Size() uint64 { return f.size }

// View returns the contents as an immutable snapshot at zero copy: the
// page array itself, marked shared so no later mutation writes the
// array or a page in it.
func (f *PageFile) View() Pages {
	if len(f.pages) > 0 && !f.shared.Load() {
		f.shared.Store(true)
	}
	return Pages{pages: f.pages, size: f.size}
}

// Peek returns the current contents without freezing them: a later
// WriteAt or Truncate on this file may show through the result (its Len
// stays). For whoever holds the file exclusively and is done with the
// value before letting go — Equal, SaveStamped, a read, the ring's
// replay model — never for a value that outlives that exclusion.
func (f *PageFile) Peek() Pages { return Pages{pages: f.pages, size: f.size} }

// own makes the page array private to the file — cloning it if a view
// holds it — and at least n slots long.
func (f *PageFile) own(n int) {
	if f.shared.Load() {
		f.viewed = f.pages
		f.pages = append(make([][]byte, 0, max(n, len(f.pages))), f.pages...)
		f.shared.Store(false)
	}
	if n > len(f.pages) {
		f.pages = append(f.pages, make([][]byte, n-len(f.pages))...)
	}
}

// held reports whether a view may hold the memory of page i.
func (f *PageFile) held(i int) bool {
	if i >= len(f.viewed) || len(f.pages[i]) == 0 || len(f.viewed[i]) == 0 {
		return false
	}
	return &f.pages[i][0] == &f.viewed[i][0]
}

// WriteAt writes p at off, growing the file to off+len(p) if that is
// past its size; a gap beyond the old size stays unwritten. It returns
// what it had to clone because a view held it. An empty p changes
// nothing.
func (f *PageFile) WriteAt(off uint64, p []byte) (cloned Cloned, err error) {
	if len(p) == 0 {
		return cloned, nil
	}
	end := off + uint64(len(p))
	if end < off || end > MaxFileSize {
		return cloned, fmt.Errorf("%w: write of %d bytes at %d", ErrFileTooBig, len(p), off)
	}
	first, last := int(off/PageSize), int((end-1)/PageSize)
	f.own(last + 1)
	// The holes this write lands in are filled from one allocation, so a
	// whole-file write costs one slab however many pages it spans.
	need := 0
	for _, pg := range f.pages[first : last+1] {
		if pg == nil {
			need += PageSize
		}
	}
	if f.pages[last] == nil {
		need -= PageSize - 1 - int((end-1)%PageSize) // the last one only up to end
	}
	slab := make([]byte, need)
	for at := off; at < end; {
		i, a, b := spanAt(at, end)
		pg := f.pages[i]
		switch held := f.held(i); {
		case pg == nil:
			pg, slab = slab[:b:b], slab[b:]
		case !held && b <= cap(pg):
			pg = pg[:max(b, len(pg))] // in place, into zeroed spare capacity if longer
		default:
			// Reallocate: a view may hold the page, or it must grow past
			// its capacity (amortized as append would).
			n, room := max(b, len(pg)), 0
			if n > len(pg) {
				room = min(PageSize, 2*len(pg))
			}
			c := make([]byte, n, max(n, room))
			copy(c, pg)
			if held {
				cloned.Pages++
				cloned.Bytes += len(pg)
			}
			pg = c
		}
		f.pages[i] = pg
		copy(pg[a:b], p[at-off:])
		at += uint64(b - a)
	}
	f.size = max(f.size, end)
	return cloned, nil
}

// Truncate sets the size, discarding or zero-extending. It allocates
// nothing but the page array: a shrink to mid-page reslices the last
// page, whoever holds it, and growth is unwritten pages.
func (f *PageFile) Truncate(size uint64) error {
	if size > MaxFileSize {
		return fmt.Errorf("%w: truncate to %d", ErrFileTooBig, size)
	}
	n := pagesFor(size)
	switch {
	case size < f.size:
		// A view keeps its own longer header over the same array, so a
		// shared array is only resliced (shared stays set and a later
		// growth clones it); a private one also drops the pages.
		if !f.shared.Load() {
			clear(f.pages[n:])
		}
		f.pages = f.pages[:n]
		// Nothing may stay stored past size, or a later growth would
		// expose it. The capacity goes too: the cut bytes are stale, and
		// a view may still hold them.
		if tail := int(size % PageSize); tail != 0 && len(f.pages[n-1]) > tail {
			f.own(n)
			f.pages[n-1] = f.pages[n-1][:tail:tail]
		}
	case size > f.size:
		f.own(n)
	}
	f.size = size
	return nil
}
