// Package mem models the physical memory of the simulated machine.
//
// It is the lowest layer of the hardware specification from §5 of the
// paper: a sparse array of 4 KiB frames addressed by physical address.
// The page-table implementation (internal/pt) stores real x86-64 page
// table bits in this memory, and the MMU model (internal/hw/mmu) reads
// them back out, exactly as hardware would.
//
// All accesses are bounds- and alignment-checked; a violation is a
// simulated machine-check (returned as an error, never a panic) so that
// verification conditions can probe illegal behaviour.
//
// Memory is locked where a frame lives: a fixed number of stripes, each
// with its own readers-writer lock, frames and counters, so cores that
// touch different frames mostly meet at no lock at all. An access to one
// frame is atomic; a Read or Write spanning frames is atomic per frame.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PAddr is a physical byte address in the simulated machine.
type PAddr uint64

// Architectural constants for the simulated x86-64 machine.
const (
	// PageSize is the base frame size (4 KiB).
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// WordSize is the width of a machine word in bytes.
	WordSize = 8
	// MaxPhysBits is the number of implemented physical address bits
	// (52 on contemporary x86-64 parts).
	MaxPhysBits = 52
	// MaxPAddr is one past the largest representable physical address.
	MaxPAddr PAddr = 1 << MaxPhysBits
)

// FrameBase returns the base address of the frame containing a.
func (a PAddr) FrameBase() PAddr { return a &^ (PageSize - 1) }

// FrameOffset returns the offset of a within its frame.
func (a PAddr) FrameOffset() uint64 { return uint64(a) & (PageSize - 1) }

// IsPageAligned reports whether a is 4 KiB aligned.
func (a PAddr) IsPageAligned() bool { return a&(PageSize-1) == 0 }

// IsWordAligned reports whether a is 8-byte aligned.
func (a PAddr) IsWordAligned() bool { return a&(WordSize-1) == 0 }

func (a PAddr) String() string { return fmt.Sprintf("pa:%#x", uint64(a)) }

// AccessError is the simulated machine-check raised by an illegal
// physical memory access.
type AccessError struct {
	Op     string // "read64", "write64", "cas64", "read", "write", "readframe"
	Addr   PAddr
	Len    int
	Reason string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: illegal %s at %v len=%d: %s", e.Op, e.Addr, e.Len, e.Reason)
}

// PhysMem is the sparse simulated physical memory: maps, one per lock
// stripe, from frame base address to the frame's backing bytes. Frames are materialized lazily on
// first touch and read as zero before that, matching how the simulated
// firmware hands the OS zeroed RAM.
//
// PhysMem is safe for concurrent use. It is locked where a frame lives:
// the frames are spread over Stripes stripes by frame number, and each
// stripe has its own readers-writer lock, frame map and access counters,
// so two cores touching frames of different stripes share no lock and no
// counter. An access to one frame takes one stripe's lock, so it costs a
// lock round trip, a counter and a frame lookup whatever its length, and
// is atomic: Read64, Write64, CompareAndSwap64, ReadFrame and ZeroFrame
// each see or leave the frame whole. A walk pays that per word, four
// words a translation, as hardware does; anything that scans whole page
// tables (the interpretation function, the pt invariant) reads a table at
// a time with ReadFrame — per word, the lock was 42 % of a verifier run.
// A Read or Write that spans frames takes their stripes one frame at a
// time, so it is atomic per frame and not as a whole; every kernel caller
// splits its accesses at frame boundaries anyway.
//
// The zero value is a memory of size 0; use New.
type PhysMem struct {
	stripes [Stripes]stripe
	size    PAddr // one past the last valid address

	// spare holds the cleared backing arrays of frames ZeroFrame retired
	// (at most maxSpare), which frameFor hands to the next frames
	// materialized: a frame that is zeroed and touched again — every
	// page-table frame of an mmap/munmap pair — reuses its array instead
	// of allocating one. spareMu is taken, inside a stripe's write lock,
	// only when a frame is materialized or retired.
	spareMu sync.Mutex
	spare   [][]byte
}

// Stripes is the number of lock stripes of a PhysMem; frame number f
// lives in stripe f mod Stripes.
const Stripes = 16

// stripe is one lock domain of a PhysMem, padded to a cache line of its
// own so that two stripes' locks and counters never share a line.
type stripe struct {
	stripeState
	_ [cacheLine - unsafe.Sizeof(stripeState{})%cacheLine]byte
}

const cacheLine = 64

type stripeState struct {
	mu sync.RWMutex
	// frames maps a frame base to its backing array; nil until the
	// stripe's first frame is materialized, so New allocates no maps.
	frames map[PAddr][]byte

	// reads and writes are monotonically increasing access counters,
	// used by the hardware-spec verification conditions to assert that
	// the MMU model really touched memory the expected number of times.
	// An access counts once, in the stripe of its first frame.
	reads  atomic.Uint64
	writes atomic.Uint64
}

// Stats counts accesses to physical memory.
type Stats struct {
	Reads  uint64
	Writes uint64
}

// maxSpare bounds PhysMem.spare (256 KiB of cleared arrays).
const maxSpare = 64

// New returns a physical memory of the given byte size. The size is
// rounded up to a whole number of frames.
func New(size PAddr) *PhysMem {
	if size > MaxPAddr {
		size = MaxPAddr
	}
	rounded := (size + PageSize - 1) &^ (PageSize - 1)
	return &PhysMem{size: rounded}
}

// Size returns one past the largest valid physical address.
func (m *PhysMem) Size() PAddr { return m.size }

// Stats returns the access counters summed over the stripes.
func (m *PhysMem) Stats() Stats {
	var st Stats
	for i := range m.stripes {
		st.Reads += m.stripes[i].reads.Load()
		st.Writes += m.stripes[i].writes.Load()
	}
	return st
}

// stripeOf returns the stripe of the frame containing addr.
func (m *PhysMem) stripeOf(addr PAddr) *stripe {
	return &m.stripes[(addr>>PageShift)%Stripes]
}

func (m *PhysMem) check(op string, addr PAddr, n int) error {
	if n < 0 {
		return &AccessError{Op: op, Addr: addr, Len: n, Reason: "negative length"}
	}
	end := uint64(addr) + uint64(n)
	if end < uint64(addr) || PAddr(end) > m.size {
		return &AccessError{Op: op, Addr: addr, Len: n, Reason: "out of bounds"}
	}
	return nil
}

// frameFor returns the backing slice for the frame containing addr, which
// lives in s, materializing it if needed. Callers must hold s.mu for
// writing when create is true, and at least for reading otherwise.
func (m *PhysMem) frameFor(s *stripe, addr PAddr, create bool) []byte {
	base := addr.FrameBase()
	f := s.frames[base]
	if f == nil && create {
		m.spareMu.Lock()
		if n := len(m.spare); n > 0 {
			f, m.spare = m.spare[n-1], m.spare[:n-1]
		}
		m.spareMu.Unlock()
		if f == nil {
			f = make([]byte, PageSize)
		}
		if s.frames == nil {
			s.frames = make(map[PAddr][]byte)
		}
		s.frames[base] = f
	}
	return f
}

// Read64 reads the 8-byte little-endian word at addr, which must be
// word-aligned. This is the access the MMU performs during a page walk.
func (m *PhysMem) Read64(addr PAddr) (uint64, error) {
	if !addr.IsWordAligned() {
		return 0, &AccessError{Op: "read64", Addr: addr, Len: 8, Reason: "unaligned"}
	}
	if err := m.check("read64", addr, 8); err != nil {
		return 0, err
	}
	s := m.stripeOf(addr)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.reads.Add(1)
	f := m.frameFor(s, addr, false)
	if f == nil {
		return 0, nil // untouched RAM reads as zero
	}
	off := addr.FrameOffset()
	return binary.LittleEndian.Uint64(f[off : off+8]), nil
}

// FrameWords is the number of machine words in a frame (512): the unit
// ReadFrame reads, and the number of entries in a page table.
const FrameWords = PageSize / WordSize

// ReadFrame reads the 512 little-endian words of the frame at the
// page-aligned address base into out and reports whether the frame was
// ever touched; an untouched frame (or one ZeroFrame reclaimed) fills out
// with zeroes. It is one access: one read in Stats, and one snapshot of
// the frame — no store lands between two of its words. The words are
// copied out under the stripe's lock and not lent, because ZeroFrame
// retires a frame's backing array into spare, where the next frame
// materialized takes it. On error out is left as it was.
func (m *PhysMem) ReadFrame(base PAddr, out *[FrameWords]uint64) (touched bool, err error) {
	if !base.IsPageAligned() {
		return false, &AccessError{Op: "readframe", Addr: base, Len: PageSize, Reason: "unaligned frame"}
	}
	if err := m.check("readframe", base, PageSize); err != nil {
		return false, err
	}
	s := m.stripeOf(base)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.reads.Add(1)
	f := s.frames[base]
	if f == nil {
		*out = [FrameWords]uint64{}
		return false, nil
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(f[i*WordSize:])
	}
	return true, nil
}

// Write64 stores an 8-byte little-endian word at addr, which must be
// word-aligned.
func (m *PhysMem) Write64(addr PAddr, v uint64) error {
	if !addr.IsWordAligned() {
		return &AccessError{Op: "write64", Addr: addr, Len: 8, Reason: "unaligned"}
	}
	if err := m.check("write64", addr, 8); err != nil {
		return err
	}
	s := m.stripeOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes.Add(1)
	f := m.frameFor(s, addr, true)
	off := addr.FrameOffset()
	binary.LittleEndian.PutUint64(f[off:off+8], v)
	return nil
}

// CompareAndSwap64 stores new in the word at addr, which must be
// word-aligned, if and only if the word holds old, and reports whether it
// stored: the locked read-modify-write hardware uses to set accessed and
// dirty bits in an entry the OS may be rewriting. It counts as one write
// when it stores and as one read when it does not.
func (m *PhysMem) CompareAndSwap64(addr PAddr, old, new uint64) (bool, error) {
	if !addr.IsWordAligned() {
		return false, &AccessError{Op: "cas64", Addr: addr, Len: 8, Reason: "unaligned"}
	}
	if err := m.check("cas64", addr, 8); err != nil {
		return false, err
	}
	s := m.stripeOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	off := addr.FrameOffset()
	f := m.frameFor(s, addr, false)
	var cur uint64
	if f != nil {
		cur = binary.LittleEndian.Uint64(f[off : off+8])
	}
	if cur != old {
		s.reads.Add(1)
		return false, nil
	}
	s.writes.Add(1)
	if f == nil {
		f = m.frameFor(s, addr, true)
	}
	binary.LittleEndian.PutUint64(f[off:off+8], new)
	return true, nil
}

// Read copies len(p) bytes starting at addr into p. It is one access in
// Stats. Each frame it spans is read under that frame's stripe lock, so
// the bytes of one frame are one snapshot; two frames may be read either
// side of a store. On error p is left as it was.
func (m *PhysMem) Read(addr PAddr, p []byte) error {
	if err := m.check("read", addr, len(p)); err != nil {
		return err
	}
	m.stripeOf(addr).reads.Add(1)
	for n := 0; n < len(p); {
		a := addr + PAddr(n)
		off := a.FrameOffset()
		chunk := min(PageSize-int(off), len(p)-n)
		s := m.stripeOf(a)
		s.mu.RLock()
		if f := m.frameFor(s, a, false); f == nil {
			clear(p[n : n+chunk])
		} else {
			copy(p[n:n+chunk], f[off:])
		}
		s.mu.RUnlock()
		n += chunk
	}
	return nil
}

// Write copies p into physical memory starting at addr. It is one access
// in Stats, and atomic per frame as Read is.
func (m *PhysMem) Write(addr PAddr, p []byte) error {
	if err := m.check("write", addr, len(p)); err != nil {
		return err
	}
	m.stripeOf(addr).writes.Add(1)
	for n := 0; n < len(p); {
		a := addr + PAddr(n)
		off := a.FrameOffset()
		chunk := min(PageSize-int(off), len(p)-n)
		s := m.stripeOf(a)
		s.mu.Lock()
		copy(m.frameFor(s, a, true)[off:], p[n:n+chunk])
		s.mu.Unlock()
		n += chunk
	}
	return nil
}

// ZeroFrame clears the frame at the page-aligned address base. The
// allocator uses it to hand out clean frames, as required by the
// page-table correctness argument (stale PTE bits in a fresh directory
// frame would be interpreted by the MMU).
func (m *PhysMem) ZeroFrame(base PAddr) error {
	if !base.IsPageAligned() {
		return &AccessError{Op: "write", Addr: base, Len: PageSize, Reason: "unaligned frame"}
	}
	if err := m.check("write", base, PageSize); err != nil {
		return err
	}
	s := m.stripeOf(base)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes.Add(1)
	// Dropping the backing restores the "reads as zero" lazy state; the
	// array is cleared here so a frame that draws it from spare starts
	// zeroed.
	if f := s.frames[base]; f != nil {
		delete(s.frames, base)
		m.spareMu.Lock()
		if len(m.spare) < maxSpare {
			clear(f)
			m.spare = append(m.spare, f)
		}
		m.spareMu.Unlock()
	}
	return nil
}

// TouchedFrames returns the number of frames that have been materialized.
func (m *PhysMem) TouchedFrames() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		n += len(s.frames)
		s.mu.RUnlock()
	}
	return n
}
