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
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
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

// PhysMem is the sparse simulated physical memory: a map from frame base
// address to the frame's backing bytes. Frames are materialized lazily on
// first touch and read as zero before that, matching how the simulated
// firmware hands the OS zeroed RAM.
//
// PhysMem is safe for concurrent use; each access takes a read or write
// lock, so an access costs a lock round trip, a counter and a frame
// lookup whatever its length. A walk pays that per word, four words a
// translation, as hardware does; anything that scans whole page tables
// (the interpretation function, the pt invariant) reads a table at a time
// with ReadFrame — per word, this lock was 42 % of a verifier run.
//
// The zero value is a memory of size 0; use New.
type PhysMem struct {
	mu     sync.RWMutex
	frames map[PAddr][]byte
	size   PAddr // one past the last valid address

	// spare holds the cleared backing arrays of frames ZeroFrame retired
	// (at most maxSpare), which frameFor hands to the next frames
	// materialized: a frame that is zeroed and touched again — every
	// page-table frame of an mmap/munmap pair — reuses its array instead
	// of allocating one.
	spare [][]byte

	// reads and writes are monotonically increasing access counters,
	// used by the hardware-spec verification conditions to assert that
	// the MMU model really touched memory the expected number of times.
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
	return &PhysMem{
		frames: make(map[PAddr][]byte),
		size:   rounded,
	}
}

// Size returns one past the largest valid physical address.
func (m *PhysMem) Size() PAddr { return m.size }

// Stats returns a snapshot of the access counters.
func (m *PhysMem) Stats() Stats {
	return Stats{Reads: m.reads.Load(), Writes: m.writes.Load()}
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

// frameFor returns the backing slice for the frame containing addr,
// materializing it if needed. Callers must hold mu for writing when
// create is true, and at least for reading otherwise.
func (m *PhysMem) frameFor(addr PAddr, create bool) []byte {
	base := addr.FrameBase()
	f := m.frames[base]
	if f == nil && create {
		if n := len(m.spare); n > 0 {
			f, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			f = make([]byte, PageSize)
		}
		m.frames[base] = f
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
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.reads.Add(1)
	f := m.frameFor(addr, false)
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
// copied out under the lock and not lent, because ZeroFrame retires a
// frame's backing array into spare, where the next frame materialized
// takes it. On error out is left as it was.
func (m *PhysMem) ReadFrame(base PAddr, out *[FrameWords]uint64) (touched bool, err error) {
	if !base.IsPageAligned() {
		return false, &AccessError{Op: "readframe", Addr: base, Len: PageSize, Reason: "unaligned frame"}
	}
	if err := m.check("readframe", base, PageSize); err != nil {
		return false, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.reads.Add(1)
	f := m.frames[base]
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
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes.Add(1)
	f := m.frameFor(addr, true)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	off := addr.FrameOffset()
	f := m.frameFor(addr, false)
	var cur uint64
	if f != nil {
		cur = binary.LittleEndian.Uint64(f[off : off+8])
	}
	if cur != old {
		m.reads.Add(1)
		return false, nil
	}
	m.writes.Add(1)
	if f == nil {
		f = m.frameFor(addr, true)
	}
	binary.LittleEndian.PutUint64(f[off:off+8], new)
	return true, nil
}

// Read copies len(p) bytes starting at addr into p. On error p is left
// as it was.
func (m *PhysMem) Read(addr PAddr, p []byte) error {
	if err := m.check("read", addr, len(p)); err != nil {
		return err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.reads.Add(1)
	for n := 0; n < len(p); {
		off := (addr + PAddr(n)).FrameOffset()
		chunk := PageSize - int(off)
		if rem := len(p) - n; chunk > rem {
			chunk = rem
		}
		f := m.frameFor(addr+PAddr(n), false)
		if f == nil {
			for i := 0; i < chunk; i++ {
				p[n+i] = 0
			}
		} else {
			copy(p[n:n+chunk], f[off:off+uint64(chunk)])
		}
		n += chunk
	}
	return nil
}

// Write copies p into physical memory starting at addr.
func (m *PhysMem) Write(addr PAddr, p []byte) error {
	if err := m.check("write", addr, len(p)); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes.Add(1)
	for n := 0; n < len(p); {
		off := (addr + PAddr(n)).FrameOffset()
		chunk := PageSize - int(off)
		if rem := len(p) - n; chunk > rem {
			chunk = rem
		}
		f := m.frameFor(addr+PAddr(n), true)
		copy(f[off:off+uint64(chunk)], p[n:n+chunk])
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
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes.Add(1)
	// Dropping the backing restores the "reads as zero" lazy state; the
	// array is cleared here so a frame that draws it from spare starts
	// zeroed.
	if f := m.frames[base]; f != nil {
		delete(m.frames, base)
		if len(m.spare) < maxSpare {
			clear(f)
			m.spare = append(m.spare, f)
		}
	}
	return nil
}

// TouchedFrames returns the number of frames that have been materialized.
func (m *PhysMem) TouchedFrames() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.frames)
}
