package ulib

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/sys"
)

// Allocation constants.
const (
	// heapAlign is the alignment and the granule of every block.
	heapAlign = 16
	// slabSize is how much the allocator mmaps at a time; a larger
	// request gets a slab of its own, rounded up to whole pages.
	slabSize = 16 * mmu.L1PageSize
	// maxAlloc is the largest request MMap could ever satisfy: the whole
	// user address window. It is page-aligned, so rounding a request that
	// passes the check cannot wrap.
	maxAlloc = uint64(sys.UserVATop - sys.UserVABase)
)

// heap is the block manager of one mmap'd slab (NrOS ships the allocator
// in its user runtime, §4.1): address-ordered first fit, split on
// allocate, coalesce with both neighbours on free.
//
// The boundary tags are library-side: one record per block, in address
// order, tiling the slab exactly. A libc keeps them in band, in the
// words around each payload; here a word of process memory costs a
// MemRead/MemWrite round trip through the kernel, and first fit, free
// and check would pay it for every block they visit. Payload bytes are
// process memory and nothing else.
type heap struct {
	base   mmu.VAddr
	size   uint64
	blocks []blk

	live      int    // used blocks
	liveBytes uint64 // their sizes
}

// blk is one block's boundary tag.
type blk struct {
	va   mmu.VAddr
	size uint64
	used bool
}

// newHeap manages [base, base+size) as one free block; both are
// multiples of heapAlign.
func newHeap(base mmu.VAddr, size uint64) *heap {
	return &heap{base: base, size: size, blocks: []blk{{va: base, size: size}}}
}

func (h *heap) end() mmu.VAddr { return h.base + mmu.VAddr(h.size) }

// alloc carves n bytes (rounded up to heapAlign) from the lowest free
// block that fits, leaving the remainder free.
func (h *heap) alloc(n uint64) (mmu.VAddr, bool) {
	if n == 0 || n > h.size {
		return 0, false
	}
	need := (n + heapAlign - 1) &^ (heapAlign - 1)
	for i, b := range h.blocks {
		if b.used || b.size < need {
			continue
		}
		if rest := b.size - need; rest > 0 {
			h.blocks = slices.Insert(h.blocks, i+1, blk{va: b.va + mmu.VAddr(need), size: rest})
		}
		h.blocks[i] = blk{va: b.va, size: need, used: true}
		h.live++
		h.liveBytes += need
		return b.va, true
	}
	return 0, false
}

// free releases the block alloc returned at va, merging it with a free
// successor and a free predecessor.
func (h *heap) free(va mmu.VAddr) error {
	i, found := slices.BinarySearchFunc(h.blocks, va, func(b blk, va mmu.VAddr) int { return cmp.Compare(b.va, va) })
	if !found || !h.blocks[i].used {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(va))
	}
	h.blocks[i].used = false
	h.live--
	h.liveBytes -= h.blocks[i].size
	if i+1 < len(h.blocks) && !h.blocks[i+1].used {
		h.blocks[i].size += h.blocks[i+1].size
		h.blocks = slices.Delete(h.blocks, i+1, i+2)
	}
	if i > 0 && !h.blocks[i-1].used {
		h.blocks[i-1].size += h.blocks[i].size
		h.blocks = slices.Delete(h.blocks, i, i+1)
	}
	return nil
}

// check walks the slab: blocks are aligned and tile it exactly, no two
// neighbours are both free (full coalescing), and the occupancy
// counters match. It returns the number of free blocks.
func (h *heap) check() (free int, err error) {
	at, live, liveBytes, prevFree := h.base, 0, uint64(0), false
	for _, b := range h.blocks {
		switch {
		case b.va != at:
			return 0, fmt.Errorf("ulib: heap: block at %#x, want %#x (gap or overlap)", uint64(b.va), uint64(at))
		case b.size == 0 || b.size%heapAlign != 0 || b.size > uint64(h.end()-at):
			return 0, fmt.Errorf("ulib: heap: block %#x has size %d", uint64(b.va), b.size)
		case !b.used && prevFree:
			return 0, fmt.Errorf("ulib: heap: adjacent free blocks at %#x", uint64(b.va))
		}
		if b.used {
			live++
			liveBytes += b.size
		} else {
			free++
		}
		prevFree = !b.used
		at += mmu.VAddr(b.size)
	}
	if at != h.end() {
		return 0, fmt.Errorf("ulib: heap: blocks tile %d of %d bytes", uint64(at-h.base), h.size)
	}
	if live != h.live || liveBytes != h.liveBytes {
		return 0, fmt.Errorf("ulib: heap: counted %d live blocks (%d bytes), recorded %d (%d)", live, liveBytes, h.live, h.liveBytes)
	}
	return free, nil
}

// Malloc returns n bytes of process memory, 16-byte aligned: the lowest
// fitting free block of the lowest slab that has one, else a fresh slab
// from mmap. A request no mapping could hold is refused before anything
// changes.
func (rt *Runtime) Malloc(n uint64) (mmu.VAddr, error) {
	if n == 0 {
		n = 1
	}
	if n > maxAlloc {
		return 0, fmt.Errorf("%w: %d bytes requested", ErrNoMem, n)
	}
	for _, h := range rt.slabs {
		if va, ok := h.alloc(n); ok {
			return va, nil
		}
	}
	want := uint64(slabSize)
	if n > want {
		want = (n + mmu.L1PageSize - 1) &^ (mmu.L1PageSize - 1)
	}
	base, e := rt.S.MMap(want)
	if e != sys.EOK {
		return 0, fmt.Errorf("%w: mmap of %d bytes: %v", ErrNoMem, want, e)
	}
	h := newHeap(base, want)
	i := sort.Search(len(rt.slabs), func(i int) bool { return rt.slabs[i].base > base })
	rt.slabs = slices.Insert(rt.slabs, i, h)
	va, _ := h.alloc(n)
	return va, nil
}

// Free releases a Malloc'd block for reuse (slabs are returned to the
// kernel only at process exit, as in most libc allocators). A pointer
// Malloc did not return, or one already freed, is rejected.
func (rt *Runtime) Free(va mmu.VAddr) error {
	i := sort.Search(len(rt.slabs), func(i int) bool { return rt.slabs[i].end() > va })
	if i == len(rt.slabs) || va < rt.slabs[i].base {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(va))
	}
	return rt.slabs[i].free(va)
}

// Calloc is Malloc plus explicit zeroing through the memory model (mmap
// frames arrive zeroed, but reused blocks do not).
func (rt *Runtime) Calloc(n uint64) (mmu.VAddr, error) {
	va, err := rt.Malloc(n)
	if err != nil {
		return 0, err
	}
	if err := rt.Memset(va, 0, n); err != nil {
		return 0, err
	}
	return va, nil
}

// HeapStats is what CheckHeap counted.
type HeapStats struct {
	Slabs, Live, Free int
}

// CheckHeap checks every slab's block invariant and reports occupancy.
func (rt *Runtime) CheckHeap() (HeapStats, error) {
	st := HeapStats{Slabs: len(rt.slabs)}
	for _, h := range rt.slabs {
		free, err := h.check()
		if err != nil {
			return st, err
		}
		st.Live += h.live
		st.Free += free
	}
	return st, nil
}
