// Package mm implements physical and virtual memory management: a buddy
// frame allocator and a virtual address-space region manager. These are
// the "memory management (physical memory, page tables)" components
// from the paper's §1 list. The buddy allocator serves the data frames
// of mmap and the page cache; page tables live in internal/pt and take
// their table frames from a pt.SimpleFrameSource per replica.
package mm

import (
	"errors"
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mem"
)

// MaxOrder is the largest buddy block: 2^MaxOrder frames (128 MiB with
// 4 KiB frames at order 15).
const MaxOrder = 15

// Errors returned by the allocators.
var (
	// ErrNoMemory reports allocation failure.
	ErrNoMemory = errors.New("mm: out of physical memory")
	// ErrBadFree reports freeing a frame that is not allocated or not
	// owned by this allocator.
	ErrBadFree = errors.New("mm: bad free")
	// ErrBadOrder reports an order outside [0, MaxOrder].
	ErrBadOrder = errors.New("mm: bad order")
)

// Buddy is a binary-buddy allocator over the frame range
// [start, start+frames*PageSize). It is not safe for concurrent use;
// the kernel's one data-frame pool holds it under a mutex.
type Buddy struct {
	m     *mem.PhysMem
	start mem.PAddr
	nf    uint64 // total frames

	// free[o] holds the frame indices (relative to start) of free
	// blocks of order o.
	free [MaxOrder + 1][]uint64
	// state tracks each block start index -> allocated order+1 (0 =
	// not an allocated block start). Used to validate frees and to
	// locate buddies.
	alloc map[uint64]uint8
	// freeSet mirrors membership of free lists for O(1) buddy lookup:
	// index -> order+1.
	freeSet map[uint64]uint8

	allocated uint64 // frames currently allocated
}

// NewBuddy creates a buddy allocator over frames frames starting at the
// page-aligned address start. The range is carved greedily into maximal
// aligned blocks.
func NewBuddy(m *mem.PhysMem, start mem.PAddr, frames uint64) (*Buddy, error) {
	if !start.IsPageAligned() {
		return nil, fmt.Errorf("mm: start %v not page aligned", start)
	}
	b := &Buddy{
		m: m, start: start, nf: frames,
		alloc:   make(map[uint64]uint8),
		freeSet: make(map[uint64]uint8),
	}
	idx := uint64(0)
	for idx < frames {
		o := MaxOrder
		for o > 0 && (idx%(1<<o) != 0 || idx+(1<<o) > frames) {
			o--
		}
		b.pushFree(idx, o)
		idx += 1 << o
	}
	return b, nil
}

func (b *Buddy) pushFree(idx uint64, order int) {
	b.free[order] = append(b.free[order], idx)
	b.freeSet[idx] = uint8(order) + 1
}

func (b *Buddy) popFree(order int) (uint64, bool) {
	l := b.free[order]
	if len(l) == 0 {
		return 0, false
	}
	idx := l[len(l)-1]
	b.free[order] = l[:len(l)-1]
	delete(b.freeSet, idx)
	return idx, true
}

// removeFree removes a specific block from its free list (buddy merge).
func (b *Buddy) removeFree(idx uint64, order int) bool {
	if got, ok := b.freeSet[idx]; !ok || int(got)-1 != order {
		return false
	}
	l := b.free[order]
	for i := range l {
		if l[i] == idx {
			l[i] = l[len(l)-1]
			b.free[order] = l[:len(l)-1]
			delete(b.freeSet, idx)
			return true
		}
	}
	return false
}

// AllocOrder allocates a block of 2^order contiguous frames and returns
// its base address. The block is not zeroed (callers that hand frames
// to user memory must zero them; the kernel's mmap path does).
func (b *Buddy) AllocOrder(order int) (mem.PAddr, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("%w: %d", ErrBadOrder, order)
	}
	return b.allocFrom(order)
}

// allocFrom finds the smallest free order >= order, splits down, and
// returns the base.
func (b *Buddy) allocFrom(order int) (mem.PAddr, error) {
	src := -1
	for o := order; o <= MaxOrder; o++ {
		if len(b.free[o]) > 0 {
			src = o
			break
		}
	}
	if src < 0 {
		return 0, fmt.Errorf("%w: order %d", ErrNoMemory, order)
	}
	idx, _ := b.popFree(src)
	// Split down, returning the high halves to the free lists.
	for o := src; o > order; o-- {
		half := idx + (1 << (o - 1))
		b.pushFree(half, o-1)
	}
	b.alloc[idx] = uint8(order) + 1
	b.allocated += 1 << order
	return b.start + mem.PAddr(idx)*mem.PageSize, nil
}

// Free releases a block previously returned by AllocOrder, merging
// buddies greedily.
func (b *Buddy) Free(addr mem.PAddr) error {
	if addr < b.start || !addr.IsPageAligned() {
		return fmt.Errorf("%w: %v", ErrBadFree, addr)
	}
	idx := uint64(addr-b.start) / mem.PageSize
	rec, ok := b.alloc[idx]
	if !ok {
		return fmt.Errorf("%w: %v not an allocated block", ErrBadFree, addr)
	}
	order := int(rec) - 1
	delete(b.alloc, idx)
	b.allocated -= 1 << order

	for order < MaxOrder {
		buddy := idx ^ (1 << order)
		if buddy+(1<<order) > b.nf || !b.removeFree(buddy, order) {
			break
		}
		if buddy < idx {
			idx = buddy
		}
		order++
	}
	b.pushFree(idx, order)
	return nil
}

// Stats reports allocator occupancy.
type Stats struct {
	TotalFrames     uint64
	AllocatedFrames uint64
	FreeBlocks      int
}

// Stats returns current occupancy.
func (b *Buddy) Stats() Stats {
	blocks := 0
	for o := 0; o <= MaxOrder; o++ {
		blocks += len(b.free[o])
	}
	return Stats{TotalFrames: b.nf, AllocatedFrames: b.allocated, FreeBlocks: blocks}
}

// CheckInvariant validates the allocator's structural invariants:
// free/allocated blocks are disjoint, aligned to their order, in range,
// and together cover exactly the managed range; and no two free buddies
// of the same order coexist unmerged... the last is a liveness property
// of Free and is checked opportunistically.
func (b *Buddy) CheckInvariant() error {
	covered := make(map[uint64]bool, b.nf)
	mark := func(idx uint64, order int, kind string) error {
		if idx%(1<<order) != 0 {
			return fmt.Errorf("mm: %s block %d misaligned for order %d", kind, idx, order)
		}
		if idx+(1<<order) > b.nf {
			return fmt.Errorf("mm: %s block %d order %d out of range", kind, idx, order)
		}
		for i := idx; i < idx+(1<<order); i++ {
			if covered[i] {
				return fmt.Errorf("mm: frame %d covered twice", i)
			}
			covered[i] = true
		}
		return nil
	}
	for o := 0; o <= MaxOrder; o++ {
		for _, idx := range b.free[o] {
			if err := mark(idx, o, "free"); err != nil {
				return err
			}
			if got, ok := b.freeSet[idx]; !ok || int(got)-1 != o {
				return fmt.Errorf("mm: freeSet out of sync at %d", idx)
			}
		}
	}
	for idx, rec := range b.alloc {
		if err := mark(idx, int(rec)-1, "allocated"); err != nil {
			return err
		}
	}
	if uint64(len(covered)) != b.nf {
		return fmt.Errorf("mm: coverage %d != %d frames", len(covered), b.nf)
	}
	return nil
}
