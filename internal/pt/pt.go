// Package pt implements the paper's §5 prototype: x86-64 page-table
// management (map, unmap, resolve) over simulated physical memory, in
// two variants.
//
//   - Verified: structured the way the paper's proof is layered — every
//     operation is decomposed into explicit tree-walk steps whose
//     intermediate states satisfy the well-formedness invariant, and the
//     package's *_spec.go / *_refine.go files connect it to the
//     high-level specification (a mathematical map from virtual page to
//     mapping) via the MMU interpretation function.
//   - Unverified: the direct NrOS-style baseline used for the Figure
//     1b/1c performance comparison.
//
// Both produce identical architectural bits; "verified" buys the
// refinement obligations, not different behavior — which is exactly the
// paper's claim that verified code can match unverified performance.
package pt

import (
	"errors"
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
)

// Errors returned by address-space operations.
var (
	// ErrMisaligned reports a virtual address or frame not aligned to
	// the requested page size.
	ErrMisaligned = errors.New("pt: misaligned address")
	// ErrAlreadyMapped reports an overlap with an existing mapping.
	ErrAlreadyMapped = errors.New("pt: virtual range already mapped")
	// ErrNotMapped reports an unmap/protect of an unmapped page.
	ErrNotMapped = errors.New("pt: virtual address not mapped")
	// ErrNonCanonical reports a non-canonical virtual address.
	ErrNonCanonical = errors.New("pt: non-canonical virtual address")
	// ErrBadPageSize reports an unsupported page size.
	ErrBadPageSize = errors.New("pt: unsupported page size")
	// ErrOutOfMemory reports table-frame allocation failure.
	ErrOutOfMemory = errors.New("pt: out of memory for page-table frames")
	// ErrHugeConflict reports an operation that would require splitting
	// a huge page (not supported, as in the NrOS prototype).
	ErrHugeConflict = errors.New("pt: operation conflicts with huge page")
)

// FrameSource provides page-table frames. The kernel gives each replica
// a SimpleFrameSource over its own slice of the table region.
type FrameSource interface {
	// AllocFrame returns a zeroed, page-aligned frame.
	AllocFrame() (mem.PAddr, error)
	// FreeFrame releases a frame previously returned by AllocFrame.
	FreeFrame(mem.PAddr) error
}

// Mapping is the result of a successful Resolve: the paper's high-level
// view of one page-table entry.
type Mapping struct {
	Frame    mem.PAddr
	PageSize uint64
	Flags    mmu.Flags
}

// AddressSpace is the operation surface of the §5 prototype. The same
// interface is implemented by the Verified and Unverified variants so
// the benchmarks can swap them.
type AddressSpace interface {
	// Map establishes va -> frame for a page of the given size. Both va
	// and frame must be size-aligned; size is 4 KiB or 2 MiB.
	Map(va mmu.VAddr, frame mem.PAddr, size uint64, flags mmu.Flags) error
	// Unmap removes the mapping whose page base is va, returning the
	// frame that was mapped.
	Unmap(va mmu.VAddr) (mem.PAddr, error)
	// Resolve returns the mapping covering va, if any.
	Resolve(va mmu.VAddr) (Mapping, bool)
	// Root returns the PML4 frame (the CR3 value for this space).
	Root() mem.PAddr
}

// checkArgs validates the common map preconditions.
func checkArgs(va mmu.VAddr, frame mem.PAddr, size uint64) error {
	switch size {
	case mmu.L1PageSize, mmu.L2PageSize:
	default:
		return fmt.Errorf("%w: %d", ErrBadPageSize, size)
	}
	if !va.IsCanonical() {
		return fmt.Errorf("%w: %v", ErrNonCanonical, va)
	}
	if uint64(va)%size != 0 {
		return fmt.Errorf("%w: va %v for %d-byte page", ErrMisaligned, va, size)
	}
	if uint64(frame)%size != 0 {
		return fmt.Errorf("%w: frame %v for %d-byte page", ErrMisaligned, frame, size)
	}
	return nil
}

// leafLevel returns the tree level at which a page of the given size is
// installed.
func leafLevel(size uint64) int {
	if size == mmu.L2PageSize {
		return 2
	}
	return 1
}

// InvalidateFunc receives the virtual page base of every unmapped (or
// permission-changed) page so the kernel can perform TLB shootdown. The
// stale-TLB hardware-spec test (internal/hw/mmu) shows why this is a
// correctness obligation, not an optimization.
type InvalidateFunc func(va mmu.VAddr)
