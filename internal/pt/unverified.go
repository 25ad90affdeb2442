package pt

import (
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
)

// Unverified is the baseline page-table implementation, written the way
// the original (unverified) NrOS code is: a single recursive descent per
// operation with inline bookkeeping, no proof-oriented phase structure
// and no ghost state beyond what freeing empty directories requires.
//
// It is semantically equivalent to Verified — the equivalence VC in
// pt_obligations.go checks both against the same randomized traces — and
// exists as the comparison subject for Figures 1b and 1c.
type Unverified struct {
	m      *mem.PhysMem
	frames FrameSource
	root   mem.PAddr
	inval  InvalidateFunc
	live   map[mem.PAddr]int // directory frame -> present entries
	mapped int
}

// NewUnverified creates an empty baseline address space.
func NewUnverified(m *mem.PhysMem, frames FrameSource, inval InvalidateFunc) (*Unverified, error) {
	root, err := frames.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("%w: root: %v", ErrOutOfMemory, err)
	}
	if inval == nil {
		inval = func(mmu.VAddr) {}
	}
	return &Unverified{m: m, frames: frames, root: root, inval: inval, live: make(map[mem.PAddr]int)}, nil
}

// Root returns the PML4 frame.
func (u *Unverified) Root() mem.PAddr { return u.root }

// Mem exposes the backing physical memory.
func (u *Unverified) Mem() *mem.PhysMem { return u.m }

// MappedPages returns the number of live leaf mappings.
func (u *Unverified) MappedPages() int { return u.mapped }

// Map implements AddressSpace.
func (u *Unverified) Map(va mmu.VAddr, frame mem.PAddr, size uint64, flags mmu.Flags) error {
	if err := checkArgs(va, frame, size); err != nil {
		return err
	}
	target := leafLevel(size)
	table := u.root
	for level := mmu.Levels; level > target; level-- {
		slot := mmu.EntryAddr(table, va, level)
		raw, err := u.m.Read64(slot)
		if err != nil {
			return err
		}
		e := mmu.Entry{Raw: raw, Level: level}
		if e.Present() && e.IsLeaf() {
			return fmt.Errorf("%w: huge page at level %d covers %v", ErrHugeConflict, level, va)
		}
		if !e.Present() {
			sub, err := u.frames.AllocFrame()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrOutOfMemory, err)
			}
			if err := u.m.Write64(slot, mmu.MakeTable(level, sub).Raw); err != nil {
				return err
			}
			u.live[table]++
			table = sub
			continue
		}
		table = e.Addr()
	}
	slot := mmu.EntryAddr(table, va, target)
	raw, err := u.m.Read64(slot)
	if err != nil {
		return err
	}
	if (mmu.Entry{Raw: raw, Level: target}).Present() {
		return fmt.Errorf("%w: %v", ErrAlreadyMapped, va)
	}
	if err := u.m.Write64(slot, mmu.MakeLeaf(target, frame, flags).Raw); err != nil {
		return err
	}
	u.live[table]++
	u.mapped++
	return nil
}

// Unmap implements AddressSpace.
func (u *Unverified) Unmap(va mmu.VAddr) (mem.PAddr, error) {
	if !va.IsCanonical() {
		return 0, fmt.Errorf("%w: %v", ErrNonCanonical, va)
	}
	var path [mmu.Levels]pathStep
	depth := 0
	table := u.root
	for level := mmu.Levels; level >= 1; level-- {
		path[depth] = pathStep{table, level}
		depth++
		slot := mmu.EntryAddr(table, va, level)
		raw, err := u.m.Read64(slot)
		if err != nil {
			return 0, err
		}
		e := mmu.Entry{Raw: raw, Level: level}
		if !e.Present() {
			return 0, fmt.Errorf("%w: %v", ErrNotMapped, va)
		}
		if e.IsLeaf() {
			if va.PageOffset(mmu.PageSizeAtLevel(level)) != 0 {
				return 0, fmt.Errorf("%w: %v is interior", ErrNotMapped, va)
			}
			if err := u.m.Write64(slot, 0); err != nil {
				return 0, err
			}
			u.live[table]--
			u.mapped--
			u.inval(va)
			// Free empty directories bottom-up.
			for i := depth - 1; i >= 1; i-- {
				if u.live[path[i].table] > 0 {
					break
				}
				parent := path[i-1]
				if err := u.m.Write64(mmu.EntryAddr(parent.table, va, parent.level), 0); err != nil {
					return 0, err
				}
				u.live[parent.table]--
				delete(u.live, path[i].table)
				if err := u.frames.FreeFrame(path[i].table); err != nil {
					return 0, err
				}
			}
			return e.Addr(), nil
		}
		table = e.Addr()
	}
	return 0, fmt.Errorf("%w: %v", ErrNotMapped, va)
}

// Resolve implements AddressSpace.
func (u *Unverified) Resolve(va mmu.VAddr) (Mapping, bool) {
	if !va.IsCanonical() {
		return Mapping{}, false
	}
	table := u.root
	for level := mmu.Levels; level >= 1; level-- {
		raw, err := u.m.Read64(mmu.EntryAddr(table, va, level))
		if err != nil {
			return Mapping{}, false
		}
		e := mmu.Entry{Raw: raw, Level: level}
		if !e.Present() {
			return Mapping{}, false
		}
		if e.IsLeaf() {
			return Mapping{Frame: e.Addr(), PageSize: mmu.PageSizeAtLevel(level), Flags: e.LeafFlags()}, true
		}
		table = e.Addr()
	}
	return Mapping{}, false
}
