package pt

import (
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/obs"
)

// Verified is the proof-structured page-table implementation. Each
// operation proceeds in explicit phases — locate the slot path, check
// the precondition against the current entries, perform the single
// architectural store that commits the operation — so that every
// intermediate state is related to an abstract state by the
// interpretation function (see pt_refine.go). Table-frame bookkeeping
// (the `tables` set) is ghost state: it exists to state the
// well-formedness invariant and to free empty directories, and is
// excluded from the interpretation.
type Verified struct {
	m      *mem.PhysMem
	frames FrameSource
	root   mem.PAddr
	inval  InvalidateFunc

	// tables tracks the page-table frames owned by this address space
	// (root excluded), with a live-entry count per directory frame so
	// unmap can free empties. This mirrors NrOS's per-space frame list.
	// Held by value, like Unverified.live: a directory built and freed
	// by a map/unmap pair costs no object.
	tables map[mem.PAddr]tableInfo

	// mapped counts live leaf mappings, used by invariants.
	mapped int

	// ghostChecksEnabled turns on the per-operation internal invariant
	// re-validation. It is what the ghost-check ablation bench toggles:
	// the paper's point is that verification artifacts cost nothing at
	// runtime, and with checks off the hot path is identical to
	// Unverified's.
	ghostChecksEnabled bool

	// obsShard stripes this address space's kstat updates (pt.* kstats
	// are apply-side: one count per replica per logged map/unmap).
	obsShard uint32
}

// tableInfo is bookkeeping for one directory frame.
type tableInfo struct {
	level int // level of the entries stored in this frame
	live  int // number of present entries
}

// NewVerified creates an empty verified address space. The root frame
// is allocated from frames immediately.
func NewVerified(m *mem.PhysMem, frames FrameSource, inval InvalidateFunc) (*Verified, error) {
	root, err := frames.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("%w: root: %v", ErrOutOfMemory, err)
	}
	if inval == nil {
		inval = func(mmu.VAddr) {}
	}
	return &Verified{
		m:        m,
		frames:   frames,
		root:     root,
		inval:    inval,
		tables:   make(map[mem.PAddr]tableInfo),
		obsShard: obs.NextShard(),
	}, nil
}

// EnableGhostChecks turns on internal invariant re-validation after
// every mutating operation (used by the refinement tests; expensive).
func (v *Verified) EnableGhostChecks(on bool) { v.ghostChecksEnabled = on }

// Root returns the PML4 frame.
func (v *Verified) Root() mem.PAddr { return v.root }

// Mem exposes the backing physical memory (for the refinement harness's
// interpretation function).
func (v *Verified) Mem() *mem.PhysMem { return v.m }

// MappedPages returns the number of live leaf mappings.
func (v *Verified) MappedPages() int { return v.mapped }

// readEntry loads the entry at the given slot.
func (v *Verified) readEntry(table mem.PAddr, va mmu.VAddr, level int) (mmu.Entry, error) {
	raw, err := v.m.Read64(mmu.EntryAddr(table, va, level))
	if err != nil {
		return mmu.Entry{}, err
	}
	return mmu.Entry{Raw: raw, Level: level}, nil
}

// writeEntry stores an entry and maintains the live count of the
// containing table.
func (v *Verified) writeEntry(table mem.PAddr, va mmu.VAddr, e mmu.Entry) error {
	old, err := v.readEntry(table, va, e.Level)
	if err != nil {
		return err
	}
	if err := v.m.Write64(mmu.EntryAddr(table, va, e.Level), e.Raw); err != nil {
		return err
	}
	if info, ok := v.tables[table]; ok {
		switch {
		case !old.Present() && e.Present():
			info.live++
		case old.Present() && !e.Present():
			info.live--
		}
		v.tables[table] = info
	}
	return nil
}

// descend returns the table frame for the next level below the entry at
// (table, level), allocating and installing an intermediate directory if
// absent. Phase 1 of Map.
func (v *Verified) descend(table mem.PAddr, va mmu.VAddr, level int) (mem.PAddr, error) {
	e, err := v.readEntry(table, va, level)
	if err != nil {
		return 0, err
	}
	if e.Present() {
		if e.IsLeaf() {
			return 0, fmt.Errorf("%w: huge page at level %d covers %v", ErrHugeConflict, level, va)
		}
		return e.Addr(), nil
	}
	sub, err := v.frames.AllocFrame()
	if err != nil {
		return 0, fmt.Errorf("%w: level %d directory: %v", ErrOutOfMemory, level-1, err)
	}
	// A fresh directory must read as all-non-present: FrameSource
	// guarantees zeroed frames; the invariant re-checks this under
	// ghost checks.
	v.tables[sub] = tableInfo{level: level - 1}
	if err := v.writeEntry(table, va, mmu.MakeTable(level, sub)); err != nil {
		return 0, err
	}
	return sub, nil
}

// Map implements AddressSpace.
//
// Proof structure: after argument validation, the walk either fails
// (ErrHugeConflict) leaving the state unchanged, or reaches the slot for
// va at the leaf level with all intermediate directories installed.
// Installing intermediate directories does not change the
// interpretation (they contain no present entries), so those steps are
// stutter steps of the high-level machine; the single leaf store is the
// transition that corresponds to the spec's map event.
func (v *Verified) Map(va mmu.VAddr, frame mem.PAddr, size uint64, flags mmu.Flags) error {
	if err := checkArgs(va, frame, size); err != nil {
		return err
	}
	t0 := obs.Start()
	target := leafLevel(size)

	// Phase 1: walk (and build) the directory path down to the target
	// level.
	table := v.root
	for level := mmu.Levels; level > target; level-- {
		sub, err := v.descend(table, va, level)
		if err != nil {
			return err
		}
		table = sub
	}

	// Phase 2: precondition — the slot must be empty.
	e, err := v.readEntry(table, va, target)
	if err != nil {
		return err
	}
	if e.Present() {
		return fmt.Errorf("%w: %v at level %d", ErrAlreadyMapped, va, target)
	}

	// Phase 3: the committing store.
	if err := v.writeEntry(table, va, mmu.MakeLeaf(target, frame, flags)); err != nil {
		return err
	}
	v.mapped++

	if v.ghostChecksEnabled {
		if err := v.CheckInvariant(); err != nil {
			return fmt.Errorf("pt: ghost check after map: %w", err)
		}
	}
	obs.PTMapLatency.Since(v.obsShard, t0)
	obs.KernelTrace.Emit(obs.KindPTMap, uint64(va), uint64(frame))
	return nil
}

// pathStep is one slot of the path from the root to the leaf entry
// covering va, recorded for unmap's cleanup phase.
type pathStep struct {
	table mem.PAddr
	level int
}

// Unmap implements AddressSpace.
//
// Proof structure: locate the leaf (fail without mutation if absent),
// clear it (the committing store, matching the spec's unmap event),
// invalidate the TLB, then garbage-collect empty directories bottom-up
// (stutter steps: removing a directory with no present entries does not
// change the interpretation).
func (v *Verified) Unmap(va mmu.VAddr) (mem.PAddr, error) {
	if !va.IsCanonical() {
		return 0, fmt.Errorf("%w: %v", ErrNonCanonical, va)
	}
	t0 := obs.Start()

	// Phase 1: locate the leaf and record the path (at most one step
	// per level, so it lives on the stack).
	var path [mmu.Levels]pathStep
	depth := 0
	table := v.root
	var leaf mmu.Entry
	var leafTable mem.PAddr
	level := mmu.Levels
	for {
		path[depth] = pathStep{table: table, level: level}
		depth++
		e, err := v.readEntry(table, va, level)
		if err != nil {
			return 0, err
		}
		if !e.Present() {
			return 0, fmt.Errorf("%w: %v", ErrNotMapped, va)
		}
		if e.IsLeaf() {
			// The spec's unmap takes the page base; reject interior
			// addresses so unmap(va) is unambiguous.
			if va.PageOffset(mmu.PageSizeAtLevel(level)) != 0 {
				return 0, fmt.Errorf("%w: %v is interior to a %d-byte page",
					ErrNotMapped, va, mmu.PageSizeAtLevel(level))
			}
			leaf = e
			leafTable = table
			break
		}
		table = e.Addr()
		level--
	}

	// Phase 2: the committing store — clear the leaf.
	if err := v.writeEntry(leafTable, va, mmu.Entry{Raw: 0, Level: leaf.Level}); err != nil {
		return 0, err
	}
	v.mapped--

	// Phase 3: TLB shootdown before the frame may be reused.
	v.inval(va)

	// Phase 4: free now-empty directories bottom-up (never the root).
	for i := depth - 1; i >= 1; i-- {
		step := path[i]
		info, ok := v.tables[step.table]
		if !ok || info.live > 0 {
			break
		}
		parent := path[i-1]
		if err := v.writeEntry(parent.table, va, mmu.Entry{Raw: 0, Level: parent.level}); err != nil {
			return 0, err
		}
		delete(v.tables, step.table)
		if err := v.frames.FreeFrame(step.table); err != nil {
			return 0, err
		}
	}

	if v.ghostChecksEnabled {
		if err := v.CheckInvariant(); err != nil {
			return 0, fmt.Errorf("pt: ghost check after unmap: %w", err)
		}
	}
	obs.PTUnmapLatency.Since(v.obsShard, t0)
	obs.KernelTrace.Emit(obs.KindPTUnmap, uint64(va), uint64(leaf.Addr()))
	return leaf.Addr(), nil
}

// Resolve implements AddressSpace. It is a pure read: it performs the
// same walk the MMU does (minus TLB and permission checks) and returns
// the mapping covering va.
func (v *Verified) Resolve(va mmu.VAddr) (Mapping, bool) {
	if !va.IsCanonical() {
		return Mapping{}, false
	}
	table := v.root
	for level := mmu.Levels; level >= 1; level-- {
		e, err := v.readEntry(table, va, level)
		if err != nil || !e.Present() {
			return Mapping{}, false
		}
		if e.IsLeaf() {
			return Mapping{
				Frame:    e.Addr(),
				PageSize: mmu.PageSizeAtLevel(level),
				Flags:    e.LeafFlags(),
			}, true
		}
		table = e.Addr()
	}
	return Mapping{}, false
}

// Protect changes the flags of an existing mapping (an NrOS API the
// paper's component list implies via memory management). The TLB is
// invalidated because permissions may have been reduced.
func (v *Verified) Protect(va mmu.VAddr, flags mmu.Flags) error {
	if !va.IsCanonical() {
		return fmt.Errorf("%w: %v", ErrNonCanonical, va)
	}
	table := v.root
	for level := mmu.Levels; level >= 1; level-- {
		e, err := v.readEntry(table, va, level)
		if err != nil {
			return err
		}
		if !e.Present() {
			return fmt.Errorf("%w: %v", ErrNotMapped, va)
		}
		if e.IsLeaf() {
			if va.PageOffset(mmu.PageSizeAtLevel(level)) != 0 {
				return fmt.Errorf("%w: %v is interior", ErrNotMapped, va)
			}
			if err := v.writeEntry(table, va, mmu.MakeLeaf(level, e.Addr(), flags)); err != nil {
				return err
			}
			v.inval(va)
			return nil
		}
		table = e.Addr()
	}
	return fmt.Errorf("%w: %v", ErrNotMapped, va)
}

// Destroy unmaps everything and releases all table frames including the
// root. The address space must not be used afterwards.
func (v *Verified) Destroy() error {
	for t := range v.tables {
		if err := v.frames.FreeFrame(t); err != nil {
			return err
		}
		delete(v.tables, t)
	}
	if err := v.frames.FreeFrame(v.root); err != nil {
		return err
	}
	v.mapped = 0
	return nil
}
