package pt

import (
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
)

// This file states the well-formedness invariant of the Verified
// implementation — the §5 proof's induction hypothesis relating the
// multi-level tree encoded as bits to the ghost bookkeeping:
//
//  1. every present non-leaf entry points at a frame in the `tables`
//     ghost set, recorded at the correct level;
//  2. every table frame in the ghost set is referenced by exactly one
//     parent entry (the tree is a tree);
//  3. the recorded live-entry counts match the bits in memory;
//  4. every present entry is architecturally valid (no reserved-bit
//     patterns the MMU would fault on);
//  5. no table frame is also mapped as a leaf frame (the structure
//     never aliases its own metadata — a page-table self-map would be a
//     deliberate, separately specified feature);
//  6. the ghost `mapped` counter equals the number of leaves.
type invariantChecker struct {
	v      *Verified
	seen   map[mem.PAddr]int // table frame -> references
	leaves int
	frames map[mem.PAddr]bool // leaf target frames
}

// CheckInvariant validates the full well-formedness invariant by
// walking the tree. It is O(tree size) and intended for the VC engine,
// tests, and the ghost-check mode — not the hot path.
func (v *Verified) CheckInvariant() error {
	c := &invariantChecker{
		v:      v,
		seen:   make(map[mem.PAddr]int),
		frames: make(map[mem.PAddr]bool),
	}
	if err := c.walkTable(v.root, mmu.Levels); err != nil {
		return err
	}
	// (2) every ghost table referenced exactly once.
	for t, info := range v.tables {
		refs := c.seen[t]
		if refs == 0 {
			return fmt.Errorf("pt: ghost table %v (level %d) unreachable from root", t, info.level)
		}
		if refs > 1 {
			return fmt.Errorf("pt: table %v referenced %d times (tree is not a tree)", t, refs)
		}
	}
	// (1, reverse direction) no reachable table missing from ghost set:
	// walkTable already checks membership.
	// (6) mapped count.
	if c.leaves != v.mapped {
		return fmt.Errorf("pt: ghost mapped=%d but tree has %d leaves", v.mapped, c.leaves)
	}
	return nil
}

func (c *invariantChecker) walkTable(table mem.PAddr, level int) error {
	v := c.v
	// One snapshot of the table, on this frame of the stack (see
	// mmu.Walker.Scan); an untouched frame reads as 512 non-present
	// entries, which is live == 0 below.
	var words [mmu.EntriesPerTable]uint64
	if _, err := v.m.ReadFrame(table, &words); err != nil {
		return fmt.Errorf("pt: invariant walk failed at %v: %w", table, err)
	}
	live := 0
	for i, raw := range &words {
		e := mmu.Entry{Raw: raw, Level: level}
		if !e.Present() {
			continue
		}
		live++
		// (4) architectural validity.
		if !e.Valid() {
			return fmt.Errorf("pt: malformed entry %v at %v[%d]", e, table, i)
		}
		if e.IsLeaf() {
			c.leaves++
			// (5) leaf target must not be a table frame.
			if _, isTable := v.tables[e.Addr()]; isTable || e.Addr() == v.root {
				return fmt.Errorf("pt: leaf at %v[%d] maps table frame %v", table, i, e.Addr())
			}
			c.frames[e.Addr()] = true
			continue
		}
		sub := e.Addr()
		info, ok := v.tables[sub]
		if !ok {
			return fmt.Errorf("pt: reachable table %v (from %v[%d]) missing from ghost set", sub, table, i)
		}
		if info.level != level-1 {
			return fmt.Errorf("pt: table %v recorded at level %d, referenced from level %d", sub, info.level, level)
		}
		c.seen[sub]++
		if c.seen[sub] > 1 {
			return fmt.Errorf("pt: table %v shared by multiple parents", sub)
		}
		if err := c.walkTable(sub, level-1); err != nil {
			return err
		}
	}
	// (3) live counts (root is not in the ghost set).
	if info, ok := v.tables[table]; ok && info.live != live {
		return fmt.Errorf("pt: table %v ghost live=%d, actual=%d", table, info.live, live)
	}
	return nil
}
