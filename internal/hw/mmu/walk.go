package mmu

import (
	"github.com/verified-os/vnros/internal/hw/mem"
)

// Walker performs architectural page walks against simulated physical
// memory. It is pure interpretation: it never mutates the tables (we do
// not model hardware A/D bit setting during the walk itself; the MMU
// front-end does that explicitly so the effect is visible to specs).
type Walker struct {
	Mem *mem.PhysMem
}

// WalkResult describes one completed walk, successful or not, including
// the path of entries the hardware visited. The path is exposed so the
// refinement obligations can relate every step of the hardware
// interpretation to the implementation's tree.
type WalkResult struct {
	Translation *Translation // nil if the walk did not reach a leaf
	Path        []Entry      // entries visited, highest level first
	Fault       *Fault       // nil on success
}

// EntryAddr returns the physical address of the entry slot consulted at
// the given level for va, given that level's table frame base.
func EntryAddr(table mem.PAddr, va VAddr, level int) mem.PAddr {
	return table + mem.PAddr(va.Index(level)*8)
}

// Walk translates va starting from the PML4 frame root. It performs the
// same loads the hardware would and applies the same validity rules:
// non-canonical addresses fault before the walk; a non-present or
// malformed entry aborts the walk; permissions are accumulated as the
// AND of the bits along the path and checked against the access kind.
func (w *Walker) Walk(root mem.PAddr, va VAddr, access Access) WalkResult {
	var res WalkResult
	if !va.IsCanonical() {
		res.Fault = &Fault{Addr: va, Access: access, Reason: "non-canonical address"}
		return res
	}
	if !root.IsPageAligned() {
		res.Fault = &Fault{Addr: va, Access: access, Reason: "CR3 not page aligned"}
		return res
	}

	table := root
	writable, user := true, true
	noExec := false
	for level := Levels; level >= 1; level-- {
		slot := EntryAddr(table, va, level)
		raw, err := w.Mem.Read64(slot)
		if err != nil {
			res.Fault = &Fault{Addr: va, Access: access, Reason: "walk load failed: " + err.Error()}
			return res
		}
		e := Entry{Raw: raw, Level: level}
		res.Path = append(res.Path, e)

		if !e.Present() {
			res.Fault = &Fault{Addr: va, Access: access, Present: false, Reason: "entry not present"}
			return res
		}
		if !e.Valid() {
			res.Fault = &Fault{Addr: va, Access: access, Present: true, Reason: "reserved bits / malformed entry"}
			return res
		}

		writable = writable && e.Writable()
		user = user && e.User()
		noExec = noExec || e.NoExec()

		if e.IsLeaf() {
			size := PageSizeAtLevel(level)
			tr := &Translation{
				Base:     va.PageBase(size),
				Frame:    e.Addr(),
				PAddr:    e.Addr() + mem.PAddr(va.PageOffset(size)),
				PageSize: size,
				Writable: writable,
				User:     user,
				NoExec:   noExec,
				Global:   e.Global(),
			}
			if f := checkPermissions(va, access, tr); f != nil {
				res.Fault = f
				return res
			}
			res.Translation = tr
			return res
		}
		table = e.Addr()
	}
	// A present, valid level-1 entry is always a leaf, so this is
	// unreachable; keep a fault for defense in depth.
	res.Fault = &Fault{Addr: va, Access: access, Reason: "walk exhausted levels"}
	return res
}

// checkPermissions applies the architectural permission rules to a
// completed translation. We model supervisor accesses with SMAP/SMEP
// off: the kernel may read and write user pages but we still honour XD.
func checkPermissions(va VAddr, access Access, tr *Translation) *Fault {
	if access.isUser() && !tr.User {
		return &Fault{Addr: va, Access: access, Present: true, Reason: "supervisor page"}
	}
	if access.isWrite() && !tr.Writable {
		return &Fault{Addr: va, Access: access, Present: true, Reason: "read-only page"}
	}
	if access.isExec() && tr.NoExec {
		return &Fault{Addr: va, Access: access, Present: true, Reason: "execute disabled"}
	}
	return nil
}

// Interpret builds the abstract view of an entire page-table tree: the
// finite map from mapped virtual page bases to (frame, size, flags).
// This is the paper's "MMU interpretation function" — the bridge between
// the bits in memory and the high-level spec's mathematical map. It
// enumerates table entries rather than probing every address, so it
// terminates quickly even for sparse 48-bit spaces.
//
// Malformed subtrees (invalid entries) are skipped; the refinement
// obligations separately require that the implementation never creates
// them.
func (w *Walker) Interpret(root mem.PAddr) (map[VAddr]Translation, error) {
	out := make(map[VAddr]Translation)
	err := w.Scan(root, func(tr Translation) { out[tr.Base] = tr })
	return out, err
}

// Scan is Interpret without the map: it calls visit with the translation
// of every mapped page of the tree at root. Where Walk loads the four
// words hardware would, a scan reads each table it reaches whole
// (mem.PhysMem.ReadFrame): every table is decoded from one snapshot of
// its frame, though the tree is not read atomically as a whole.
func (w *Walker) Scan(root mem.PAddr, visit func(Translation)) error {
	return w.scanTable(root, Levels, 0, true, true, false, visit)
}

func (w *Walker) scanTable(table mem.PAddr, level int, base VAddr,
	writable, user, noExec bool, visit func(Translation)) error {
	// The table lives in this frame of the goroutine's stack, one per
	// level of the recursion; it must not escape (a heap-allocated 4 KiB
	// per table is most of what a refinement trace would allocate).
	var words [EntriesPerTable]uint64
	touched, err := w.Mem.ReadFrame(table, &words)
	if err != nil {
		return err
	}
	if !touched {
		return nil // 512 zero words hold no present entry
	}
	span := uint64(1) << (12 + IndexBits*(level-1)) // bytes covered per entry
	for i, raw := range &words {
		e := Entry{Raw: raw, Level: level}
		if !e.Present() || !e.Valid() {
			continue
		}
		evaBase := base + VAddr(uint64(i)*span)
		ew := writable && e.Writable()
		eu := user && e.User()
		ex := noExec || e.NoExec()
		if e.IsLeaf() {
			visit(Translation{
				Base:     canonicalize(evaBase),
				Frame:    e.Addr(),
				PAddr:    e.Addr(),
				PageSize: PageSizeAtLevel(level),
				Writable: ew,
				User:     eu,
				NoExec:   ex,
				Global:   e.Global(),
			})
			continue
		}
		if level > 1 {
			if err := w.scanTable(e.Addr(), level-1, evaBase, ew, eu, ex, visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// canonicalize sign-extends bit 47 into bits 63..48, turning the raw
// 48-bit walk offset into the canonical virtual address the hardware
// would report.
func canonicalize(v VAddr) VAddr {
	if uint64(v)&(1<<(VABits-1)) != 0 {
		const signExt = 0xffff_0000_0000_0000 // bits 63..48 set
		return v | VAddr(signExt)
	}
	return v
}
