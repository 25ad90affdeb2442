package mmu

import (
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/verifier"
)

// buildTables hand-constructs a minimal 4-level page table in physical
// memory mapping va -> frame with the given flags, without using the
// page-table implementation under test elsewhere. Returns the root.
func buildTables(t *testing.T, m *mem.PhysMem, va VAddr, frame mem.PAddr, f Flags) mem.PAddr {
	t.Helper()
	// Fixed frames for the four levels.
	root := mem.PAddr(0x1000)
	l3 := mem.PAddr(0x2000)
	l2 := mem.PAddr(0x3000)
	l1 := mem.PAddr(0x4000)
	mustWrite := func(a mem.PAddr, v uint64) {
		t.Helper()
		if err := m.Write64(a, v); err != nil {
			t.Fatalf("Write64(%v): %v", a, err)
		}
	}
	mustWrite(EntryAddr(root, va, 4), MakeTable(4, l3).Raw)
	mustWrite(EntryAddr(l3, va, 3), MakeTable(3, l2).Raw)
	mustWrite(EntryAddr(l2, va, 2), MakeTable(2, l1).Raw)
	mustWrite(EntryAddr(l1, va, 1), MakeLeaf(1, frame, f).Raw)
	return root
}

func TestIndexSlicing(t *testing.T) {
	// va = PML4 idx 1, PDPT idx 2, PD idx 3, PT idx 4, offset 5.
	va := VAddr(1<<39 | 2<<30 | 3<<21 | 4<<12 | 5)
	if got := va.Index(4); got != 1 {
		t.Errorf("Index(4) = %d, want 1", got)
	}
	if got := va.Index(3); got != 2 {
		t.Errorf("Index(3) = %d, want 2", got)
	}
	if got := va.Index(2); got != 3 {
		t.Errorf("Index(2) = %d, want 3", got)
	}
	if got := va.Index(1); got != 4 {
		t.Errorf("Index(1) = %d, want 4", got)
	}
	if got := va.PageOffset(L1PageSize); got != 5 {
		t.Errorf("PageOffset = %d, want 5", got)
	}
}

func TestCanonical(t *testing.T) {
	cases := []struct {
		va VAddr
		ok bool
	}{
		{0, true},
		{0x7fff_ffff_ffff, true},       // top of lower half
		{0x8000_0000_0000, false},      // just past
		{0xffff_8000_0000_0000, true},  // bottom of upper half
		{0xffff_ffff_ffff_ffff, true},  // -1
		{0x0000_f000_0000_0000, false}, // stray bit 47..? actually bit 47 set but 48+ clear
		{0xfff0_0000_0000_0000, false}, // bits 63.. set but 47 clear
	}
	for _, c := range cases {
		if got := c.va.IsCanonical(); got != c.ok {
			t.Errorf("IsCanonical(%v) = %v, want %v", c.va, got, c.ok)
		}
	}
}

func TestWalkSuccess(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_7f12_3456_7000) + 0xabc
	frame := mem.PAddr(0x9000)
	root := buildTables(t, m, va, frame, Flags{Writable: true, User: true})

	w := Walker{Mem: m}
	res := w.Walk(root, va, AccessUserWrite)
	if res.Fault != nil {
		t.Fatalf("walk faulted: %v", res.Fault)
	}
	tr := res.Translation
	if tr.PAddr != frame+0xabc {
		t.Errorf("PAddr = %v, want %v", tr.PAddr, frame+0xabc)
	}
	if tr.Base != va.PageBase(L1PageSize) || tr.Frame != frame || tr.PageSize != L1PageSize {
		t.Errorf("geometry wrong: %+v", tr)
	}
	if !tr.Writable || !tr.User || tr.NoExec {
		t.Errorf("flags wrong: %+v", tr)
	}
	if len(res.Path) != 4 {
		t.Errorf("path length = %d, want 4", len(res.Path))
	}
}

func TestWalkNotPresent(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x1000)
	root := buildTables(t, m, va, 0x9000, Flags{})
	w := Walker{Mem: m}
	res := w.Walk(root, va+L1PageSize, AccessRead) // neighbouring page unmapped
	if res.Fault == nil {
		t.Fatal("expected fault for unmapped page")
	}
	if res.Fault.Present {
		t.Error("fault should be non-present")
	}
}

func TestWalkPermissionFaults(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_1234_5600_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: false, User: false, NoExec: true})
	w := Walker{Mem: m}

	if res := w.Walk(root, va, AccessRead); res.Fault != nil {
		t.Errorf("supervisor read should succeed: %v", res.Fault)
	}
	if res := w.Walk(root, va, AccessWrite); res.Fault == nil || !res.Fault.Present {
		t.Error("write to read-only page should present-fault")
	}
	if res := w.Walk(root, va, AccessUserRead); res.Fault == nil {
		t.Error("user read of supervisor page should fault")
	}
	if res := w.Walk(root, va, AccessExec); res.Fault == nil {
		t.Error("exec of XD page should fault")
	}
}

func TestWalkNonCanonicalFaults(t *testing.T) {
	m := mem.New(1 << 24)
	w := Walker{Mem: m}
	res := w.Walk(0x1000, VAddr(0x8000_0000_0000), AccessRead)
	if res.Fault == nil || len(res.Path) != 0 {
		t.Fatal("non-canonical address must fault before any load")
	}
}

func TestHugePageWalk(t *testing.T) {
	m := mem.New(1 << 24)
	root := mem.PAddr(0x1000)
	l3 := mem.PAddr(0x2000)
	l2 := mem.PAddr(0x3000)
	va := VAddr(3 << 21) // third 2 MiB page
	frame := mem.PAddr(0x40_0000)
	if err := m.Write64(EntryAddr(root, va, 4), MakeTable(4, l3).Raw); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(EntryAddr(l3, va, 3), MakeTable(3, l2).Raw); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(EntryAddr(l2, va, 2), MakeLeaf(2, frame, Flags{Writable: true}).Raw); err != nil {
		t.Fatal(err)
	}
	w := Walker{Mem: m}
	res := w.Walk(root, va+0x12345, AccessRead)
	if res.Fault != nil {
		t.Fatalf("huge walk faulted: %v", res.Fault)
	}
	if res.Translation.PageSize != L2PageSize {
		t.Errorf("page size = %d, want %d", res.Translation.PageSize, L2PageSize)
	}
	if res.Translation.PAddr != frame+0x12345 {
		t.Errorf("PAddr = %v", res.Translation.PAddr)
	}
	if len(res.Path) != 3 {
		t.Errorf("path length = %d, want 3", len(res.Path))
	}
}

func TestMisalignedHugeLeafIsMalformed(t *testing.T) {
	e := Entry{Raw: BitPresent | BitPageSize | 0x1000, Level: 2} // 4K-aligned base for 2M page
	if e.Valid() {
		t.Error("misaligned 2 MiB leaf should be invalid")
	}
	if MakeLeaf(2, 0x40_0000, Flags{}).Valid() != true {
		t.Error("aligned 2 MiB leaf should be valid")
	}
}

func TestLevel4PSIsMalformed(t *testing.T) {
	e := Entry{Raw: BitPresent | BitPageSize, Level: 4}
	if e.Valid() {
		t.Error("PML4E with PS set must be invalid")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	f := func(frame uint32, w, u, nx, g bool) bool {
		fr := mem.PAddr(frame) << 12 // any 4K-aligned frame
		fl := Flags{Writable: w, User: u, NoExec: nx, Global: g}
		e := MakeLeaf(1, fr, fl)
		return e.Present() && e.IsLeaf() && e.Addr() == fr && e.LeafFlags() == fl && e.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMMUTranslateAndTLBHit(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_0042_0000_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true, User: true})
	u := New(m)
	u.SetRoot(root, 1)

	if _, f := u.Translate(va, AccessRead); f != nil {
		t.Fatalf("translate: %v", f)
	}
	hits0, misses0 := u.TLB().HitRate()
	if _, f := u.Translate(va+8, AccessRead); f != nil {
		t.Fatalf("second translate: %v", f)
	}
	hits1, _ := u.TLB().HitRate()
	if hits1 != hits0+1 {
		t.Errorf("expected TLB hit (hits %d -> %d, misses0 %d)", hits0, hits1, misses0)
	}
}

// TestStaleTLBServesOldTranslation is the hardware-spec scenario that
// justifies the unmap path's invalidation obligation: clearing the PTE
// bits alone does NOT stop the MMU from translating.
func TestStaleTLBServesOldTranslation(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_0100_0000_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true, User: true})
	u := New(m)
	u.SetRoot(root, 1)

	if _, f := u.Translate(va, AccessRead); f != nil {
		t.Fatalf("translate: %v", f)
	}
	// Clear the leaf PTE directly, as a buggy unmap (no invlpg) would.
	l1 := mem.PAddr(0x4000)
	if err := m.Write64(EntryAddr(l1, va, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, f := u.Translate(va, AccessRead); f != nil {
		t.Fatal("MMU must still serve the stale cached translation")
	}
	u.Invlpg(va)
	if _, f := u.Translate(va, AccessRead); f == nil {
		t.Fatal("after invlpg the unmapped page must fault")
	}
}

func TestADBitsSet(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_0007_0000_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true})
	u := NewWithTLB(m, NewTLB(1)) // tiny TLB, but first access walks anyway
	u.SetRoot(root, 0)

	if _, f := u.Translate(va, AccessRead); f != nil {
		t.Fatalf("translate: %v", f)
	}
	l1 := mem.PAddr(0x4000)
	raw, _ := m.Read64(EntryAddr(l1, va, 1))
	e := Entry{Raw: raw, Level: 1}
	if !e.Accessed() {
		t.Error("accessed bit not set after read")
	}
	if e.Dirty() {
		t.Error("dirty bit set after read-only access")
	}

	if _, f := u.Translate(va, AccessWrite); f != nil {
		t.Fatalf("translate write: %v", f)
	}
	raw, _ = m.Read64(EntryAddr(l1, va, 1))
	if !(Entry{Raw: raw, Level: 1}).Dirty() {
		t.Error("dirty bit not set after write")
	}
}

// The A/D write-back is a compare-and-swap against the word the walk
// read: a walk that went stale because the OS cleared the entry in between
// must not store the old word back (which would re-map the page).
func TestStaleWalkCannotResurrectEntry(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_0007_0000_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true})
	u := New(m)
	u.SetRoot(root, 0)

	res := u.Walker().Walk(root, va, AccessWrite)
	if res.Fault != nil {
		t.Fatalf("walk: %v", res.Fault)
	}
	leaf := EntryAddr(0x4000, va, 1)
	if err := m.Write64(leaf, 0); err != nil { // the OS unmaps
		t.Fatal(err)
	}
	if u.setADBits(va, AccessWrite, res) {
		t.Error("setADBits reported a current walk although the leaf changed under it")
	}
	if raw, _ := m.Read64(leaf); raw != 0 {
		t.Fatalf("stale walk resurrected the cleared leaf: slot reads %#x", raw)
	}
	if _, f := u.Translate(va, AccessWrite); f == nil {
		t.Fatal("translate of the unmapped page succeeded")
	}
	if _, ok := u.TLB().Lookup(0, va); ok {
		t.Fatal("the unmapped page's translation was cached")
	}
}

func TestMMUReadWriteVirtual(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_0009_0000_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true, User: true})
	u := New(m)
	u.SetRoot(root, 1)

	msg := []byte("hello, verified world")
	if f := u.Write(va+100, msg); f != nil {
		t.Fatalf("virtual write: %v", f)
	}
	got := make([]byte, len(msg))
	if f := u.Read(va+100, got); f != nil {
		t.Fatalf("virtual read: %v", f)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip = %q", got)
	}
	// The bytes must be physically at frame+100.
	phys := make([]byte, len(msg))
	if err := m.Read(0x9000+100, phys); err != nil {
		t.Fatal(err)
	}
	if string(phys) != string(msg) {
		t.Fatalf("physical bytes = %q", phys)
	}
}

func TestUserAccessToSupervisorPageFaults(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_000a_0000_0000)
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true, User: false})
	u := New(m)
	u.SetRoot(root, 1)
	if f := u.ReadUser(va, make([]byte, 8)); f == nil {
		t.Fatal("user read of supervisor page must fault")
	}
	if f := u.Read(va, make([]byte, 8)); f != nil {
		t.Fatalf("supervisor read should pass: %v", f)
	}
}

func TestInterpretMatchesWalk(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0x0000_7f12_3456_7000)
	frame := mem.PAddr(0x9000)
	root := buildTables(t, m, va, frame, Flags{Writable: true, User: true})

	w := Walker{Mem: m}
	abs, err := w.Interpret(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 1 {
		t.Fatalf("interpretation has %d entries, want 1", len(abs))
	}
	tr, ok := abs[va.PageBase(L1PageSize)]
	if !ok {
		t.Fatalf("no entry for %v; got %v", va.PageBase(L1PageSize), abs)
	}
	if tr.Frame != frame || tr.PageSize != L1PageSize || !tr.Writable {
		t.Errorf("interpretation wrong: %+v", tr)
	}
}

func TestInterpretCanonicalizesUpperHalf(t *testing.T) {
	m := mem.New(1 << 24)
	va := VAddr(0xffff_8000_0000_0000) // first upper-half address
	root := buildTables(t, m, va, 0x9000, Flags{Writable: true})
	w := Walker{Mem: m}
	abs, err := w.Interpret(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := abs[va]; !ok {
		t.Fatalf("upper-half mapping missing; got keys %v", keysOf(abs))
	}
}

func keysOf(m map[VAddr]Translation) []VAddr {
	out := make([]VAddr, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(2)
	mk := func(base VAddr) Translation {
		return Translation{Base: base, Frame: 0x1000, PageSize: L1PageSize}
	}
	tlb.Insert(0, mk(0x1000))
	tlb.Insert(0, mk(0x2000))
	tlb.Insert(0, mk(0x3000)) // evicts 0x1000 (oldest)
	if tlb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tlb.Len())
	}
	if _, ok := tlb.Lookup(0, 0x1000); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok := tlb.Lookup(0, 0x3000); !ok {
		t.Error("newest entry missing")
	}
}

func TestTLBASIDIsolation(t *testing.T) {
	tlb := NewTLB(8)
	tr := Translation{Base: 0x1000, Frame: 0x2000, PageSize: L1PageSize}
	tlb.Insert(1, tr)
	if _, ok := tlb.Lookup(2, 0x1000); ok {
		t.Error("translation leaked across ASIDs")
	}
	g := tr
	g.Global = true
	g.Base = 0x5000
	tlb.Insert(1, g)
	tlb.InvalidateASID(1)
	if _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Error("non-global entry survived ASID invalidation")
	}
	if _, ok := tlb.Lookup(1, 0x5000); !ok {
		t.Error("global entry must survive ASID invalidation")
	}
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Error("flush must drop everything")
	}
}

// Property: for random virtual pages and frames, walk(buildTables(va)) ==
// frame mapping with correct offset arithmetic.
func TestQuickWalkRoundTrip(t *testing.T) {
	f := func(pageIdx uint32, off uint16, frameIdx uint16) bool {
		m := mem.New(1 << 24)
		va := VAddr(uint64(pageIdx)%(1<<(VABits-13))) << 12 // lower half only
		frame := mem.PAddr(0x9000)
		_ = frameIdx
		root := mem.PAddr(0x1000)
		l3, l2, l1 := mem.PAddr(0x2000), mem.PAddr(0x3000), mem.PAddr(0x4000)
		if m.Write64(EntryAddr(root, va, 4), MakeTable(4, l3).Raw) != nil {
			return false
		}
		if m.Write64(EntryAddr(l3, va, 3), MakeTable(3, l2).Raw) != nil {
			return false
		}
		if m.Write64(EntryAddr(l2, va, 2), MakeTable(2, l1).Raw) != nil {
			return false
		}
		if m.Write64(EntryAddr(l1, va, 1), MakeLeaf(1, frame, Flags{Writable: true}).Raw) != nil {
			return false
		}
		w := Walker{Mem: m}
		probe := va + VAddr(off)%L1PageSize
		res := w.Walk(root, probe, AccessRead)
		if res.Fault != nil {
			return false
		}
		return res.Translation.PAddr == frame+mem.PAddr(uint64(probe)-uint64(va))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 97})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
