package pt

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/verifier"
)

// newTestSpace returns a Verified space over fresh memory.
func newTestSpace(t *testing.T) (*Verified, *mem.PhysMem, *SimpleFrameSource) {
	t.Helper()
	pm := mem.New(64 << 20)
	src := NewSimpleFrameSource(pm, 0x1000, 32<<20)
	v, err := NewVerified(pm, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v, pm, src
}

func TestMapResolveUnmap(t *testing.T) {
	v, _, _ := newTestSpace(t)
	va := mmu.VAddr(0x4000_0000)
	frame := mem.PAddr(0x80_0000)
	fl := mmu.Flags{Writable: true, User: true}

	if err := v.Map(va, frame, mmu.L1PageSize, fl); err != nil {
		t.Fatalf("Map: %v", err)
	}
	m, ok := v.Resolve(va + 0x123)
	if !ok || m.Frame != frame || m.PageSize != mmu.L1PageSize || m.Flags != fl {
		t.Fatalf("Resolve = %+v, %t", m, ok)
	}
	got, err := v.Unmap(va)
	if err != nil || got != frame {
		t.Fatalf("Unmap = %v, %v", got, err)
	}
	if _, ok := v.Resolve(va); ok {
		t.Fatal("resolve after unmap succeeded")
	}
	if v.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d", v.MappedPages())
	}
}

func TestMapErrors(t *testing.T) {
	v, _, _ := newTestSpace(t)
	va := mmu.VAddr(0x4000_0000)

	if err := v.Map(va+1, 0x80_0000, mmu.L1PageSize, mmu.Flags{}); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned va: %v", err)
	}
	if err := v.Map(va, 0x80_0001, mmu.L1PageSize, mmu.Flags{}); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned frame: %v", err)
	}
	if err := v.Map(va, 0x80_0000, 1234, mmu.Flags{}); !errors.Is(err, ErrBadPageSize) {
		t.Errorf("bad size: %v", err)
	}
	if err := v.Map(0x8000_0000_0000, 0x80_0000, mmu.L1PageSize, mmu.Flags{}); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("non-canonical: %v", err)
	}
	if err := v.Map(va, 0x80_0000, mmu.L1PageSize, mmu.Flags{}); err != nil {
		t.Fatal(err)
	}
	if err := v.Map(va, 0x90_0000, mmu.L1PageSize, mmu.Flags{}); !errors.Is(err, ErrAlreadyMapped) {
		t.Errorf("double map: %v", err)
	}
}

func TestUnmapErrors(t *testing.T) {
	v, _, _ := newTestSpace(t)
	if _, err := v.Unmap(0x4000_0000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("unmap unmapped: %v", err)
	}
	if _, err := v.Unmap(0x8000_0000_0000); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("non-canonical: %v", err)
	}
	// Interior address of a huge page.
	if err := v.Map(0x4000_0000, 0x80_0000, mmu.L2PageSize, mmu.Flags{}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Unmap(0x4000_0000 + mmu.L1PageSize); !errors.Is(err, ErrNotMapped) {
		t.Errorf("interior unmap: %v", err)
	}
	if _, err := v.Unmap(0x4000_0000); err != nil {
		t.Errorf("huge unmap: %v", err)
	}
}

func TestHugePageMapping(t *testing.T) {
	v, pm, _ := newTestSpace(t)
	va := mmu.VAddr(0x8000_0000)
	frame := mem.PAddr(0x40_0000)
	if err := v.Map(va, frame, mmu.L2PageSize, mmu.Flags{Writable: true}); err != nil {
		t.Fatal(err)
	}
	// A 4K map inside the huge page must fail.
	if err := v.Map(va+mmu.L1PageSize, 0x80_0000, mmu.L1PageSize, mmu.Flags{}); !errors.Is(err, ErrHugeConflict) {
		t.Errorf("map under huge page: %v", err)
	}
	// The hardware must translate an interior address.
	w := mmu.Walker{Mem: pm}
	res := w.Walk(v.Root(), va+0x155000, mmu.AccessRead)
	if res.Fault != nil {
		t.Fatalf("walk: %v", res.Fault)
	}
	if res.Translation.PAddr != frame+0x155000 {
		t.Errorf("PA = %v", res.Translation.PAddr)
	}
}

func TestMappingVisibleToMMU(t *testing.T) {
	v, pm, _ := newTestSpace(t)
	u := mmu.New(pm)
	u.SetRoot(v.Root(), 1)
	va := mmu.VAddr(0x1_0000_0000)
	frame := mem.PAddr(0x90_0000)
	if err := v.Map(va, frame, mmu.L1PageSize, mmu.Flags{Writable: true, User: true}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the page table")
	if f := u.WriteUser(va, msg); f != nil {
		t.Fatalf("user write: %v", f)
	}
	phys := make([]byte, len(msg))
	if err := pm.Read(frame, phys); err != nil {
		t.Fatal(err)
	}
	if string(phys) != string(msg) {
		t.Fatalf("physical = %q", phys)
	}
}

// One core translates a page (setting accessed and dirty bits in the
// tables) while the OS maps and unmaps it: the MMU's write-back must never
// undo an unmap. Run with -race -cpu 2.
func TestTranslateRacesUnmap(t *testing.T) {
	v, pm, _ := newTestSpace(t)
	va := mmu.VAddr(0x4000_0000)
	u := mmu.New(pm)
	u.SetRoot(v.Root(), 0)

	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			u.Translate(va, mmu.AccessWrite)
			u.Invlpg(va)
		}
	}()
	for i := 0; i < 5000; i++ {
		if err := v.Map(va, 0x80_0000, mmu.L1PageSize, mmu.Flags{Writable: true}); err != nil {
			t.Fatalf("round %d: Map: %v", i, err)
		}
		if _, err := v.Unmap(va); err != nil {
			t.Fatalf("round %d: Unmap: %v", i, err)
		}
	}
	close(stop)
	<-stopped

	abs, err := Interpret(pm, v.Root())
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := abs[va]; ok {
		t.Fatalf("the unmapped page is mapped again: %+v", m)
	}
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestProtect(t *testing.T) {
	v, pm, _ := newTestSpace(t)
	va := mmu.VAddr(0x4000_0000)
	if err := v.Map(va, 0x80_0000, mmu.L1PageSize, mmu.Flags{Writable: true, User: true}); err != nil {
		t.Fatal(err)
	}
	if err := v.Protect(va, mmu.Flags{User: true}); err != nil {
		t.Fatal(err)
	}
	w := mmu.Walker{Mem: pm}
	if res := w.Walk(v.Root(), va, mmu.AccessUserWrite); res.Fault == nil {
		t.Error("write allowed after write-protect")
	}
	if res := w.Walk(v.Root(), va, mmu.AccessUserRead); res.Fault != nil {
		t.Errorf("read blocked after write-protect: %v", res.Fault)
	}
	if err := v.Protect(va+mmu.L1PageSize, mmu.Flags{}); !errors.Is(err, ErrNotMapped) {
		t.Errorf("protect unmapped: %v", err)
	}
}

func TestDirectoryReclamation(t *testing.T) {
	v, _, src := newTestSpace(t)
	base := src.Outstanding() // root only
	if base != 1 {
		t.Fatalf("outstanding after create = %d", base)
	}
	va := mmu.VAddr(0x7f00_0000_0000)
	if err := v.Map(va, 0x80_0000, mmu.L1PageSize, mmu.Flags{}); err != nil {
		t.Fatal(err)
	}
	if got := src.Outstanding(); got != 4 {
		t.Fatalf("outstanding after deep map = %d, want 4 (root + 3 directories)", got)
	}
	if _, err := v.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if got := src.Outstanding(); got != 1 {
		t.Fatalf("outstanding after unmap = %d, want 1", got)
	}
}

func TestNeighborPagesShareDirectories(t *testing.T) {
	v, _, src := newTestSpace(t)
	va := mmu.VAddr(0x4000_0000)
	for i := uint64(0); i < 16; i++ {
		if err := v.Map(va+mmu.VAddr(i*mmu.L1PageSize), mem.PAddr(0x80_0000+i*mmu.L1PageSize),
			mmu.L1PageSize, mmu.Flags{}); err != nil {
			t.Fatal(err)
		}
	}
	// root + 3 directories regardless of 16 neighbour mappings.
	if got := src.Outstanding(); got != 4 {
		t.Fatalf("outstanding = %d, want 4", got)
	}
	// Unmapping 15 keeps the directories; the last frees them.
	for i := uint64(0); i < 15; i++ {
		if _, err := v.Unmap(va + mmu.VAddr(i*mmu.L1PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.Outstanding(); got != 4 {
		t.Fatalf("outstanding after partial unmap = %d, want 4", got)
	}
	if _, err := v.Unmap(va + mmu.VAddr(15*mmu.L1PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := src.Outstanding(); got != 1 {
		t.Fatalf("outstanding after final unmap = %d, want 1", got)
	}
}

func TestInvariantHoldsThroughWorkload(t *testing.T) {
	v, _, _ := newTestSpace(t)
	r := rand.New(rand.NewSource(7))
	for i, op := range GenTrace(r, 500) {
		switch op.Kind {
		case "map":
			_ = v.Map(op.VA, op.Frame, op.Size, op.Flags)
		case "unmap":
			_, _ = v.Unmap(op.VA)
		case "resolve":
			_, _ = v.Resolve(op.VA)
		}
		if i%50 == 0 {
			if err := v.CheckInvariant(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRefinementVerified(t *testing.T) {
	if err := RunRandomTrace(rand.New(rand.NewSource(11)), true, 300); err != nil {
		t.Fatal(err)
	}
}

func TestRefinementUnverified(t *testing.T) {
	if err := RunRandomTrace(rand.New(rand.NewSource(12)), false, 300); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalenceVerifiedUnverified(t *testing.T) {
	if err := CheckEquivalence(rand.New(rand.NewSource(13)), 500); err != nil {
		t.Fatal(err)
	}
}

// TestRefinementCatchesInjectedBug plants a classic paging bug — unmap
// forgets to clear the entry when freeing directories is skipped — and
// requires the harness to flag it.
func TestRefinementCatchesInjectedBug(t *testing.T) {
	pm := mem.New(64 << 20)
	src := NewSimpleFrameSource(pm, 0x1000, 32<<20)
	v, err := NewVerified(pm, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(&buggyUnmap{v}, pm)
	if err != nil {
		t.Fatal(err)
	}
	va := mmu.VAddr(0x4000_0000)
	if err := h.Apply(TraceOp{Kind: "map", VA: va, Frame: 0x80_0000, Size: mmu.L1PageSize}); err != nil {
		t.Fatal(err)
	}
	err = h.Apply(TraceOp{Kind: "unmap", VA: va})
	if err == nil {
		t.Fatal("refinement checker missed a no-op unmap")
	}
}

// buggyUnmap reports success on unmap without touching memory.
type buggyUnmap struct{ *Verified }

func (b *buggyUnmap) Unmap(va mmu.VAddr) (mem.PAddr, error) {
	m, ok := b.Resolve(va)
	if !ok {
		return 0, ErrNotMapped
	}
	return m.Frame, nil // "forgot" to clear the PTE
}

func TestSpecResolveInteriorHugePage(t *testing.T) {
	s := AbstractState{
		0x4000_0000: {Frame: 0x40_0000, PageSize: mmu.L2PageSize, Flags: mmu.Flags{Writable: true}},
	}
	m, ok := SpecResolve(s, 0x4000_0000+0x12345)
	if !ok || m.Frame != 0x40_0000 {
		t.Fatalf("interior resolve = %+v, %t", m, ok)
	}
	if _, ok := SpecResolve(s, 0x4020_0000); ok {
		t.Fatal("resolve past huge page succeeded")
	}
}

func TestSpecOverlapRules(t *testing.T) {
	s := AbstractState{}
	s2, out := SpecMap(s, 0x4000_0000, 0x40_0000, mmu.L2PageSize, mmu.Flags{})
	if out != OutcomeOK {
		t.Fatal(out)
	}
	// 4K inside the 2M page.
	if _, out := SpecMap(s2, 0x4000_0000+mmu.L1PageSize, 0x80_0000, mmu.L1PageSize, mmu.Flags{}); out != OutcomeAlreadyMapped {
		t.Errorf("overlap (inside huge) = %s", out)
	}
	// 2M covering an existing 4K page.
	s3 := AbstractState{0x4010_0000: {Frame: 0x80_0000, PageSize: mmu.L1PageSize}}
	if _, out := SpecMap(s3, 0x4000_0000, 0x40_0000, mmu.L2PageSize, mmu.Flags{}); out != OutcomeAlreadyMapped {
		t.Errorf("overlap (huge over small) = %s", out)
	}
}

// Property: map(va); resolve(va) returns exactly what was mapped, for
// arbitrary aligned inputs.
func TestQuickMapResolve(t *testing.T) {
	pm := mem.New(256 << 20)
	src := NewSimpleFrameSource(pm, 0x1000, 64<<20)
	v, err := NewVerified(pm, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pageIdx uint32, frameIdx uint16, w, usr bool) bool {
		va := mmu.VAddr(uint64(pageIdx)%(1<<24)) * mmu.L1PageSize
		frame := mem.PAddr(0x40_0000) + mem.PAddr(frameIdx)*mmu.L1PageSize
		fl := mmu.Flags{Writable: w, User: usr}
		if err := v.Map(va, frame, mmu.L1PageSize, fl); err != nil {
			// Collision with a previous iteration's mapping is fine.
			return errors.Is(err, ErrAlreadyMapped)
		}
		m, ok := v.Resolve(va)
		return ok && m.Frame == frame && m.Flags == fl && m.PageSize == mmu.L1PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	if g.Len() < 10 {
		t.Fatalf("expected >= 10 pt obligations, got %d", g.Len())
	}
	rep := g.Run(verifier.Options{Seed: 2026})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}

func TestReplicatedVariants(t *testing.T) {
	for _, variant := range []Variant{VariantVerified, VariantUnverified} {
		ras, err := NewReplicated(ReplicatedOptions{Variant: variant, Replicas: 2, MemPerReplica: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		c, err := ras.Register(0)
		if err != nil {
			t.Fatal(err)
		}
		va := mmu.VAddr(0x4000_0000)
		if resp := c.Execute(ASWrite{Kind: "map", VA: va, Frame: 0x80_0000, Size: mmu.L1PageSize}); resp.Outcome != OutcomeOK {
			t.Fatalf("%v map: %s", variant, resp.Outcome)
		}
		c2, err := ras.Register(1)
		if err != nil {
			t.Fatal(err)
		}
		if resp := c2.ExecuteRead(ASRead{Kind: "resolve", VA: va}); !resp.OK || resp.Mapping.Frame != 0x80_0000 {
			t.Fatalf("%v remote resolve: %+v", variant, resp)
		}
		if resp := c.Execute(ASWrite{Kind: "unmap", VA: va}); resp.Outcome != OutcomeOK || resp.Frame != 0x80_0000 {
			t.Fatalf("%v unmap: %+v", variant, resp)
		}
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	v, _, src := newTestSpace(t)
	for i := uint64(0); i < 10; i++ {
		if err := v.Map(mmu.VAddr(0x4000_0000+i*mmu.L2PageSize), 0x80_0000, mmu.L1PageSize, mmu.Flags{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Destroy(); err != nil {
		t.Fatal(err)
	}
	if src.Outstanding() != 0 {
		t.Fatalf("outstanding after destroy = %d", src.Outstanding())
	}
}
