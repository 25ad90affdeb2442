package mm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/verifier"
)

func newBuddy(t *testing.T, frames uint64) *Buddy {
	t.Helper()
	pm := mem.New(mem.PAddr(frames+16) * mem.PageSize)
	b, err := NewBuddy(pm, 0, frames)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuddyAllocFreeSingle(t *testing.T) {
	b := newBuddy(t, 64)
	a, err := b.AllocOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsPageAligned() {
		t.Fatal("unaligned frame")
	}
	if st := b.Stats(); st.AllocatedFrames != 1 {
		t.Fatalf("allocated = %d", st.AllocatedFrames)
	}
	if err := b.Free(a); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.AllocatedFrames != 0 || st.FreeBlocks != 1 {
		t.Fatalf("stats after free = %+v", st)
	}
}

func TestBuddyOrderAlignment(t *testing.T) {
	b := newBuddy(t, 256)
	for order := 0; order <= 5; order++ {
		a, err := b.AllocOrder(order)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(a)%(uint64(mem.PageSize)<<order) != 0 {
			t.Errorf("order %d block at %v not size-aligned", order, a)
		}
	}
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddySplitsAndMerges(t *testing.T) {
	b := newBuddy(t, 16) // one order-4 block
	var frames []mem.PAddr
	for i := 0; i < 16; i++ {
		a, err := b.AllocOrder(0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, a)
	}
	if _, err := b.AllocOrder(0); !errors.Is(err, ErrNoMemory) {
		t.Fatal("17th alloc from 16 frames succeeded")
	}
	for _, a := range frames {
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.FreeBlocks != 1 {
		t.Fatalf("frames did not remerge: %d blocks", st.FreeBlocks)
	}
}

func TestBuddyNonPowerOfTwoRange(t *testing.T) {
	b := newBuddy(t, 100) // 64 + 32 + 4
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.TotalFrames != 100 {
		t.Fatalf("total = %d", st.TotalFrames)
	}
	// All 100 frames allocatable.
	n := 0
	for {
		if _, err := b.AllocOrder(0); err != nil {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("allocated %d frames from 100-frame range", n)
	}
}

func TestBuddyBadOrder(t *testing.T) {
	b := newBuddy(t, 64)
	if _, err := b.AllocOrder(-1); !errors.Is(err, ErrBadOrder) {
		t.Error("negative order accepted")
	}
	if _, err := b.AllocOrder(MaxOrder + 1); !errors.Is(err, ErrBadOrder) {
		t.Error("oversized order accepted")
	}
}

// Property: random alloc/free sequences preserve the invariant and
// never hand out overlapping blocks.
func TestQuickBuddyNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pm := mem.New(64 << 20)
		b, err := NewBuddy(pm, 0x8000, 256)
		if err != nil {
			return false
		}
		type block struct {
			base  mem.PAddr
			order int
		}
		var live []block
		for i := 0; i < 300; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				o := r.Intn(3)
				if a, err := b.AllocOrder(o); err == nil {
					live = append(live, block{a, o})
				}
			} else {
				j := r.Intn(len(live))
				if b.Free(live[j].base) != nil {
					return false
				}
				live = append(live[:j], live[j+1:]...)
			}
		}
		// Overlap check across live blocks.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				iEnd := live[i].base + mem.PAddr(mem.PageSize<<live[i].order)
				jEnd := live[j].base + mem.PAddr(mem.PageSize<<live[j].order)
				if live[i].base < jEnd && live[j].base < iEnd {
					return false
				}
			}
		}
		return b.CheckInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVSpaceReserveRelease(t *testing.T) {
	v, err := NewVSpace(0x1000_0000, 0x1100_0000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := v.Reserve(0x10000, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if a != 0x1000_0000 {
		t.Fatalf("first fit = %v", a)
	}
	b, err := v.Reserve(0x4000, "stack")
	if err != nil {
		t.Fatal(err)
	}
	if b != 0x1001_0000 {
		t.Fatalf("second fit = %v", b)
	}
	if _, err := v.Release(a); err != nil {
		t.Fatal(err)
	}
	// The freed hole is reused first-fit.
	cAddr, err := v.Reserve(0x8000, "mmap")
	if err != nil {
		t.Fatal(err)
	}
	if cAddr != a {
		t.Fatalf("hole not reused: %v", cAddr)
	}
}

func TestVSpaceExplicitOverlap(t *testing.T) {
	v, err := NewVSpace(0, 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ReserveAt(0x10000, 0x10000, "a"); err != nil {
		t.Fatal(err)
	}
	if err := v.ReserveAt(0x18000, 0x10000, "b"); !errors.Is(err, ErrVSpaceOverlap) {
		t.Fatalf("overlap accepted: %v", err)
	}
	if err := v.ReserveAt(0x8000, 0x10000, "c"); !errors.Is(err, ErrVSpaceOverlap) {
		t.Fatalf("overlap (tail) accepted: %v", err)
	}
	if err := v.ReserveAt(0x20000, 0x10000, "d"); err != nil {
		t.Fatalf("adjacent rejected: %v", err)
	}
}

func TestVSpaceExhaustion(t *testing.T) {
	v, err := NewVSpace(0, 4*mmu.L1PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Reserve(5*mmu.L1PageSize, "big"); !errors.Is(err, ErrVSpaceFull) {
		t.Fatalf("oversized reserve: %v", err)
	}
	if _, err := v.Reserve(4*mmu.L1PageSize, "exact"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Reserve(mmu.L1PageSize, "more"); !errors.Is(err, ErrVSpaceFull) {
		t.Fatalf("reserve in full space: %v", err)
	}
}

func TestVSpaceBadArgs(t *testing.T) {
	if _, err := NewVSpace(0x123, 0x10000); err == nil {
		t.Error("unaligned lo accepted")
	}
	if _, err := NewVSpace(0x2000, 0x1000); err == nil {
		t.Error("inverted range accepted")
	}
	v, _ := NewVSpace(0, 0x100000)
	if _, err := v.Reserve(0, "zero"); err == nil {
		t.Error("zero-length reserve accepted")
	}
	if _, err := v.Release(0x5000); err == nil {
		t.Error("release of nothing accepted")
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 99})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
