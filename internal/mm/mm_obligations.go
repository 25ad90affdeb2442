package mm

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the memory-management verification
// conditions: buddy structural invariants under randomized workloads,
// conservation (alloc/free round trips restore full coverage), NCache
// zeroing and ownership, and VSpace disjointness.
func RegisterObligations(g *verifier.Registry) {
	registerMoreObligations(g)
	g.Register(
		verifier.Obligation{Module: "mm", Name: "buddy-invariant-random", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				pm := mem.New(64 << 20)
				b, err := NewBuddy(pm, 0, 1024)
				if err != nil {
					return err
				}
				var live []mem.PAddr
				for i := 0; i < 3000; i++ {
					if r.Intn(2) == 0 || len(live) == 0 {
						a, err := b.AllocOrder(r.Intn(4))
						if err == nil {
							live = append(live, a)
						}
					} else {
						j := r.Intn(len(live))
						if err := b.Free(live[j]); err != nil {
							return err
						}
						live = append(live[:j], live[j+1:]...)
					}
					if i%100 == 0 {
						if err := b.CheckInvariant(); err != nil {
							return err
						}
					}
				}
				return b.CheckInvariant()
			}},
		verifier.Obligation{Module: "mm", Name: "buddy-conservation", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				pm := mem.New(64 << 20)
				b, err := NewBuddy(pm, 0x10000, 512)
				if err != nil {
					return err
				}
				var live []mem.PAddr
				for i := 0; i < 200; i++ {
					if a, err := b.AllocOrder(r.Intn(3)); err == nil {
						live = append(live, a)
					}
				}
				for _, a := range live {
					if err := b.Free(a); err != nil {
						return err
					}
				}
				st := b.Stats()
				if st.AllocatedFrames != 0 {
					return fmt.Errorf("leaked %d frames", st.AllocatedFrames)
				}
				// Full merge: the initial carving of 512 frames is one
				// order-9 block... 512 = 2^9 but MaxOrder is 15 so one
				// block of order 9 exists iff start alignment allows;
				// start index 0 is aligned, so expect exactly 1 block.
				if st.FreeBlocks != 1 {
					return fmt.Errorf("coalescing incomplete: %d free blocks, want 1", st.FreeBlocks)
				}
				return b.CheckInvariant()
			}},
		verifier.Obligation{Module: "mm", Name: "buddy-double-free-rejected", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				pm := mem.New(16 << 20)
				b, err := NewBuddy(pm, 0, 64)
				if err != nil {
					return err
				}
				a, err := b.AllocOrder(0)
				if err != nil {
					return err
				}
				if err := b.Free(a); err != nil {
					return err
				}
				if err := b.Free(a); err == nil {
					return fmt.Errorf("double free accepted")
				}
				if err := b.Free(0x123000); err == nil {
					return fmt.Errorf("foreign free accepted")
				}
				return nil
			}},
		verifier.Obligation{Module: "mm", Name: "ncache-zeroes-frames", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				pm := mem.New(16 << 20)
				b, err := NewBuddy(pm, 0, 256)
				if err != nil {
					return err
				}
				c := NewNCache(pm, b, 16)
				f, err := c.AllocFrame()
				if err != nil {
					return err
				}
				// Dirty it (a seed-chosen word and the last one), free it,
				// re-alloc until we see it again: every frame handed out
				// reads zero in all 512 words.
				for _, a := range []mem.PAddr{f + mem.PAddr(r.Intn(mem.FrameWords))*mem.WordSize, f + mem.PageSize - mem.WordSize} {
					if err := pm.Write64(a, 0xdead); err != nil {
						return err
					}
				}
				if err := c.FreeFrame(f); err != nil {
					return err
				}
				var words, zero [mem.FrameWords]uint64
				for i := 0; i < 64; i++ {
					g, err := c.AllocFrame()
					if err != nil {
						return err
					}
					if _, err := pm.ReadFrame(g, &words); err != nil {
						return err
					}
					if words != zero {
						return fmt.Errorf("frame %v handed out dirty", g)
					}
					if g == f {
						return nil
					}
				}
				return nil // reuse not observed; zeroing held everywhere we looked
			}},
		verifier.Obligation{Module: "mm", Name: "vspace-disjoint-random", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				v, err := NewVSpace(0x1000_0000, 0x2000_0000)
				if err != nil {
					return err
				}
				var bases []mmu.VAddr
				for i := 0; i < 1000; i++ {
					if r.Intn(3) != 0 || len(bases) == 0 {
						length := uint64(1+r.Intn(8)) * mmu.L1PageSize
						if base, err := v.Reserve(length, "t"); err == nil {
							bases = append(bases, base)
						}
					} else {
						j := r.Intn(len(bases))
						if _, err := v.Release(bases[j]); err != nil {
							return err
						}
						bases = append(bases[:j], bases[j+1:]...)
					}
					if err := v.CheckInvariant(); err != nil {
						return err
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "mm", Name: "vspace-lookup-consistent", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				v, err := NewVSpace(0, 0x100_0000)
				if err != nil {
					return err
				}
				if err := v.ReserveAt(0x10000, 0x4000, "a"); err != nil {
					return err
				}
				if err := v.ReserveAt(0x20000, 0x1000, "b"); err != nil {
					return err
				}
				for _, tc := range []struct {
					va  mmu.VAddr
					tag string
					ok  bool
				}{
					{0x10000, "a", true}, {0x13fff, "a", true}, {0x14000, "", false},
					{0x20000, "b", true}, {0x20fff, "b", true}, {0x21000, "", false},
					{0x0, "", false},
				} {
					got, ok := v.Lookup(tc.va)
					if ok != tc.ok || (ok && got.Tag != tc.tag) {
						return fmt.Errorf("Lookup(%v) = (%+v, %t)", tc.va, got, ok)
					}
				}
				return nil
			}},
	)
}
