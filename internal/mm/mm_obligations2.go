package mm

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerMoreObligations is the second wave of memory-management VCs:
// buddy worst-case fragmentation recovery, order-alignment guarantees,
// and VSpace first-fit determinism.
func registerMoreObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "mm", Name: "buddy-fragmentation-recovery", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Worst case: allocate all singles, free every other one
				// (maximal fragmentation), free the rest — the allocator
				// must recoalesce to a single block.
				pm := mem.New(64 << 20)
				b, err := NewBuddy(pm, 0, 256)
				if err != nil {
					return err
				}
				var all []mem.PAddr
				for {
					a, err := b.AllocOrder(0)
					if err != nil {
						break
					}
					all = append(all, a)
				}
				if len(all) != 256 {
					return fmt.Errorf("allocated %d of 256", len(all))
				}
				for i := 0; i < len(all); i += 2 {
					if err := b.Free(all[i]); err != nil {
						return err
					}
				}
				// Maximal fragmentation: no order-1 block can exist.
				if _, err := b.AllocOrder(1); err == nil {
					return fmt.Errorf("order-1 alloc succeeded under maximal fragmentation")
				}
				for i := 1; i < len(all); i += 2 {
					if err := b.Free(all[i]); err != nil {
						return err
					}
				}
				st := b.Stats()
				if st.FreeBlocks != 1 || st.AllocatedFrames != 0 {
					return fmt.Errorf("recovery incomplete: %+v", st)
				}
				return b.CheckInvariant()
			}},
		verifier.Obligation{Module: "mm", Name: "buddy-order-alignment", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				pm := mem.New(64 << 20)
				start := mem.PAddr(uint64(r.Intn(16)) * mem.PageSize * 1024)
				b, err := NewBuddy(pm, start, 1024)
				if err != nil {
					return err
				}
				for i := 0; i < 300; i++ {
					o := r.Intn(6)
					a, err := b.AllocOrder(o)
					if err != nil {
						continue
					}
					if uint64(a-start)%(uint64(mem.PageSize)<<o) != 0 {
						return fmt.Errorf("order-%d block at %v not size-aligned from base %v", o, a, start)
					}
				}
				return b.CheckInvariant()
			}},
		verifier.Obligation{Module: "mm", Name: "vspace-first-fit-deterministic", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				// Two VSpaces fed the same reserve/release sequence give
				// identical placements (the NR determinism requirement
				// for replicated kernels).
				v1, err := NewVSpace(0x1000_0000, 0x3000_0000)
				if err != nil {
					return err
				}
				v2, err := NewVSpace(0x1000_0000, 0x3000_0000)
				if err != nil {
					return err
				}
				var bases []mmu.VAddr
				for i := 0; i < 500; i++ {
					if r.Intn(3) > 0 || len(bases) == 0 {
						length := uint64(1+r.Intn(16)) * mmu.L1PageSize
						a1, e1 := v1.Reserve(length, "x")
						a2, e2 := v2.Reserve(length, "x")
						if (e1 == nil) != (e2 == nil) || a1 != a2 {
							return fmt.Errorf("placement diverged at op %d: %v vs %v", i, a1, a2)
						}
						if e1 == nil {
							bases = append(bases, a1)
						}
					} else {
						j := r.Intn(len(bases))
						if _, err := v1.Release(bases[j]); err != nil {
							return err
						}
						if _, err := v2.Release(bases[j]); err != nil {
							return err
						}
						bases = append(bases[:j], bases[j+1:]...)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "mm", Name: "vspace-reuses-released-holes", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				v, err := NewVSpace(0, 64*mmu.L1PageSize)
				if err != nil {
					return err
				}
				// Fill completely, release a random region, and check the
				// next equal-size reservation lands exactly in the hole.
				var regions []mmu.VAddr
				for {
					a, err := v.Reserve(2*mmu.L1PageSize, "fill")
					if err != nil {
						break
					}
					regions = append(regions, a)
				}
				if len(regions) != 32 {
					return fmt.Errorf("filled %d regions, want 32", len(regions))
				}
				j := r.Intn(len(regions))
				if _, err := v.Release(regions[j]); err != nil {
					return err
				}
				got, err := v.Reserve(2*mmu.L1PageSize, "reuse")
				if err != nil {
					return err
				}
				if got != regions[j] {
					return fmt.Errorf("hole at %v not reused (got %v)", regions[j], got)
				}
				return v.CheckInvariant()
			}},
	)
}
