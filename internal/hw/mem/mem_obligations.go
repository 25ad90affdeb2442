package mem

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the physical-memory model's
// verification conditions: equivalence with a flat reference model
// under random access streams, bounds/alignment enforcement (the
// simulated machine-check), zero-fill semantics, and frame reclaim.
func RegisterObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "hw/mem", Name: "matches-flat-reference", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				const size = 1 << 16
				m := New(size)
				ref := make([]byte, size)
				for i := 0; i < 2000; i++ {
					switch r.Intn(4) {
					case 0: // word write
						a := PAddr(r.Intn(size/8)) * 8
						v := r.Uint64()
						if err := m.Write64(a, v); err != nil {
							return err
						}
						for j := 0; j < 8; j++ {
							ref[int(a)+j] = byte(v >> (8 * j))
						}
					case 1: // word read
						a := PAddr(r.Intn(size/8)) * 8
						v, err := m.Read64(a)
						if err != nil {
							return err
						}
						var want uint64
						for j := 7; j >= 0; j-- {
							want = want<<8 | uint64(ref[int(a)+j])
						}
						if v != want {
							return fmt.Errorf("read64(%v) = %#x, ref %#x", a, v, want)
						}
					case 2: // byte-range write
						n := r.Intn(300)
						a := r.Intn(size - n)
						p := make([]byte, n)
						r.Read(p)
						if err := m.Write(PAddr(a), p); err != nil {
							return err
						}
						copy(ref[a:], p)
					default: // byte-range read
						n := r.Intn(300)
						a := r.Intn(size - n)
						p := make([]byte, n)
						if err := m.Read(PAddr(a), p); err != nil {
							return err
						}
						if !bytes.Equal(p, ref[a:a+n]) {
							return fmt.Errorf("range read at %#x diverged from reference", a)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "hw/mem", Name: "bounds-and-alignment-enforced", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				m := New(1 << 16)
				for i := 0; i < 500; i++ {
					// Unaligned word accesses must machine-check.
					a := PAddr(r.Intn(1 << 16))
					if a%8 != 0 {
						if _, err := m.Read64(a); err == nil {
							return fmt.Errorf("unaligned read64 at %v accepted", a)
						}
						if err := m.Write64(a, 1); err == nil {
							return fmt.Errorf("unaligned write64 at %v accepted", a)
						}
					}
					// Out-of-bounds must machine-check, in-bounds must not.
					past := PAddr(1<<16) + PAddr(r.Intn(1<<20))*8
					if _, err := m.Read64(past &^ 7); err == nil {
						return fmt.Errorf("OOB read64 at %v accepted", past)
					}
				}
				// Wraparound length.
				if err := m.Read(PAddr(^uint64(0))-3, make([]byte, 8)); err == nil {
					return fmt.Errorf("wraparound read accepted")
				}
				return nil
			}},
		verifier.Obligation{Module: "hw/mem", Name: "untouched-reads-zero", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				m := New(1 << 20)
				for i := 0; i < 200; i++ {
					a := PAddr(r.Intn(1<<20/8)) * 8
					v, err := m.Read64(a)
					if err != nil {
						return err
					}
					if v != 0 {
						return fmt.Errorf("pristine RAM at %v reads %#x", a, v)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "hw/mem", Name: "zero-frame-reclaims", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				m := New(1 << 20)
				var frames []PAddr
				for i := 0; i < 50; i++ {
					f := PAddr(r.Intn(1<<20/PageSize)) * PageSize
					if err := m.Write64(f+8, r.Uint64()|1); err != nil {
						return err
					}
					frames = append(frames, f)
				}
				touched := m.TouchedFrames()
				if touched == 0 {
					return fmt.Errorf("no frames materialized")
				}
				for _, f := range frames {
					if err := m.ZeroFrame(f); err != nil {
						return err
					}
					v, err := m.Read64(f + 8)
					if err != nil || v != 0 {
						return fmt.Errorf("frame %v not zeroed: %#x, %v", f, v, err)
					}
				}
				if m.TouchedFrames() != 0 {
					return fmt.Errorf("%d frames still materialized after zeroing", m.TouchedFrames())
				}
				// A frame materialized next may be handed a retired frame's
				// backing: it must read as zero wherever it was not written.
				for i, f := range frames {
					g := (f + PageSize) % (1 << 20)
					if err := m.Write64(g, uint64(i)+1); err != nil {
						return err
					}
					if v, err := m.Read64(g + 8); err != nil || v != 0 {
						return fmt.Errorf("frame %v materialized after a zeroing reads %#x at +8, %v", g, v, err)
					}
				}
				if got := m.TouchedFrames(); got == 0 || got > len(frames) {
					return fmt.Errorf("%d frames materialized after rewriting %d", got, len(frames))
				}
				return nil
			}},
	)
}
