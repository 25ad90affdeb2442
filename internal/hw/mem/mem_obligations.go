package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the physical-memory model's
// verification conditions: equivalence with a flat reference model
// under random access streams, bounds/alignment enforcement (the
// simulated machine-check), zero-fill semantics, frame reclaim, and the
// frame-granular read against the word-granular one.
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
					// Dirty a seed-chosen word and the last one.
					for _, a := range []PAddr{f + PAddr(r.Intn(FrameWords))*WordSize, f + PageSize - WordSize} {
						if err := m.Write64(a, r.Uint64()|1); err != nil {
							return err
						}
					}
					frames = append(frames, f)
				}
				touched := m.TouchedFrames()
				if touched == 0 {
					return fmt.Errorf("no frames materialized")
				}
				var words, zero [FrameWords]uint64
				for _, f := range frames {
					if err := m.ZeroFrame(f); err != nil {
						return err
					}
					words[r.Intn(FrameWords)] = 1 // the read must overwrite, not merge
					touched, err := m.ReadFrame(f, &words)
					if err != nil || touched || words != zero {
						return fmt.Errorf("frame %v not zeroed whole (touched=%t): %v", f, touched, err)
					}
				}
				if m.TouchedFrames() != 0 {
					return fmt.Errorf("%d frames still materialized after zeroing", m.TouchedFrames())
				}
				// A frame materialized next may be handed a retired frame's
				// backing: it must read as zero wherever it was not written.
				// One slot for the whole pass, so a frame drawn twice is
				// rewritten in place.
				slot := r.Intn(FrameWords)
				for i, f := range frames {
					g := (f + PageSize) % (1 << 20)
					if err := m.Write64(g+PAddr(slot)*WordSize, uint64(i)+1); err != nil {
						return err
					}
					touched, err := m.ReadFrame(g, &words)
					if err != nil || !touched || words[slot] != uint64(i)+1 {
						return fmt.Errorf("frame %v after writing word %d: touched=%t, reads %#x, %v",
							g, slot, touched, words[slot], err)
					}
					words[slot] = 0
					if words != zero {
						return fmt.Errorf("frame %v materialized after a zeroing is dirty outside word %d", g, slot)
					}
				}
				if got := m.TouchedFrames(); got == 0 || got > len(frames) {
					return fmt.Errorf("%d frames materialized after rewriting %d", got, len(frames))
				}
				return nil
			}},
		verifier.Obligation{Module: "hw/mem", Name: "frame-read-equals-word-reads", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				const size = 64 * PageSize
				m := New(size)
				// agree reads the frame at base both ways and requires the
				// same 512 words, the frame read counted as one access.
				agree := func(what string, base PAddr, wantTouched bool) error {
					var words [FrameWords]uint64
					for i := range words {
						words[i] = r.Uint64() // stale output the read must replace
					}
					before := m.Stats()
					touched, err := m.ReadFrame(base, &words)
					if err != nil {
						return fmt.Errorf("%s: ReadFrame(%v): %w", what, base, err)
					}
					if d := m.Stats(); d.Reads != before.Reads+1 || d.Writes != before.Writes {
						return fmt.Errorf("%s: a frame read counted as %d reads, %d writes", what,
							d.Reads-before.Reads, d.Writes-before.Writes)
					}
					if touched != wantTouched {
						return fmt.Errorf("%s: frame %v touched=%t, want %t", what, base, touched, wantTouched)
					}
					for i, got := range &words {
						want, err := m.Read64(base + PAddr(i)*WordSize)
						if err != nil {
							return err
						}
						if got != want || (!touched && got != 0) {
							return fmt.Errorf("%s: frame %v word %d: frame read %#x, word read %#x", what, base, i, got, want)
						}
					}
					return nil
				}
				scribble := func(base PAddr) error {
					for n := 1 + r.Intn(40); n > 0; n-- {
						if err := m.Write64(base+PAddr(r.Intn(FrameWords))*WordSize, r.Uint64()|1); err != nil {
							return err
						}
					}
					return nil
				}
				last := PAddr(size - PageSize)
				a := PAddr(1+r.Intn(20)) * PageSize
				b := a + PAddr(1+r.Intn(20))*PageSize // a < b < last
				for _, f := range []PAddr{a, last} {
					if err := scribble(f); err != nil {
						return err
					}
				}
				if err := agree("touched", a, true); err != nil {
					return err
				}
				if err := agree("last frame", last, true); err != nil {
					return err
				}
				if err := agree("untouched", b, false); err != nil {
					return err
				}
				// a's array goes to spare and comes back as b's.
				if err := m.ZeroFrame(a); err != nil {
					return err
				}
				if err := agree("zeroed", a, false); err != nil {
					return err
				}
				if err := scribble(b); err != nil {
					return err
				}
				if err := agree("re-materialised from spare", b, true); err != nil {
					return err
				}
				// Illegal bases machine-check and write nothing.
				var out, keep [FrameWords]uint64
				for i := range out {
					out[i] = r.Uint64()
				}
				keep = out
				for _, bad := range []PAddr{
					a + PAddr(1+r.Intn(PageSize-1)),     // unaligned
					size,                                // one past the end
					PAddr(^uint64(0)) &^ (PageSize - 1), // base+PageSize wraps
				} {
					_, err := m.ReadFrame(bad, &out)
					var ae *AccessError
					if !errors.As(err, &ae) {
						return fmt.Errorf("ReadFrame(%v) = %v, want an *AccessError", bad, err)
					}
					if out != keep {
						return fmt.Errorf("ReadFrame(%v) failed but wrote its output", bad)
					}
				}
				return nil
			}},
	)
}
