package machine

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// registerMoreObligations is the third platform wave: IRQ masking
// windows, per-core IPI targeting, and disk completion-queue ordering.
func registerMoreObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "hw/machine", Name: "irq-mask-window", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				ic := NewInterruptController(1)
				// Raised-while-masked interrupts are lost at the line
				// level (edge semantics); raised-after-unmask arrive.
				ic.Mask(IRQDisk)
				ic.Raise(IRQDisk)
				if got := ic.Pending(0); got != -1 {
					return fmt.Errorf("masked IRQ delivered: %d", got)
				}
				ic.Unmask(IRQDisk)
				if got := ic.Pending(0); got != -1 {
					return fmt.Errorf("unmask replayed a lost edge: %d", got)
				}
				ic.Raise(IRQDisk)
				if got := ic.Pending(0); got != IRQDisk {
					return fmt.Errorf("post-unmask IRQ lost: %d", got)
				}
				// Masking one line never affects another.
				ic.Mask(IRQNIC)
				ic.Raise(IRQTimer)
				if got := ic.Pending(0); got != IRQTimer {
					return fmt.Errorf("unrelated mask suppressed timer: %d", got)
				}
				return nil
			}},
		verifier.Obligation{Module: "hw/machine", Name: "ipi-targets-exact-core", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				const cores = 4
				ic := NewInterruptController(cores)
				for trial := 0; trial < 100; trial++ {
					target := r.Intn(cores)
					ic.RaiseOn(target, IRQTimer)
					for c := 0; c < cores; c++ {
						got := ic.Pending(c)
						if c == target && got != IRQTimer {
							return fmt.Errorf("target core %d missed IPI: %d", c, got)
						}
						if c != target && got != -1 {
							return fmt.Errorf("core %d received stray IPI: %d", c, got)
						}
					}
				}
				// Out-of-range targets are ignored, not misrouted.
				ic.RaiseOn(-1, IRQTimer)
				ic.RaiseOn(cores, IRQTimer)
				for c := 0; c < cores; c++ {
					if got := ic.Pending(c); got != -1 {
						return fmt.Errorf("out-of-range IPI landed on core %d", c)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "hw/machine", Name: "disk-completions-in-order", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				m := New(Config{DiskBlocks: 32})
				var ids []uint64
				for i := 0; i < 50; i++ {
					ids = append(ids, m.Disk.Submit(r.Intn(2) == 0, uint64(r.Intn(32)), 0x8000))
				}
				for i, want := range ids {
					c, ok := m.Disk.Complete()
					if !ok {
						return fmt.Errorf("completion %d missing", i)
					}
					if c.ID != want {
						return fmt.Errorf("completion %d has id %d, want %d (reordered)", i, c.ID, want)
					}
				}
				if _, ok := m.Disk.Complete(); ok {
					return fmt.Errorf("phantom completion")
				}
				return nil
			}},
	)
}
