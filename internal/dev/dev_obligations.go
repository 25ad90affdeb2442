package dev

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/machine"
	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the driver verification conditions:
// the block driver behaves exactly like the reference in-memory block
// store under random request streams, the filesystem persists through
// the real driver, and IRQ dispatch routes every line to its handler.
func RegisterObligations(g *verifier.Registry) {
	registerMoreObligations(g)
	g.Register(
		verifier.Obligation{Module: "dev", Name: "block-driver-matches-reference", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				m := machine.New(machine.Config{DiskBlocks: 256})
				drv, err := NewBlockDriver(m.Disk, m.Mem, 0x4000)
				if err != nil {
					return err
				}
				ref := fs.NewMemBlockStore(machine.DiskBlockSize, 256)
				for i := 0; i < 400; i++ {
					block := uint64(r.Intn(256))
					if r.Intn(2) == 0 {
						p := make([]byte, machine.DiskBlockSize)
						r.Read(p)
						e1 := drv.WriteBlock(block, p)
						e2 := ref.WriteBlock(block, p)
						if (e1 == nil) != (e2 == nil) {
							return fmt.Errorf("write %d: driver err %v, ref err %v", block, e1, e2)
						}
					} else {
						p1 := make([]byte, machine.DiskBlockSize)
						p2 := make([]byte, machine.DiskBlockSize)
						e1 := drv.ReadBlock(block, p1)
						e2 := ref.ReadBlock(block, p2)
						if (e1 == nil) != (e2 == nil) || !bytes.Equal(p1, p2) {
							return fmt.Errorf("read %d diverged", block)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "dev", Name: "fs-persists-through-disk-driver", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				m := machine.New(machine.Config{DiskBlocks: 1 << 14})
				drv, err := NewBlockDriver(m.Disk, m.Mem, 0x4000)
				if err != nil {
					return err
				}
				f := fs.New()
				ino, err := f.Create("/data")
				if err != nil {
					return err
				}
				blob := make([]byte, 10_000)
				r.Read(blob)
				if _, err := f.WriteAt(ino, 0, blob); err != nil {
					return err
				}
				if err := fs.Save(f, drv); err != nil {
					return err
				}
				g2, err := fs.Load(drv)
				if err != nil {
					return err
				}
				if !fs.Equal(f, g2) {
					return fmt.Errorf("filesystem differs after disk round trip")
				}
				return nil
			}},
		verifier.Obligation{Module: "dev", Name: "irq-dispatch-routes-all-lines", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				ic := machine.NewInterruptController(1)
				d := NewDispatcher(ic)
				hits := map[int]int{}
				lines := []int{machine.IRQTimer, machine.IRQDisk, machine.IRQNIC, machine.IRQSerial}
				for _, irq := range lines {
					irq := irq
					if err := d.Handle(irq, func() { hits[irq]++ }); err != nil {
						return err
					}
				}
				for i := 0; i < 100; i++ {
					irq := lines[r.Intn(len(lines))]
					before := hits[irq]
					ic.Raise(irq)
					if hits[irq] != before+1 {
						return fmt.Errorf("raise %d of irq %d: handler ran %d times before Raise returned, want 1", i, irq, hits[irq]-before)
					}
				}
				total := 0
				for irq, n := range hits {
					if d.Count(irq) != uint64(n) {
						return fmt.Errorf("irq %d count mismatch", irq)
					}
					total += n
				}
				if total != 100 {
					return fmt.Errorf("dispatched %d of 100 interrupts", total)
				}
				return nil
			}},
	)
}
