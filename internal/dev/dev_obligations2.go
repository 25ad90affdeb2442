package dev

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/hw/machine"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerMoreObligations is the second wave of driver VCs: console
// byte fidelity, timer handler replacement, and block-driver
// serialization (no interleaved request corruption).
func registerMoreObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "dev", Name: "console-byte-fidelity", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				m := machine.New(machine.Config{})
				c := NewConsole(m.Serial)
				payload := make([]byte, 2000)
				r.Read(payload)
				// Write in random fragments; the UART log must be the
				// exact concatenation.
				for off := 0; off < len(payload); {
					n := 1 + r.Intn(64)
					if off+n > len(payload) {
						n = len(payload) - off
					}
					if _, err := c.Write(payload[off : off+n]); err != nil {
						return err
					}
					off += n
				}
				if got := m.Serial.Output(); got != string(payload) {
					return fmt.Errorf("console output diverged (%d vs %d bytes)", len(got), len(payload))
				}
				return nil
			}},
		verifier.Obligation{Module: "dev", Name: "block-driver-request-serialization", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Interleaved reads and writes through one driver (and
				// one bounce buffer) never corrupt each other: a read
				// immediately after a write to a different block returns
				// that block's bytes, not the bounce residue.
				m := machine.New(machine.Config{DiskBlocks: 64})
				drv, err := NewBlockDriver(m.Disk, m.Mem, 0x8000)
				if err != nil {
					return err
				}
				ref := map[uint64][]byte{}
				for i := 0; i < 300; i++ {
					wb := uint64(r.Intn(64))
					p := make([]byte, machine.DiskBlockSize)
					r.Read(p)
					if err := drv.WriteBlock(wb, p); err != nil {
						return err
					}
					ref[wb] = append([]byte(nil), p...)
					rb := uint64(r.Intn(64))
					q := make([]byte, machine.DiskBlockSize)
					if err := drv.ReadBlock(rb, q); err != nil {
						return err
					}
					want := ref[rb]
					if want == nil {
						want = make([]byte, machine.DiskBlockSize)
					}
					for j := range q {
						if q[j] != want[j] {
							return fmt.Errorf("iter %d: block %d byte %d corrupted after writing block %d",
								i, rb, j, wb)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "dev", Name: "timer-handler-replacement", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				m := machine.New(machine.Config{Cores: 1})
				d := NewDispatcher(m.IC)
				td, err := NewTimerDriver(m.Timer, d)
				if err != nil {
					return err
				}
				a, b := 0, 0
				td.Start(10, func() { a++ })
				m.Timer.Advance(10)
				if a == 0 {
					return fmt.Errorf("first handler never ran")
				}
				// Swapping the callback must take effect for later ticks.
				td.Start(10, func() { b++ })
				m.Timer.Advance(10)
				if b == 0 {
					return fmt.Errorf("replacement handler never ran")
				}
				aBefore := a
				m.Timer.Advance(10)
				if a != aBefore {
					return fmt.Errorf("old handler still firing after replacement")
				}
				return nil
			}},
	)
}
