package dev

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/verified-os/vnros/internal/hw/machine"
	"github.com/verified-os/vnros/internal/verifier"
)

func TestConsoleWriter(t *testing.T) {
	m := machine.New(machine.Config{})
	c := NewConsole(m.Serial)
	fmt.Fprintf(c, "pid %d: %s\n", 7, "ready")
	if m.Serial.Output() != "pid 7: ready\n" {
		t.Fatalf("output = %q", m.Serial.Output())
	}
}

func TestTimerDriverTicks(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	d := NewDispatcher(m.IC)
	td, err := NewTimerDriver(m.Timer, d)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	td.Start(10, func() { fired++ })
	m.Timer.Advance(35) // 3 ticks, each taken as it is raised
	if fired != 3 || td.TicksSeen() != 3 {
		t.Fatalf("fired = %d seen = %d, want 3 and 3", fired, td.TicksSeen())
	}
}

func TestBlockDriverRoundTrip(t *testing.T) {
	m := machine.New(machine.Config{DiskBlocks: 32})
	drv, err := NewBlockDriver(m.Disk, m.Mem, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, machine.DiskBlockSize)
	for i := range p {
		p[i] = byte(i * 7)
	}
	if err := drv.WriteBlock(5, p); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, machine.DiskBlockSize)
	if err := drv.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("round trip mismatch")
	}
	if err := drv.ReadBlock(999, got); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if err := drv.WriteBlock(5, p[:10]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestBlockDriverRejectsUnalignedBounce(t *testing.T) {
	m := machine.New(machine.Config{})
	if _, err := NewBlockDriver(m.Disk, m.Mem, 0x8001); err == nil {
		t.Fatal("unaligned bounce accepted")
	}
}

func TestNICDriverDelivery(t *testing.T) {
	ma := machine.New(machine.Config{NICAddr: 1})
	mb := machine.New(machine.Config{NICAddr: 2})
	ma.NIC.AttachWire(mb.NIC.Deliver)
	mb.NIC.AttachWire(ma.NIC.Deliver)

	da := NewDispatcher(ma.IC)
	db := NewDispatcher(mb.IC)
	nda, err := NewNICDriver(ma.NIC, da)
	if err != nil {
		t.Fatal(err)
	}
	ndb, err := NewNICDriver(mb.NIC, db)
	if err != nil {
		t.Fatal(err)
	}
	var gotB [][]byte
	ndb.SetHandler(func(f []byte) { gotB = append(gotB, f) })
	var gotA [][]byte
	nda.SetHandler(func(f []byte) { gotA = append(gotA, f) })

	if err := nda.Send([]byte("syn")); err != nil {
		t.Fatal(err)
	}
	if len(gotB) != 1 || string(gotB[0]) != "syn" {
		t.Fatalf("b received %q", gotB)
	}
	if err := ndb.Send([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 1 || string(gotA[0]) != "ack" {
		t.Fatalf("a received %q", gotA)
	}
	if nda.RxCount() != 1 || ndb.RxCount() != 1 {
		t.Fatalf("rx counts = %d, %d", nda.RxCount(), ndb.RxCount())
	}
}

// TestHandlerRaisesFromInside is the loopback-echo shape: a handler
// raises a second line from inside itself, on the same goroutine, which
// lands on the core being drained (one core) or on another (two). Both
// lines are handled once by the time the outer Raise returns, and
// nothing deadlocks (no dispatcher or controller lock is held across a
// handler).
func TestHandlerRaisesFromInside(t *testing.T) {
	for _, cores := range []int{1, 2} {
		ic := machine.NewInterruptController(cores)
		d := NewDispatcher(ic)
		var first, second int
		if err := d.Handle(machine.IRQNIC, func() {
			first++
			ic.Raise(machine.IRQSerial)
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.Handle(machine.IRQSerial, func() { second++ }); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			ic.Raise(machine.IRQNIC)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("cores=%d: a raise from inside a handler deadlocked", cores)
		}
		if first != 1 || second != 1 {
			t.Errorf("cores=%d: handled NIC %d and serial %d times, want 1 and 1", cores, first, second)
		}
		if d.Count(machine.IRQNIC) != 1 || d.Count(machine.IRQSerial) != 1 {
			t.Errorf("cores=%d: counts NIC %d serial %d, want 1 and 1", cores, d.Count(machine.IRQNIC), d.Count(machine.IRQSerial))
		}
		for c := 0; c < cores; c++ {
			if irq := ic.Pending(c); irq != -1 {
				t.Errorf("cores=%d: core %d still has irq %d pending", cores, c, irq)
			}
		}
	}
}

func TestDispatcherBadIRQ(t *testing.T) {
	d := NewDispatcher(machine.NewInterruptController(1))
	if err := d.Handle(-1, func() {}); err == nil {
		t.Fatal("negative IRQ accepted")
	}
	if err := d.Handle(machine.NumIRQs, func() {}); err == nil {
		t.Fatal("out-of-range IRQ accepted")
	}
	if d.Count(-5) != 0 {
		t.Fatal("Count on bad irq")
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 41})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
