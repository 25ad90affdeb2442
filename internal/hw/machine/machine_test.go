package machine

import (
	"bytes"
	"testing"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/verifier"
)

func TestNewDefaults(t *testing.T) {
	m := New(Config{})
	if len(m.Cores) != 1 || m.Mem.Size() == 0 || m.Disk.NumBlocks() == 0 {
		t.Fatalf("defaults wrong: cores=%d", len(m.Cores))
	}
	if m.Cores[0].MMU == nil {
		t.Fatal("core has no MMU")
	}
}

func TestInterruptRoundRobinAndPriority(t *testing.T) {
	ic := NewInterruptController(2)
	ic.Raise(IRQDisk) // core 0
	ic.Raise(IRQDisk) // core 1
	if got := ic.Pending(0); got != IRQDisk {
		t.Fatalf("core 0 pending = %d", got)
	}
	if got := ic.Pending(1); got != IRQDisk {
		t.Fatalf("core 1 pending = %d", got)
	}
	if got := ic.Pending(0); got != -1 {
		t.Fatalf("spurious pending = %d", got)
	}
	// Lowest IRQ number delivered first.
	ic.RaiseOn(0, IRQNIC)
	ic.RaiseOn(0, IRQTimer)
	if got := ic.Pending(0); got != IRQTimer {
		t.Fatalf("priority pending = %d", got)
	}
	if got := ic.Pending(0); got != IRQNIC {
		t.Fatalf("second pending = %d", got)
	}
}

func TestInterruptMasking(t *testing.T) {
	ic := NewInterruptController(1)
	ic.Mask(IRQSerial)
	ic.Raise(IRQSerial)
	if got := ic.Pending(0); got != -1 {
		t.Fatalf("masked IRQ delivered: %d", got)
	}
	ic.Unmask(IRQSerial)
	ic.Raise(IRQSerial)
	if got := ic.Pending(0); got != IRQSerial {
		t.Fatalf("unmasked IRQ lost: %d", got)
	}
}

func TestTimerTicksAllCores(t *testing.T) {
	m := New(Config{Cores: 2})
	m.Timer.Program(100)
	m.Timer.Advance(250) // 2 full intervals, 50 left over
	if m.Timer.Ticks() != 2 {
		t.Fatalf("ticks = %d", m.Timer.Ticks())
	}
	for c := 0; c < 2; c++ {
		if got := m.IC.Pending(c); got != IRQTimer {
			t.Fatalf("core %d pending = %d", c, got)
		}
	}
	m.Timer.Advance(50) // completes the third interval
	if m.Timer.Ticks() != 3 {
		t.Fatalf("ticks = %d", m.Timer.Ticks())
	}
	// Disabled timer never fires.
	m.Timer.Program(0)
	m.Timer.Advance(10_000)
	if m.Timer.Ticks() != 3 {
		t.Fatal("disabled timer fired")
	}
}

func TestSerialEcho(t *testing.T) {
	m := New(Config{})
	for _, b := range []byte("boot: ok\n") {
		m.Serial.TX(b)
	}
	if m.Serial.Output() != "boot: ok\n" {
		t.Fatalf("output = %q", m.Serial.Output())
	}
	m.Serial.InjectInput([]byte("hi"))
	if got := m.IC.Pending(0); got != IRQSerial {
		t.Fatalf("no serial IRQ: %d", got)
	}
	b, ok := m.Serial.RX()
	if !ok || b != 'h' {
		t.Fatalf("rx = %c %t", b, ok)
	}
	b, _ = m.Serial.RX()
	if b != 'i' {
		t.Fatalf("rx2 = %c", b)
	}
	if _, ok := m.Serial.RX(); ok {
		t.Fatal("phantom input")
	}
}

func TestDiskDMARoundTrip(t *testing.T) {
	m := New(Config{DiskBlocks: 64})
	src := mem.PAddr(0x1000)
	dst := mem.PAddr(0x2000)
	payload := make([]byte, DiskBlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := m.Mem.Write(src, payload); err != nil {
		t.Fatal(err)
	}
	id1 := m.Disk.Submit(true, 7, src)
	if got := m.IC.Pending(0); got != IRQDisk {
		t.Fatalf("no disk IRQ: %d", got)
	}
	c, ok := m.Disk.Complete()
	if !ok || c.ID != id1 || c.Err != "" || !c.Write || c.Block != 7 {
		t.Fatalf("completion = %+v %t", c, ok)
	}
	m.Disk.Submit(false, 7, dst)
	if c, ok = m.Disk.Complete(); !ok || c.Err != "" {
		t.Fatalf("read completion = %+v", c)
	}
	got := make([]byte, DiskBlockSize)
	if err := m.Mem.Read(dst, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestDiskErrors(t *testing.T) {
	m := New(Config{DiskBlocks: 8})
	m.Disk.Submit(false, 99, 0x1000)
	c, ok := m.Disk.Complete()
	if !ok || c.Err == "" {
		t.Fatalf("out-of-range read completed clean: %+v", c)
	}
	// Unwritten blocks read as zero.
	if err := m.Mem.Write(0x3000, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	m.Disk.Submit(false, 3, 0x3000)
	_, _ = m.Disk.Complete()
	v, _ := m.Mem.Read64(0x3000)
	if v != 0 {
		t.Fatalf("unwritten block read %#x", v)
	}
}

// diskRequest submits one request and consumes its completion.
func diskRequest(t *testing.T, d *Disk, write bool, block uint64, dma mem.PAddr) DiskCompletion {
	t.Helper()
	id := d.Submit(write, block, dma)
	c, ok := d.Complete()
	if !ok || c.ID != id {
		t.Fatalf("request %d: completion %+v, %t", id, c, ok)
	}
	return c
}

// diskBlock reads block back through DMA at scratch.
func diskBlock(t *testing.T, m *Machine, block uint64, scratch mem.PAddr) []byte {
	t.Helper()
	if c := diskRequest(t, m.Disk, false, block, scratch); c.Err != "" {
		t.Fatalf("read block %d: %s", block, c.Err)
	}
	got := make([]byte, DiskBlockSize)
	if err := m.Mem.Read(scratch, got); err != nil {
		t.Fatal(err)
	}
	return got
}

func filled(b byte) []byte {
	p := make([]byte, DiskBlockSize)
	for i := range p {
		p[i] = b + byte(i)
	}
	return p
}

// TestDiskRequestsAllocateNothing pins the in-place disk: once a block
// is written and the completion queue has its array, a write+complete
// and a read+complete of that block allocate nothing.
func TestDiskRequestsAllocateNothing(t *testing.T) {
	m := New(Config{DiskBlocks: 16})
	src, dst := mem.PAddr(0x1000), mem.PAddr(0x2000)
	if err := m.Mem.Write(src, filled(1)); err != nil {
		t.Fatal(err)
	}
	request := func(write bool, dma mem.PAddr) func() {
		return func() {
			m.Disk.Submit(write, 5, dma)
			if c, ok := m.Disk.Complete(); !ok || c.Err != "" {
				t.Fatalf("completion %+v, %t", c, ok)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{{"write+complete", request(true, src)}, {"read+complete", request(false, dst)}} {
		tc.run() // warm: the block and the completion queue's array exist
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("a warm %s allocates %v objects, want 0", tc.name, n)
		}
	}
	if got := diskBlock(t, m, 5, dst); !bytes.Equal(got, filled(1)) {
		t.Fatal("the block read back differs from the one written")
	}
}

// TestDiskFailedWriteKeepsBlock checks that a write whose DMA read of
// memory fails reports the error and leaves the block it would have
// overwritten in place byte for byte.
func TestDiskFailedWriteKeepsBlock(t *testing.T) {
	m := New(Config{DiskBlocks: 16})
	src, scratch := mem.PAddr(0x1000), mem.PAddr(0x2000)
	if err := m.Mem.Write(src, filled(7)); err != nil {
		t.Fatal(err)
	}
	if c := diskRequest(t, m.Disk, true, 3, src); c.Err != "" {
		t.Fatal(c.Err)
	}
	// The DMA source runs past the end of memory: the read fails.
	if c := diskRequest(t, m.Disk, true, 3, m.Mem.Size()-DiskBlockSize/2); c.Err == "" {
		t.Fatal("a write from past the end of memory completed clean")
	}
	if got := diskBlock(t, m, 3, scratch); !bytes.Equal(got, filled(7)) {
		t.Fatal("a failed write changed the stored block")
	}
}

// TestInsertedImageIsACopy checks that an image copied out of one disk
// (ForEachBlock into the other's Insert) owns its blocks: rewriting the
// source block in place does not reach the copy.
func TestInsertedImageIsACopy(t *testing.T) {
	a, b := New(Config{DiskBlocks: 16}), New(Config{DiskBlocks: 16})
	src, scratch := mem.PAddr(0x1000), mem.PAddr(0x2000)
	if err := a.Mem.Write(src, filled(3)); err != nil {
		t.Fatal(err)
	}
	if c := diskRequest(t, a.Disk, true, 9, src); c.Err != "" {
		t.Fatal(c.Err)
	}
	if err := a.Disk.ForEachBlock(b.Disk.Insert); err != nil {
		t.Fatal(err)
	}
	if err := a.Mem.Write(src, filled(200)); err != nil {
		t.Fatal(err)
	}
	if c := diskRequest(t, a.Disk, true, 9, src); c.Err != "" {
		t.Fatal(c.Err)
	}
	if got := diskBlock(t, a, 9, scratch); !bytes.Equal(got, filled(200)) {
		t.Fatal("the source disk did not take the rewrite")
	}
	if got := diskBlock(t, b, 9, scratch); !bytes.Equal(got, filled(3)) {
		t.Fatal("rewriting the source block changed the image copied from it")
	}
}

func TestNICLoop(t *testing.T) {
	a := New(Config{NICAddr: 1})
	b := New(Config{NICAddr: 2})
	// Cross-connect the two NICs.
	a.NIC.AttachWire(b.NIC.Deliver)
	b.NIC.AttachWire(a.NIC.Deliver)

	if err := a.NIC.TX([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got := b.IC.Pending(0); got != IRQNIC {
		t.Fatalf("no NIC IRQ on b: %d", got)
	}
	f, ok := b.NIC.RX()
	if !ok || string(f) != "ping" {
		t.Fatalf("rx = %q %t", f, ok)
	}
	// Mutating the received frame must not affect a retransmit.
	f[0] = 'X'
	if err := b.NIC.TX([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	g, _ := a.NIC.RX()
	if string(g) != "pong" {
		t.Fatalf("reply = %q", g)
	}
}

func TestNICDrops(t *testing.T) {
	m := New(Config{})
	// No wire attached: TX drops silently.
	if err := m.NIC.TX([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if m.NIC.Drops() != 1 {
		t.Fatalf("drops = %d", m.NIC.Drops())
	}
	// Oversized frames rejected.
	if err := m.NIC.TX(make([]byte, MaxFrameLen+1)); err == nil {
		t.Fatal("jumbo frame accepted")
	}
	m.NIC.Deliver(make([]byte, MaxFrameLen+1))
	if _, ok := m.NIC.RX(); ok {
		t.Fatal("oversized frame delivered")
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 101})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
