// Package machine models the rest of the simulated hardware platform:
// cores with MMUs, an interrupt controller, a programmable timer, a
// serial console, a DMA block-storage controller, and a network
// interface. These are the devices behind the paper's §1 "device
// drivers (network controller, disk controllers, interrupt controller,
// timer, serial/graphical output)" component list; the drivers
// themselves live in internal/dev.
//
// The devices follow real-hardware idioms scaled down: MMIO-style
// register access methods, DMA into simulated physical memory, and
// completion interrupts routed through the interrupt controller.
package machine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
)

// IRQ numbers on the simulated platform.
const (
	IRQTimer  = 0
	IRQSerial = 4
	IRQDisk   = 14
	IRQNIC    = 11
	NumIRQs   = 32
)

// Machine is the whole simulated platform.
type Machine struct {
	Mem    *mem.PhysMem
	Cores  []*Core
	IC     *InterruptController
	Timer  *Timer
	Serial *Serial
	Disk   *Disk
	NIC    *NIC
}

// Config sizes a machine.
type Config struct {
	Cores      int
	MemBytes   mem.PAddr
	DiskBlocks uint64
	// NICAddr is the simulated MAC-like address (0 = derived default).
	NICAddr uint64
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 256 << 20
	}
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 1 << 16
	}
	if cfg.NICAddr == 0 {
		cfg.NICAddr = 0x02_00_00_00_00_01
	}
	m := &Machine{Mem: mem.New(cfg.MemBytes)}
	m.IC = NewInterruptController(cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		m.Cores = append(m.Cores, &Core{ID: i, MMU: mmu.New(m.Mem)})
	}
	m.Timer = &Timer{ic: m.IC}
	m.Serial = &Serial{ic: m.IC}
	m.Disk = NewDisk(m.Mem, m.IC, cfg.DiskBlocks)
	m.NIC = NewNIC(m.Mem, m.IC, cfg.NICAddr)
	return m
}

// Core is one CPU with its private MMU (and therefore TLB).
type Core struct {
	ID  int
	MMU *mmu.MMU
}

// InterruptController routes device interrupts to cores: a per-core
// pending bitmask with round-robin delivery of device IRQs.
type InterruptController struct {
	mu      sync.Mutex
	pending []uint32 // per-core bitmask
	next    int      // round-robin cursor for device IRQs
	masked  uint32   // globally masked IRQ lines

	// npend counts pending IRQ bits across all cores, maintained under
	// mu but readable without it: HasPending is the hot-path "anything
	// to deliver anywhere?" probe the syscall entry uses to decide
	// whether a full per-core drain sweep is worth taking.
	npend atomic.Int32
}

// NewInterruptController creates a controller for n cores.
func NewInterruptController(n int) *InterruptController {
	return &InterruptController{pending: make([]uint32, n)}
}

// Raise asserts an IRQ line; it is delivered to one core (round-robin),
// unless masked.
func (ic *InterruptController) Raise(irq int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if irq < 0 || irq >= NumIRQs || ic.masked&(1<<uint(irq)) != 0 {
		return
	}
	core := ic.next % len(ic.pending)
	ic.next++
	if ic.pending[core]&(1<<uint(irq)) == 0 {
		ic.npend.Add(1)
	}
	ic.pending[core] |= 1 << uint(irq)
}

// RaiseOn asserts an IRQ on a specific core (IPIs, timer per-core
// ticks).
func (ic *InterruptController) RaiseOn(core, irq int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if irq < 0 || irq >= NumIRQs || core < 0 || core >= len(ic.pending) {
		return
	}
	if ic.masked&(1<<uint(irq)) != 0 {
		return
	}
	if ic.pending[core]&(1<<uint(irq)) == 0 {
		ic.npend.Add(1)
	}
	ic.pending[core] |= 1 << uint(irq)
}

// HasPending reports whether any core has an undelivered IRQ. One
// atomic load, no lock: the syscall path polls only the calling core
// and takes the all-core sweep only when this returns true, so an IRQ
// parked on an idle core is still delivered without every syscall
// paying a cores-length locked scan.
func (ic *InterruptController) HasPending() bool { return ic.npend.Load() > 0 }

// Pending returns and clears the highest-priority (lowest-numbered)
// pending IRQ for a core, or -1.
func (ic *InterruptController) Pending(core int) int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if core < 0 || core >= len(ic.pending) {
		return -1
	}
	p := ic.pending[core]
	if p == 0 {
		return -1
	}
	for irq := 0; irq < NumIRQs; irq++ {
		if p&(1<<uint(irq)) != 0 {
			ic.pending[core] &^= 1 << uint(irq)
			ic.npend.Add(-1)
			return irq
		}
	}
	return -1
}

// Mask disables an IRQ line platform-wide.
func (ic *InterruptController) Mask(irq int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if irq >= 0 && irq < NumIRQs {
		ic.masked |= 1 << uint(irq)
	}
}

// Unmask re-enables an IRQ line.
func (ic *InterruptController) Unmask(irq int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if irq >= 0 && irq < NumIRQs {
		ic.masked &^= 1 << uint(irq)
	}
}

// Timer is the platform timer: the simulation advances it explicitly
// (there is no wall clock in the model), and every `interval` ticks it
// raises IRQTimer on every core — the preemption heartbeat.
type Timer struct {
	mu       sync.Mutex
	ic       *InterruptController
	interval uint64
	count    uint64
	ticks    uint64
}

// Program sets the tick interval (0 disables).
func (t *Timer) Program(interval uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.interval = interval
	t.count = 0
}

// Advance moves simulated time forward by n cycles, raising timer
// interrupts as intervals elapse.
func (t *Timer) Advance(n uint64) {
	t.mu.Lock()
	interval := t.interval
	if interval == 0 {
		t.mu.Unlock()
		return
	}
	t.count += n
	fired := t.count / interval
	t.count %= interval
	t.ticks += fired
	cores := len(t.ic.pending)
	t.mu.Unlock()
	for ; fired > 0; fired-- {
		for c := 0; c < cores; c++ {
			t.ic.RaiseOn(c, IRQTimer)
		}
	}
}

// Ticks returns the number of intervals that have fired.
func (t *Timer) Ticks() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ticks
}

// Serial is the console UART: an output log plus an input queue that
// raises IRQSerial on arrival.
type Serial struct {
	mu  sync.Mutex
	ic  *InterruptController
	out []byte
	in  []byte
}

// TX writes one byte to the console.
func (s *Serial) TX(b byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out = append(s.out, b)
}

// Output returns everything written so far.
func (s *Serial) Output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.out)
}

// InjectInput simulates typed input, raising the serial interrupt.
func (s *Serial) InjectInput(p []byte) {
	s.mu.Lock()
	s.in = append(s.in, p...)
	s.mu.Unlock()
	s.ic.Raise(IRQSerial)
}

// RX reads one input byte; ok is false when the queue is empty.
func (s *Serial) RX() (byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.in) == 0 {
		return 0, false
	}
	b := s.in[0]
	s.in = s.in[1:]
	return b, true
}

// DiskBlockSize is the device's sector size.
const DiskBlockSize = 512

// Disk is the DMA block-storage controller: requests name a block
// number and a physical DMA address; completion raises IRQDisk and
// queues a completion record. Only blocks that have been written are
// stored (an unwritten block reads as zeros), so a disk costs what has
// been written to it, not its capacity.
type Disk struct {
	mu     sync.Mutex
	m      *mem.PhysMem
	ic     *InterruptController
	n      uint64
	blocks map[uint64][]byte
	comps  []DiskCompletion
	nextID uint64
}

// DiskCompletion describes one finished request.
type DiskCompletion struct {
	ID    uint64
	Write bool
	Block uint64
	Err   string
}

// ErrDiskRange reports an out-of-range block.
var ErrDiskRange = errors.New("machine: disk block out of range")

// NewDisk creates a disk with n blocks.
func NewDisk(m *mem.PhysMem, ic *InterruptController, n uint64) *Disk {
	return &Disk{m: m, ic: ic, n: n, blocks: make(map[uint64][]byte)}
}

// NumBlocks returns the capacity.
func (d *Disk) NumBlocks() uint64 { return d.n }

// Insert places one block of a pre-existing image on the disk: media
// put in the drive before power-on, not a request — no DMA, completion
// or interrupt. An all-zero block is left unwritten, which is what it
// reads back as. p is copied.
func (d *Disk) Insert(block uint64, p []byte) error {
	if block >= d.n {
		return fmt.Errorf("%w: insert block %d of %d", ErrDiskRange, block, d.n)
	}
	if len(p) != DiskBlockSize {
		return fmt.Errorf("machine: insert block %d with %d bytes, block size %d", block, len(p), DiskBlockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if bytes.Equal(p, zeroBlock[:]) {
		delete(d.blocks, block)
		return nil
	}
	d.blocks[block] = bytes.Clone(p)
	return nil
}

var zeroBlock [DiskBlockSize]byte

// ForEachBlock calls fn with every written block in ascending order,
// stopping at the first error. fn must not retain or modify p, nor call
// back into the disk.
func (d *Disk) ForEachBlock(fn func(block uint64, p []byte) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	written := make([]uint64, 0, len(d.blocks))
	for b := range d.blocks {
		written = append(written, b)
	}
	slices.Sort(written)
	for _, b := range written {
		if err := fn(b, d.blocks[b]); err != nil {
			return err
		}
	}
	return nil
}

// Submit queues a request: DMA between block `block` and physical
// memory at dma. The simulated controller completes it immediately but
// asynchronously from the driver's perspective: the result is only
// observable after the completion interrupt.
func (d *Disk) Submit(write bool, block uint64, dma mem.PAddr) uint64 {
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	comp := DiskCompletion{ID: id, Write: write, Block: block}
	if block >= d.n {
		comp.Err = ErrDiskRange.Error()
	} else if write {
		buf := make([]byte, DiskBlockSize)
		if err := d.m.Read(dma, buf); err != nil {
			comp.Err = err.Error()
		} else {
			d.blocks[block] = buf
		}
	} else {
		buf := d.blocks[block]
		if buf == nil {
			buf = zeroBlock[:]
		}
		if err := d.m.Write(dma, buf); err != nil {
			comp.Err = err.Error()
		}
	}
	d.comps = append(d.comps, comp)
	d.mu.Unlock()
	d.ic.Raise(IRQDisk)
	return id
}

// Complete pops the oldest completion record, if any.
func (d *Disk) Complete() (DiskCompletion, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.comps) == 0 {
		return DiskCompletion{}, false
	}
	c := d.comps[0]
	d.comps = d.comps[1:]
	return c, true
}

// MaxFrameLen bounds one network frame.
const MaxFrameLen = 1514

// NIC is the network interface: TX hands frames to the attached wire;
// RX queues inbound frames and raises IRQNIC. Frames are byte slices
// (the netstack defines the on-wire format).
type NIC struct {
	mu   sync.Mutex
	m    *mem.PhysMem
	ic   *InterruptController
	addr uint64
	rx   [][]byte
	wire func(frame []byte) // attached by the virtual network
	// drops counts frames discarded for length or missing wire.
	drops uint64
}

// NewNIC creates a NIC with the given address.
func NewNIC(m *mem.PhysMem, ic *InterruptController, addr uint64) *NIC {
	return &NIC{m: m, ic: ic, addr: addr}
}

// Addr returns the interface address.
func (n *NIC) Addr() uint64 { return n.addr }

// AttachWire connects the NIC's transmit side; the virtual network
// (internal/netstack) calls Deliver on the peer.
func (n *NIC) AttachWire(wire func(frame []byte)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.wire = wire
}

// TX transmits one frame.
func (n *NIC) TX(frame []byte) error {
	if len(frame) > MaxFrameLen {
		n.mu.Lock()
		n.drops++
		n.mu.Unlock()
		return fmt.Errorf("machine: frame of %d bytes exceeds MTU", len(frame))
	}
	n.mu.Lock()
	wire := n.wire
	if wire == nil {
		n.drops++
	}
	n.mu.Unlock()
	if wire == nil {
		return nil // cable unplugged: silently dropped, like hardware
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	wire(cp)
	return nil
}

// Deliver queues an inbound frame (called by the virtual network) and
// raises the receive interrupt.
func (n *NIC) Deliver(frame []byte) {
	if len(frame) > MaxFrameLen {
		n.mu.Lock()
		n.drops++
		n.mu.Unlock()
		return
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	n.mu.Lock()
	n.rx = append(n.rx, cp)
	n.mu.Unlock()
	n.ic.Raise(IRQNIC)
}

// RX pops the oldest received frame.
func (n *NIC) RX() ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.rx) == 0 {
		return nil, false
	}
	f := n.rx[0]
	n.rx = n.rx[1:]
	return f, true
}

// Drops returns the number of dropped frames.
func (n *NIC) Drops() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drops
}
