// Package dev implements the device drivers of the simulated OS — the
// paper's §1 "device drivers (network controller, disk controllers,
// interrupt controller, timer, serial/graphical output)" component.
//
// Each driver wraps one internal/hw/machine device behind the interface
// the rest of the kernel consumes: the block driver implements
// fs.BlockStore over the DMA disk controller, the console driver turns
// the UART into an io.Writer, the NIC driver feeds internal/netstack,
// and the IRQ dispatcher routes interrupt-controller lines to handler
// functions.
package dev

import (
	"errors"
	"fmt"
	"sync"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/machine"
	"github.com/verified-os/vnros/internal/hw/mem"
)

// Dispatcher is the interrupt controller's interrupt line: it routes
// IRQs to registered handlers as they are raised. NewDispatcher
// connects it as the controller's sink, so a raise drains the core it
// landed on, on the raising goroutine, and the handler has run before
// Raise returns unless another goroutine draining that core took it
// first. No lock is held across a handler, so a handler may raise again
// (a loopback echo re-enters the dispatcher); a raiser must hold none
// of the locks a handler takes.
type Dispatcher struct {
	mu       sync.Mutex
	ic       *machine.InterruptController
	handlers [machine.NumIRQs]func()
	counts   [machine.NumIRQs]uint64
}

// NewDispatcher connects a dispatcher to an interrupt controller.
func NewDispatcher(ic *machine.InterruptController) *Dispatcher {
	d := &Dispatcher{ic: ic}
	ic.Connect(d.drain)
	return d
}

// Handle registers (or replaces) the handler for an IRQ line.
func (d *Dispatcher) Handle(irq int, h func()) error {
	if irq < 0 || irq >= machine.NumIRQs {
		return fmt.Errorf("dev: bad irq %d", irq)
	}
	d.mu.Lock()
	d.handlers[irq] = h
	d.mu.Unlock()
	return nil
}

// drain takes core's pending interrupts, invoking their handlers.
func (d *Dispatcher) drain(core int) {
	for {
		irq := d.ic.Pending(core)
		if irq < 0 {
			return
		}
		d.mu.Lock()
		h := d.handlers[irq]
		d.counts[irq]++
		d.mu.Unlock()
		if h != nil {
			h()
		}
	}
}

// Count returns how many times an IRQ has been dispatched.
func (d *Dispatcher) Count(irq int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if irq < 0 || irq >= machine.NumIRQs {
		return 0
	}
	return d.counts[irq]
}

// Console is the serial console driver; it satisfies io.Writer so the
// kernel can fmt.Fprintf to it.
type Console struct {
	mu sync.Mutex
	s  *machine.Serial
}

// NewConsole wraps the UART.
func NewConsole(s *machine.Serial) *Console { return &Console{s: s} }

// Write implements io.Writer.
func (c *Console) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range p {
		c.s.TX(b)
	}
	return len(p), nil
}

// TimerDriver programs the platform timer and counts ticks delivered
// through the dispatcher.
type TimerDriver struct {
	t      *machine.Timer
	mu     sync.Mutex
	seen   uint64
	onTick func()
}

// NewTimerDriver registers the timer handler on the dispatcher.
func NewTimerDriver(t *machine.Timer, d *Dispatcher) (*TimerDriver, error) {
	td := &TimerDriver{t: t}
	if err := d.Handle(machine.IRQTimer, td.irq); err != nil {
		return nil, err
	}
	return td, nil
}

// Start programs periodic ticks every interval cycles and installs the
// callback (typically the scheduler's preemption hook).
func (td *TimerDriver) Start(interval uint64, onTick func()) {
	td.mu.Lock()
	td.onTick = onTick
	td.mu.Unlock()
	td.t.Program(interval)
}

func (td *TimerDriver) irq() {
	td.mu.Lock()
	td.seen++
	h := td.onTick
	td.mu.Unlock()
	if h != nil {
		h()
	}
}

// TicksSeen returns the number of timer interrupts handled.
func (td *TimerDriver) TicksSeen() uint64 {
	td.mu.Lock()
	defer td.mu.Unlock()
	return td.seen
}

// BlockDriver implements fs.BlockStore over the DMA disk controller.
// It owns a bounce buffer in simulated physical memory (real drivers
// DMA into driver-owned pages) and consumes the completion queue.
type BlockDriver struct {
	mu     sync.Mutex
	disk   *machine.Disk
	m      *mem.PhysMem
	bounce mem.PAddr
}

// ErrIO is returned for failed device requests.
var ErrIO = errors.New("dev: I/O error")

// NewBlockDriver creates a driver whose bounce buffer lives at the
// page-aligned physical address bounce.
func NewBlockDriver(disk *machine.Disk, m *mem.PhysMem, bounce mem.PAddr) (*BlockDriver, error) {
	if !bounce.IsPageAligned() {
		return nil, fmt.Errorf("dev: bounce buffer %v not page aligned", bounce)
	}
	return &BlockDriver{disk: disk, m: m, bounce: bounce}, nil
}

// BlockSize implements fs.BlockStore.
func (b *BlockDriver) BlockSize() int { return machine.DiskBlockSize }

// NumBlocks implements fs.BlockStore.
func (b *BlockDriver) NumBlocks() uint64 { return b.disk.NumBlocks() }

// submit issues one request through the bounce buffer and consumes its
// completion, matching by request ID (other completions are drained
// first, which is safe because the driver serializes requests).
func (b *BlockDriver) submit(write bool, block uint64, p []byte) error {
	// Same typed guards as every other BlockStore implementation: bad
	// index and bad buffer length are caller bugs rejected up front,
	// before anything touches the DMA bounce buffer.
	op := "read"
	if write {
		op = "write"
	}
	if err := fs.CheckBlockAccess(b, op, block, p); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if write {
		if err := b.m.Write(b.bounce, p); err != nil {
			return err
		}
	}
	id := b.disk.Submit(write, block, b.bounce)
	for {
		c, ok := b.disk.Complete()
		if !ok {
			return fmt.Errorf("%w: completion lost for request %d", ErrIO, id)
		}
		if c.ID != id {
			continue // stale completion from an aborted predecessor
		}
		if c.Err != "" {
			return fmt.Errorf("%w: %s", ErrIO, c.Err)
		}
		break
	}
	if !write {
		if err := b.m.Read(b.bounce, p); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlock implements fs.BlockStore.
func (b *BlockDriver) ReadBlock(i uint64, p []byte) error { return b.submit(false, i, p) }

// WriteBlock implements fs.BlockStore.
func (b *BlockDriver) WriteBlock(i uint64, p []byte) error { return b.submit(true, i, p) }

// ForEachBlock enumerates the written blocks of the disk behind the
// driver in ascending order — taking the medium out of the drive to copy
// it, so no request crosses the controller. The driver is held idle for
// the duration. fn must not retain or modify p.
func (b *BlockDriver) ForEachBlock(fn func(i uint64, p []byte) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.disk.ForEachBlock(fn)
}

// NICDriver drains the NIC receive queue into a handler and transmits
// frames for the netstack.
type NICDriver struct {
	mu      sync.Mutex
	nic     *machine.NIC
	onFrame func([]byte)
	rxCount uint64
}

// NewNICDriver registers the receive handler on the dispatcher.
func NewNICDriver(nic *machine.NIC, d *Dispatcher) (*NICDriver, error) {
	nd := &NICDriver{nic: nic}
	if err := d.Handle(machine.IRQNIC, nd.irq); err != nil {
		return nil, err
	}
	return nd, nil
}

// Addr returns the interface address.
func (nd *NICDriver) Addr() uint64 { return nd.nic.Addr() }

// SetHandler installs the frame receive callback (the netstack input).
func (nd *NICDriver) SetHandler(h func([]byte)) {
	nd.mu.Lock()
	nd.onFrame = h
	nd.mu.Unlock()
}

// Send transmits one frame.
func (nd *NICDriver) Send(frame []byte) error { return nd.nic.TX(frame) }

func (nd *NICDriver) irq() {
	for {
		f, ok := nd.nic.RX()
		if !ok {
			return
		}
		nd.mu.Lock()
		nd.rxCount++
		h := nd.onFrame
		nd.mu.Unlock()
		if h != nil {
			h(f)
		}
	}
}

// RxCount returns the number of frames received.
func (nd *NICDriver) RxCount() uint64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.rxCount
}
