// Package core composes the full simulated operating system — the
// paper's "verified NrOS" (§4): the hardware platform, the NR-replicated
// kernel state machine (one sys.Kernel replica per simulated NUMA
// node), device drivers, the network stack, futexes, and the process
// runtime that executes user programs against the §3 client application
// contract.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/dev"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/machine"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
	"github.com/verified-os/vnros/internal/relwork"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/wal"
	"github.com/verified-os/vnros/internal/walshard"
)

// CoresPerNode is the simulated NUMA topology: how many cores share one
// kernel replica (the paper's testbed has 14 cores per node).
const CoresPerNode = 14

// Config sizes a system.
type Config struct {
	// Cores is the number of simulated cores (default 2).
	Cores int
	// Replicas overrides the kernel replica count (default derived
	// from Cores via CoresPerNode).
	Replicas int
	// MemBytes is physical memory (default 512 MiB).
	MemBytes mem.PAddr
	// DiskBlocks sizes the disk (default 1<<16 blocks).
	DiskBlocks uint64
	// NICAddr is this machine's network address.
	NICAddr uint64
	// Network, if non-nil, attaches the machine to a virtual switch.
	Network *netstack.Network
	// RestoreFS loads the filesystem from disk at boot (each replica
	// deserializes the same snapshot, keeping them bit-identical). With
	// WAL set, boot additionally replays the journal's record tail, so
	// the replicas recover everything acknowledged by a Sync — not just
	// the last explicit snapshot.
	RestoreFS bool
	// BootDisk, if non-nil, is placed on the machine's disk before boot
	// ("inserting" an existing disk image). It must fit the disk, and to
	// be restored with RestoreFS it must have the disk's block count,
	// which both on-disk formats are laid out from.
	BootDisk fs.BlockStore
	// WAL enables the write-ahead journal (internal/wal): filesystem
	// mutations stream into a group-committed record log, Sync becomes
	// a journal flush instead of a full snapshot, and boot recovery
	// replays the log over the last checkpoint.
	WAL bool
	// Shards partitions the kernel state machine across multiple NR
	// instances with independent logs (§4.1): Shards process-state
	// shards keyed by PID (descriptor tables, address spaces, the
	// process tree pinned to shard 0) plus Shards filesystem shards
	// keyed by inode (namespace replicated on every shard, file
	// contents on the owner). 0 and 1 are the same boot: ONE NR instance
	// as the sole shard of one group that holds both kinds of state, so
	// every key maps to it and a syscall is one transition on it (rule 0
	// in shard_router.go) — the monolithic kernel.
	//
	// With WAL set, each fs shard gets its own journal region over the
	// disk (one region on a co-located kernel) and Sync is a group
	// commit (internal/walshard): prepare chunks on every participating
	// shard, then one commit stamp, so recovery always observes a
	// consistent cross-shard cut. The durability mode is part of the disk
	// format: RestoreFS needs the Shards and WAL the disk was written
	// with, and on a partitioned kernel it requires WAL — the per-shard
	// journal regions are the only on-disk format there.
	Shards int
}

// System is a booted instance of the OS.
type System struct {
	cfg     Config
	Machine *machine.Machine

	// The replicated kernel: two shard groups over independent logs —
	// process state keyed by PID, filesystem state keyed by inode (see
	// shard_router.go). With Config.Shards <= 1 both fields name the same
	// one-instance group: the co-located (monolithic) kernel.
	procNR *nr.Sharded[sys.ReadOp, sys.WriteOp, sys.Resp]
	fsNR   *nr.Sharded[sys.ReadOp, sys.WriteOp, sys.Resp]

	// nsMu orders namespace broadcasts across the filesystem shards:
	// every namespace mutation is applied to all fs shards in ascending
	// shard order under this mutex, so all namespaces see the same
	// total order and stay identical.
	nsMu sync.Mutex

	// walGroup, when Config.WAL is set, is the write-ahead journal over
	// the block device: one journal region per fs shard behind a
	// group-commit coordinator. Shard i's replica-0 FS carries shard i's
	// record sink (each mutation is journaled once, in apply order); Sync
	// commits one round under nsMu (so a namespace broadcast is never
	// split across the commit cut).
	walGroup *walshard.Group

	// Shared data-frame allocator (physical pages for user memory).
	dataMu    sync.Mutex
	dataAlloc *mm.Buddy

	// pcaches is the sharded page cache behind the pread family: one
	// cache per filesystem shard (index = fs shard). Every replica's FS
	// carries the matching cache as its Invalidator (see readpath.go).
	pcaches []*pcache.Cache

	// Devices.
	Dispatcher *dev.Dispatcher
	Console    *dev.Console
	BlockDev   *dev.BlockDriver
	NICDrv     *dev.NICDriver
	TimerDrv   *dev.TimerDriver
	Net        *netstack.Stack

	// Futex wait queues, keyed per process and word address.
	futexMu sync.Mutex
	futexQ  map[futexKey][]chan struct{}

	// Per-process device sockets (the device half of the network path;
	// socket ids are assigned by the replicated socket table). See
	// netops.go.
	sockMu  sync.Mutex
	sockets map[proc.PID]map[uint64]*devSock

	// The receive pump: polls the interrupt controller while blocking
	// receivers are parked on their doorbells (netops.go).
	pumpMu      sync.Mutex
	pumpWaiters int
	pumpRunning bool

	// Process bookkeeping.
	procMu    sync.Mutex
	nextCore  int
	liveProcs sync.WaitGroup

	// Components is the self-inventory behind Table 1/2's vnros column.
	Components *relwork.Registry
}

type futexKey struct {
	pid proc.PID
	va  mmu.VAddr
}

// Physical memory layout carved at boot.
const (
	bounceBase    = mem.PAddr(0x4000)    // block-driver DMA bounce
	tableRegion   = mem.PAddr(16 << 20)  // page-table frames start (split per kernel at boot)
	dataRegionOff = mem.PAddr(128 << 20) // user data frames start
)

// Boot builds and starts a system.
func Boot(cfg Config) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1 + (cfg.Cores-1)/CoresPerNode
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 512 << 20
	}
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 1 << 16
	}
	if cfg.NICAddr == 0 {
		cfg.NICAddr = 0x02_00_00_00_00_01
	}
	if dataRegionOff+((64)<<20) > cfg.MemBytes {
		return nil, fmt.Errorf("core: need at least %d MiB of memory", (dataRegionOff+(64<<20))>>20)
	}
	if cfg.Shards > 1 {
		if cfg.RestoreFS && !cfg.WAL {
			return nil, fmt.Errorf("core: sharded restore requires WAL (the per-shard journal regions are the on-disk format)")
		}
		if cfg.Shards > obs.MaxShards {
			return nil, fmt.Errorf("core: at most %d shards (obs shard-slot space)", obs.MaxShards)
		}
	}

	m := machine.New(machine.Config{
		Cores:      cfg.Cores,
		MemBytes:   cfg.MemBytes,
		DiskBlocks: cfg.DiskBlocks,
		NICAddr:    cfg.NICAddr,
	})
	s := &System{
		cfg:     cfg,
		Machine: m,
		futexQ:  make(map[futexKey][]chan struct{}),
		sockets: make(map[proc.PID]map[uint64]*devSock),
	}

	// Devices.
	s.Dispatcher = dev.NewDispatcher(m.IC)
	s.Console = dev.NewConsole(m.Serial)
	var err error
	if s.BlockDev, err = dev.NewBlockDriver(m.Disk, m.Mem, bounceBase); err != nil {
		return nil, err
	}
	if s.NICDrv, err = dev.NewNICDriver(m.NIC, s.Dispatcher); err != nil {
		return nil, err
	}
	if s.TimerDrv, err = dev.NewTimerDriver(m.Timer, s.Dispatcher); err != nil {
		return nil, err
	}
	if cfg.Network != nil {
		cfg.Network.Attach(m.NIC)
	}
	s.Net = netstack.NewStack(s.NICDrv)
	// The NIC interrupt path must run; poll from a dedicated pump when
	// frames arrive. In this simulation, delivery raises the IRQ
	// synchronously, so polling after attach suffices; the runtime also
	// polls on every syscall (see handler).

	// Shared data-frame allocator.
	dataFrames := uint64(cfg.MemBytes-dataRegionOff) / mem.PageSize
	if s.dataAlloc, err = mm.NewBuddy(m.Mem, dataRegionOff, dataFrames); err != nil {
		return nil, err
	}

	// "Insert" a pre-existing disk image, if provided.
	if cfg.BootDisk != nil {
		if err := insertImage(m.Disk, cfg.BootDisk, cfg.RestoreFS); err != nil {
			return nil, fmt.Errorf("core: boot image: %w", err)
		}
	}

	// Optional write-ahead journal: the disk is partitioned into one
	// journal region per fs shard behind a group-commit coordinator (a
	// co-located kernel is the one-region layout).
	n := max(cfg.Shards, 1)
	if cfg.WAL {
		if s.walGroup, err = walshard.New(s.BlockDev, n, 0); err != nil {
			return nil, err
		}
		if !cfg.RestoreFS {
			// Fresh boot: initialize the regions (a restore boots through
			// RecoverShard instead, which adopts the on-disk epochs).
			if err := s.walGroup.Format(); err != nil {
				return nil, err
			}
		}
	}

	// The kernel: a process group and a filesystem group of n NR
	// instances each, every instance with Replicas replicas over its own
	// log. n == 1 co-locates them — ONE instance is the sole shard of
	// one group that both procNR and fsNR name — and stays out of the
	// per-shard stats (ShardTag 0). Page-table frames come from disjoint
	// per-kernel slices of the table region, sized to fit however many
	// kernels boot, so replicas never alias each other's table memory.
	partitioned := n > 1
	kernels := cfg.Replicas
	if partitioned {
		kernels *= 2 * n
	}
	span := (dataRegionOff - tableRegion) / mem.PAddr(kernels)
	span &^= mem.PAddr(mem.PageSize - 1)
	if span < mem.PageSize {
		return nil, fmt.Errorf("core: table region too small for %d kernels", kernels)
	}
	kernelIdx := 0
	nextFrames := func() pt.FrameSource {
		base := tableRegion + mem.PAddr(kernelIdx)*span
		kernelIdx++
		return pt.NewSimpleFrameSource(m.Mem, base, base+span)
	}
	// The constructor runs once per replica of each shard. A restore boot
	// recovers shard i's filesystem — against the journal group's
	// committed cut, or from the plain snapshot of a journal-less disk;
	// both are idempotent, so every replica gets an identical,
	// independently owned filesystem. A device that was never written
	// recovers as the empty root; any other failure (a corrupt image, a
	// device error, a replay that does not apply) fails the boot rather
	// than coming up empty over the only copy.
	restore := func(i int) (*fs.FS, error) {
		if s.walGroup != nil {
			return s.walGroup.RecoverShard(i)
		}
		f, err := fs.Load(s.BlockDev)
		if errors.Is(err, fs.ErrNoSnapshot) {
			return fs.New(), nil
		}
		return f, err
	}
	var restoreErr error
	newGroup := func(slot func(int) uint64, withFS bool) *nr.Sharded[sys.ReadOp, sys.WriteOp, sys.Resp] {
		return nr.NewShardedFunc(n,
			func(i int) nr.Options {
				o := nr.Options{Replicas: cfg.Replicas}
				if partitioned {
					o.ShardTag = 1 + int(slot(i))
				}
				return o
			},
			func(i int) nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp] {
				if !withFS || !cfg.RestoreFS {
					return sys.NewKernel(m.Mem, nextFrames())
				}
				f, err := restore(i)
				if err != nil {
					if restoreErr == nil {
						restoreErr = fmt.Errorf("core: restore fs shard %d: %w", i, err)
					}
					f = fs.New()
				}
				return sys.NewKernelWithFS(m.Mem, nextFrames(), f)
			})
	}
	if partitioned {
		s.procNR = newGroup(obs.ProcShardSlot, false)
		s.fsNR = newGroup(obs.FsShardSlot, true)
	} else {
		s.fsNR = newGroup(obs.FsShardSlot, true)
		s.procNR = s.fsNR
	}
	if restoreErr != nil {
		return nil, restoreErr
	}

	for i := 0; i < n; i++ {
		// Attach each shard journal's record sink to that shard's
		// replica 0: every replica applies every mutation, but exactly
		// one replica's stream is the shard journal's linearization.
		if s.walGroup != nil {
			jr := s.walGroup.Journal(i)
			s.InspectFsShard(i, 0, func(k *sys.Kernel) { k.FS().SetJournal(jr) })
		}
		// One page cache per filesystem shard; every replica of a shard
		// publishes its invalidations into that shard's cache (whichever
		// replica's combiner applies a write first kills the cached
		// pages before the write returns).
		cache := pcache.New(cacheFrames{s}, obs.FsShardSlot(i), 0)
		s.pcaches = append(s.pcaches, cache)
		for r := 0; r < cfg.Replicas; r++ {
			s.InspectFsShard(i, r, func(k *sys.Kernel) { k.FS().SetInvalidator(cache) })
		}
	}
	s.registerComponents()
	return s, nil
}

// insertImage places a disk image on the machine's disk as the hardware
// action it models — media put in the drive before power-on — so no block
// crosses the driver, and it costs the blocks the image has written, not
// the disk's capacity: a source that can enumerate its written blocks
// (the block driver of another system, fs.MemBlockStore) is enumerated,
// any other store is read block by block, and either way an all-zero
// block stays unwritten on the disk (machine.Disk.Insert).
//
// The image must fit the disk. To be restored from, it must have the
// disk's block count exactly: both formats derive offsets from the
// device's count — walshard every journal region, fs.Save its B slot — so
// on a disk of another size recovery reads the wrong blocks: a journaled
// image shows no commit stamp and comes up empty over the only copy, a
// B-slot snapshot reads as corrupt.
func insertImage(d *machine.Disk, img fs.BlockStore, restore bool) error {
	switch {
	case img.BlockSize() != machine.DiskBlockSize:
		return fmt.Errorf("%d-byte blocks, the disk has %d-byte blocks", img.BlockSize(), machine.DiskBlockSize)
	case img.NumBlocks() > d.NumBlocks():
		return fmt.Errorf("%d blocks do not fit a disk of %d blocks", img.NumBlocks(), d.NumBlocks())
	case restore && img.NumBlocks() != d.NumBlocks():
		return fmt.Errorf("%d blocks cannot be restored on a disk of %d blocks (the on-disk layout follows the block count)",
			img.NumBlocks(), d.NumBlocks())
	}
	if e, ok := img.(interface {
		ForEachBlock(func(i uint64, p []byte) error) error
	}); ok {
		return e.ForEachBlock(d.Insert)
	}
	buf := make([]byte, img.BlockSize())
	for i := uint64(0); i < img.NumBlocks(); i++ {
		if err := img.ReadBlock(i, buf); err != nil {
			return err
		}
		if err := d.Insert(i, buf); err != nil {
			return err
		}
	}
	return nil
}

// errNeedsWAL is journal-less durability on a partitioned kernel: with
// no journal there is no cut across the shard logs to snapshot.
var errNeedsWAL = errors.New("core: durability needs WAL on a sharded kernel (no single filesystem linearization)")

// snapshotFS is journal-less durability, for Sync and SaveFS alike: a
// co-located kernel's one filesystem is snapshotted whole under replica
// 0's Inspect, which first syncs that replica to the log tail — every
// operation completed before this call is in the image. A partitioned
// kernel would have to sequence a cut across its shard logs, which only
// the journal group can do: errNeedsWAL (ENOSYS to a Sync) rather than
// a snapshot that silently covers part of the state.
func (s *System) snapshotFS() error {
	if s.sharded() {
		return errNeedsWAL
	}
	var err error
	s.InspectFsShard(0, 0, func(k *sys.Kernel) { err = fs.Save(k.FS(), s.BlockDev) })
	return err
}

// journalRound runs one durability action of the journal group — a
// commit round (Sync) or a checkpoint of every shard (SaveFS) — under
// nsMu, so a namespace broadcast (the only multi-shard fs mutation) is
// never split across the cut and the recovered namespaces stay identical
// on every shard. It first syncs every fs shard's replica 0 to its log
// tail (an empty Inspect), so every operation completed before the call
// has been applied — and therefore journaled — before the group chooses
// its participants. The quiesces run concurrently: each spins against its
// shard's combiner traffic, so the round pays the slowest shard, not the
// sum (shard 0's on the caller's goroutine, so a one-shard group spawns
// none).
//
// The group escalates a full record area to a checkpoint of the committed
// prefix by itself, but pending records that outgrow even the empty area
// come back as wal.ErrJournalFull. A co-located kernel's one journal then
// absorbs them all in one checkpoint of the live filesystem (replica 0
// carries the record sink, so under its Inspect the filesystem is exactly
// the recorded state). A partitioned kernel would have to sequence that
// checkpoint across shards — one shard's snapshot landing without the
// others' tears the cut — so there the error stands (EIO).
func (s *System) journalRound(act func() error) error {
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	var wg sync.WaitGroup
	for i := 1; i < s.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.InspectFsShard(i, 0, func(*sys.Kernel) {})
		}(i)
	}
	s.InspectFsShard(0, 0, func(*sys.Kernel) {})
	wg.Wait()
	err := act()
	if errors.Is(err, wal.ErrJournalFull) && !s.sharded() {
		s.InspectFsShard(0, 0, func(k *sys.Kernel) { err = s.walGroup.Journal(0).Checkpoint(k.FS()) })
	}
	return err
}

// syncDurable is the Sync syscall's kernel half: make every mutation
// applied so far durable. Under the journal this is one group-commit
// round; without a journal, durability means a full snapshot.
func (s *System) syncDurable() error {
	if s.walGroup == nil {
		return s.snapshotFS()
	}
	return s.journalRound(s.walGroup.Commit)
}

// syncErrno is the Sync syscall's verdict, per call or once per batch.
func (s *System) syncErrno() sys.Errno {
	switch err := s.syncDurable(); {
	case err == nil:
		return sys.EOK
	case errors.Is(err, errNeedsWAL):
		return sys.ENOSYS
	}
	return sys.EIO
}

// replicaOf maps a core to its kernel replica index (the same mapping
// for every NR instance, monolithic or sharded).
func (s *System) replicaOf(core int) int {
	r := core / CoresPerNode
	if r >= s.cfg.Replicas {
		r = s.cfg.Replicas - 1
	}
	return r
}

// NumReplicas returns the kernel replica count (per NR instance).
func (s *System) NumReplicas() int { return s.cfg.Replicas }

// allocDataFrames grabs n zeroed user-data frames from the shared pool.
// n comes from a user's mmap: a count the pool cannot hold is refused
// before anything is sized by it.
func (s *System) allocDataFrames(n uint64) ([]mem.PAddr, error) {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if st := s.dataAlloc.Stats(); n > st.TotalFrames-st.AllocatedFrames {
		return nil, fmt.Errorf("%w: %d data frames requested", mm.ErrNoMemory, n)
	}
	out := make([]mem.PAddr, 0, n)
	for i := uint64(0); i < n; i++ {
		f, err := s.dataAlloc.AllocOrder(0)
		if err != nil {
			for _, g := range out {
				_ = s.dataAlloc.Free(g)
			}
			return nil, err
		}
		if err := s.Machine.Mem.ZeroFrame(f); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// freeDataFrames returns frames to the shared pool.
func (s *System) freeDataFrames(frames []mem.PAddr) {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	for _, f := range frames {
		_ = s.dataAlloc.Free(f)
	}
}

// handler is the per-process syscall entry: it owns the process's NR
// thread contexts (each process is pinned to a core, each core to a
// replica, as in NrOS).
type handler struct {
	s    *System
	core int
	// ctxMu serializes use of the NR thread context: an asynchronous
	// batch submission (Sys.Submit) crosses the boundary from its own
	// goroutine, so a process's batch and its scalar syscalls can arrive
	// concurrently on the same handler. Local ops (futex, sockets, raw
	// memory) stay outside the mutex — FutexWait blocks, and holding
	// ctxMu across it would deadlock the process's other traffic.
	ctxMu sync.Mutex

	// Thread handles across every shard of each group — one shared
	// registration on a co-located kernel. The router in shard_router.go
	// sequences cross-shard protocols through these under ctxMu.
	procCtx *nr.ShardedThread[sys.ReadOp, sys.WriteOp, sys.Resp]
	fsCtx   *nr.ShardedThread[sys.ReadOp, sys.WriteOp, sys.Resp]

	// witness is the last witnessed op's Resp.Witness, kept for the one
	// Sys handle this handler serves: it points into kernel memory, so it
	// does not cross the boundary as bytes (TakeWitness).
	witness atomic.Pointer[sys.Witness]
}

// TakeWitness implements sys.Witnesser.
func (h *handler) TakeWitness() *sys.Witness { return h.witness.Swap(nil) }

// Syscall implements sys.Handler: the kernel side of the boundary. It
// wraps the dispatch in the kstat probe — one count + latency sample
// per syscall, indexed by opcode and striped by core.
// Core reports the core this handler is pinned to — sys.CorePinned, so
// the submission ring in the process's Sys handle knows its placement.
func (h *handler) Core() int { return h.core }

func (h *handler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	t0 := obs.Start()
	ret, out := h.syscall(frame, payload)
	obs.Syscalls.Observe(frame.Num, uint32(h.core), t0)
	obs.KernelTrace.Emit(obs.KindSyscall, frame.Num, uint64(h.core))
	return ret, out
}

// pollInterrupts drains pending device interrupts before entering the
// kernel proper (the simulation's interrupt delivery point). The calling
// core is always polled; the all-core sweep — needed because the
// interrupt controller load-balances lines round-robin and an idle
// core's pending queue would otherwise starve — runs only when the
// controller reports something pending anywhere (one atomic load), not
// as an unconditional per-syscall cores-length scan.
func (h *handler) pollInterrupts() {
	s := h.s
	s.Dispatcher.Poll(h.core)
	if s.Dispatcher.HasPending() {
		for c := 0; c < s.cfg.Cores; c++ {
			s.Dispatcher.Poll(c)
		}
	}
}

// syscall is the uninstrumented dispatch body.
func (h *handler) syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	s := h.s
	h.pollInterrupts()

	// The internal cross-shard protocol ops never cross the user
	// boundary; a hand-rolled frame carrying one is rejected here.
	if sys.IsInternalOp(frame.Num) {
		return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
	}

	if frame.Num == sys.NumBatch {
		return h.batch(frame, payload)
	}
	if sys.IsReadOp(frame.Num) {
		op, err := sys.DecodeRead(frame, payload)
		if err != nil {
			return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
		}
		// Pread goes through the page cache: a cache hit never enters an
		// NR instance (readpath.go).
		if op.Num == sys.NumPread {
			return sys.EncodeResp(h.pread(op, nil))
		}
		return sys.EncodeResp(h.shardReadDispatch(op))
	}
	op, err := sys.DecodeWrite(frame, payload)
	if err != nil {
		return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
	}
	switch {
	case sys.IsSockOp(op.Num):
		// Socket ops split across the determinism line: the table half is
		// a transition or read on process shard 0, the device half stays
		// core-local. See netops.go.
		return sys.EncodeResp(s.sockOp(h, op))
	case sys.IsLocalOp(op.Num):
		return sys.EncodeResp(s.localOp(h, op))
	case op.Num == sys.NumPreadMap:
		// The zero-copy pread tier coordinates the page-cache pin with
		// the logged mapping transition itself.
		return sys.EncodeResp(h.preadMap(op))
	case op.Num == sys.NumPreadUnmap:
		return sys.EncodeResp(h.preadUnmap(op))
	}
	// The one logged-write path: the core-side work around the routed
	// transition (shardWrite) — mmap's frame attach before it, the
	// witness, freed-frame return and local process cleanup after it.
	//
	// mmap: attach data frames from the shared pool before logging, so
	// every replica maps the same physical pages.
	if op.Num == sys.NumMMap {
		if op.Size == 0 || op.Size%mmu.L1PageSize != 0 {
			return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
		}
		frames, err := s.allocDataFrames(op.Size / mmu.L1PageSize)
		if err != nil {
			return sys.EncodeResp(sys.Resp{Errno: sys.ENOMEM})
		}
		op.Frames = frames
	}
	h.ctxMu.Lock()
	resp := h.shardWrite(op)
	h.ctxMu.Unlock()
	if op.Witness {
		h.witness.Store(resp.Witness)
	}
	if resp.Errno != sys.EOK {
		if op.Num == sys.NumMMap {
			s.freeDataFrames(op.Frames)
		}
		return sys.EncodeResp(resp)
	}
	// munmap/exit return the data frames they released; give them back
	// to the shared pool exactly once (here, on the calling path).
	// Cache-owned frames behind pread mappings come back separately in
	// Unpinned and return to their cache, never the pool.
	if len(resp.Freed) > 0 {
		s.freeDataFrames(resp.Freed)
	}
	if len(resp.Unpinned) > 0 {
		s.unpinFrames(resp.Unpinned)
	}
	if op.Num == sys.NumExit {
		s.cleanupProcessLocal(op.PID)
	}
	if op.Num == sys.NumKill && op.Sig == proc.SIGKILL {
		s.cleanupProcessLocal(op.Target)
	}
	return sys.EncodeResp(resp)
}

// batch drains one submission-queue vector in as few NR combiner rounds
// as the kernel's shape allows: decode, fence off anything
// non-batchable, then the file ops as one ExecuteBatch on a co-located
// kernel (one log reservation for the whole vector) or, partitioned,
// three rounds per descriptor run; preads and socket entries after them
// through their scalar paths; and reassemble the completion queue in
// submission order. Non-batchable ops complete individually with ENOSYS
// — a bad entry must not poison its neighbours' completions.
//
// Sync entries are the group-commit hook: they are pulled out of the
// state-machine run and served with ONE durability action after every
// other op of the batch has been applied — the journal flush then
// covers the entire batch, however many sync markers it carried. This
// is the "drain whole submission-ring batches into one journal flush"
// path (bench/'s ring_sync workload); per-op commit is a Write+Sync
// round trip each.
func (h *handler) batch(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	t0 := obs.Start()
	ops, err := sys.DecodeBatch(frame, payload)
	if err != nil {
		return sys.EncodeBatchResp(nil, sys.EINVAL)
	}
	comps := make([]sys.Completion, len(ops))
	var preadIdx, sockIdx []int
	syncIdx := make([]int, 0, 1)
	nOther := 0
	for i := range ops {
		switch {
		case sys.IsBatchableOp(ops[i].Num):
			nOther++
		case ops[i].Num == sys.NumPread || ops[i].Num == sys.NumPreadMap:
			// Served from the page cache after the logged run below (see
			// sys.OpPread for the ordering contract).
			preadIdx = append(preadIdx, i)
		case sys.IsSockOp(ops[i].Num):
			// Served through the scalar socket path after the file ops
			// (netops.go).
			sockIdx = append(sockIdx, i)
		case ops[i].Num == sys.NumSync:
			syncIdx = append(syncIdx, i)
		default:
			comps[i] = sys.Completion{Op: ops[i].Num, Errno: sys.ENOSYS}
		}
	}
	if nOther > 0 {
		h.ctxMu.Lock()
		if h.s.sharded() {
			// Per-shard logs cannot take one contiguous reservation for a
			// mixed batch, so the file ops drain in submission order in the
			// fewest rounds their shard keys allow: a maximal run of
			// adjacent read/write/seek entries on one descriptor is one Run
			// (lock, one owner-shard entry, unlock — shard_router.go);
			// anything else, a one-entry run included, takes its per-call
			// protocol.
			for i := 0; i < len(ops); {
				j := i + 1
				if sys.IsRunOp(ops[i].Num) {
					for j < len(ops) && sys.IsRunOp(ops[j].Num) && ops[j].FD == ops[i].FD {
						j++
					}
				}
				if j-i > 1 {
					h.shardRunBatch(ops[i:j], comps[i:j])
				} else if sys.IsBatchableOp(ops[i].Num) {
					comps[i] = sys.BatchCompletion(ops[i], h.shardWrite(ops[i]))
				}
				i = j
			}
		} else {
			// Rule 0 (shard_router.go): every key maps to the one instance,
			// so the batch's file ops are one combiner round on it — a
			// single ExecuteBatch vector in submission order, where the
			// partitioned kernel above sequences rounds per shard key.
			run := make([]sys.WriteOp, 0, nOther)
			idx := make([]int, 0, nOther) // completion index of run[j]
			for i := range ops {
				if sys.IsBatchableOp(ops[i].Num) {
					run = append(run, ops[i])
					idx = append(idx, i)
				}
			}
			for j, r := range h.procCtx.ExecuteBatchOn(0, run) {
				comps[idx[j]] = sys.BatchCompletion(run[j], r)
			}
		}
		h.ctxMu.Unlock()
	}
	// Pread entries complete after every logged op of the batch has
	// applied, so they observe all of the batch's writes. Outside ctxMu:
	// the cache path takes the thread context per kernel crossing.
	for _, i := range preadIdx {
		if ops[i].Num == sys.NumPread {
			r := h.pread(sys.ReadOp{
				Num: sys.NumPread, PID: ops[i].PID, FD: ops[i].FD,
				Len: ops[i].Len, Off: uint64(ops[i].Off),
			}, nil)
			comps[i] = sys.BatchCompletion(ops[i], r)
		} else {
			comps[i] = sys.BatchCompletion(ops[i], h.preadMap(ops[i]))
		}
	}
	// Socket entries in submission order, after the file ops: socket and
	// file state are disjoint, so this preserves every per-object order.
	// Outside ctxMu too — each table step takes it (netops.go).
	for _, i := range sockIdx {
		comps[i] = h.sockEntry(ops[i])
	}
	if len(syncIdx) > 0 {
		// One durability action for the whole batch (after its ops applied;
		// outside ctxMu — the commit takes replica locks instead).
		e := h.s.syncErrno()
		for _, i := range syncIdx {
			comps[i] = sys.Completion{Op: sys.NumSync, Errno: e}
		}
	}
	obs.SyscallBatchSize.Record(uint32(h.core), uint64(len(ops)))
	obs.SyscallBatchLatency.Since(uint32(h.core), t0)
	obs.KernelTrace.Emit(obs.KindBatch, uint64(len(ops)), uint64(h.core))
	return sys.EncodeBatchResp(comps, sys.EOK)
}

// cleanupProcessLocal tears down core-side state (sockets, futexes).
func (s *System) cleanupProcessLocal(pid proc.PID) {
	s.sockMu.Lock()
	for _, ds := range s.sockets[pid] {
		// Close rings the doorbell, so receivers parked on the socket
		// wake into EBADF rather than sleeping forever.
		_ = ds.sock.Close()
	}
	delete(s.sockets, pid)
	s.sockMu.Unlock()

	s.futexMu.Lock()
	for k, q := range s.futexQ {
		if k.pid == pid {
			for _, ch := range q {
				close(ch)
			}
			delete(s.futexQ, k)
		}
	}
	s.futexMu.Unlock()
}
