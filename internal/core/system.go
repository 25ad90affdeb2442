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
	// BootDisk, if non-nil, is copied onto the machine's disk before
	// boot ("inserting" an existing disk image).
	BootDisk fs.BlockStore
	// WAL enables the write-ahead journal (internal/wal): filesystem
	// mutations stream into a group-committed record log, Sync becomes
	// a journal flush instead of a full snapshot, and boot recovery
	// replays the log over the last checkpoint.
	WAL bool
	// JournalBlocks overrides the journal region size in blocks
	// (default: 1/8 of the disk).
	JournalBlocks uint64
	// Shards partitions the kernel state machine across multiple NR
	// instances with independent logs (§4.1): Shards process-state
	// shards keyed by PID (descriptor tables, address spaces, the
	// process tree pinned to shard 0) plus Shards filesystem shards
	// keyed by inode (namespace replicated on every shard, file
	// contents on the owner). 0 or 1 boots the monolithic single-NR
	// kernel.
	//
	// With WAL set, each fs shard gets its own journal region over the
	// disk and Sync becomes a cross-shard group commit
	// (internal/walshard): prepare chunks on every participating shard,
	// then one commit stamp, so recovery always observes a consistent
	// cross-shard cut. JournalBlocks then sizes each shard's journal
	// within its region. RestoreFS on a sharded system requires WAL —
	// the per-shard journal regions are the on-disk format; there is no
	// sharded restore from a monolithic snapshot.
	Shards int
	// ShardLogSize overrides each shard's log ring size (0 = the NR
	// default). Each shard enforces its own half-ring invariant, so
	// MaxBatchOps is per shard: ShardLogSize/(2*MaxThreadsPerReplica).
	ShardLogSize int
}

// System is a booted instance of the OS.
type System struct {
	cfg     Config
	Machine *machine.Machine

	// The replicated kernel (monolithic mode: Config.Shards <= 1).
	nr       *nr.NR[sys.ReadOp, sys.WriteOp, sys.Resp]
	replicas []*sys.Kernel

	// The sharded kernel (Config.Shards > 1): two shard groups over
	// independent logs — process state keyed by PID, filesystem state
	// keyed by inode. nil in monolithic mode; see shard_router.go.
	procNR *nr.Sharded[sys.ReadOp, sys.WriteOp, sys.Resp]
	fsNR   *nr.Sharded[sys.ReadOp, sys.WriteOp, sys.Resp]

	// nsMu orders namespace broadcasts across the filesystem shards:
	// every namespace mutation is applied to all fs shards in ascending
	// shard order under this mutex, so all namespaces see the same
	// total order and stay identical.
	nsMu sync.Mutex

	// journal, when Config.WAL is set, is the write-ahead journal over
	// the block device. Replica 0's FS carries the record sink (each
	// mutation is journaled once, in apply order); Sync and SaveFS
	// drive Flush/Checkpoint under replica 0's Inspect lock.
	journal *wal.Journal

	// walGroup replaces journal on a sharded system: per-fs-shard
	// journal regions with a cross-shard group-commit coordinator.
	// Shard i's replica-0 FS carries shard i's record sink; Sync
	// commits one cross-shard round under nsMu (so a namespace
	// broadcast is never split across the commit cut).
	walGroup *walshard.Group

	// Shared data-frame allocator (physical pages for user memory).
	dataMu    sync.Mutex
	dataAlloc *mm.Buddy

	// pcaches is the sharded page cache behind the pread family: one
	// cache per filesystem shard (index = fs shard; one entry on the
	// monolithic kernel). Every replica's FS carries the matching
	// cache as its Invalidator (see readpath.go).
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
	tableRegion   = mem.PAddr(16 << 20)  // page-table frames start
	tableSpan     = mem.PAddr(16 << 20)  // per replica
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
		buf := make([]byte, cfg.BootDisk.BlockSize())
		for i := uint64(0); i < cfg.BootDisk.NumBlocks() && i < s.BlockDev.NumBlocks(); i++ {
			if err := cfg.BootDisk.ReadBlock(i, buf); err != nil {
				return nil, err
			}
			if err := s.BlockDev.WriteBlock(i, buf); err != nil {
				return nil, err
			}
		}
	}

	// Optional write-ahead journal: monolithic boots lay one journal
	// over the tail of the disk; sharded boots partition the disk into
	// per-shard journal regions behind a group-commit coordinator.
	if cfg.WAL && cfg.Shards <= 1 {
		if s.journal, err = wal.New(s.BlockDev, cfg.JournalBlocks); err != nil {
			return nil, err
		}
		if !cfg.RestoreFS {
			// Fresh boot: initialize the journal region (a restore boots
			// through Recover instead, which adopts the on-disk epoch).
			if err := s.journal.Format(); err != nil {
				return nil, err
			}
		}
	}
	if cfg.WAL && cfg.Shards > 1 {
		if s.walGroup, err = walshard.New(s.BlockDev, cfg.Shards, cfg.JournalBlocks); err != nil {
			return nil, err
		}
		if !cfg.RestoreFS {
			if err := s.walGroup.Format(); err != nil {
				return nil, err
			}
		}
	}

	// Optional boot-time filesystem restore, shared by the replica
	// constructor below.
	var bootFS func() *fs.FS
	if cfg.RestoreFS {
		bootFS = func() *fs.FS {
			if s.journal != nil {
				// Checkpoint snapshot + journal replay. Recover is
				// idempotent: each replica's call yields an identical,
				// independently owned filesystem.
				f, err := s.journal.Recover()
				if err != nil {
					return fs.New()
				}
				return f
			}
			f, err := fs.Load(s.BlockDev)
			if err != nil {
				return fs.New() // fresh disk: empty root
			}
			return f
		}
	}

	if cfg.Shards > 1 {
		// The sharded kernel: 2*Shards NR instances (process group +
		// filesystem group), each with Replicas replicas over its own
		// log. Page-table frames come from disjoint per-kernel slices of
		// the table region, sized to fit however many kernels boot.
		totalKernels := 2 * cfg.Shards * cfg.Replicas
		span := (dataRegionOff - tableRegion) / mem.PAddr(totalKernels)
		span &^= mem.PAddr(mem.PageSize - 1)
		if span < mem.PageSize {
			return nil, fmt.Errorf("core: table region too small for %d shard kernels", totalKernels)
		}
		kernelIdx := 0
		nextFrames := func() pt.FrameSource {
			base := tableRegion + mem.PAddr(kernelIdx)*span
			kernelIdx++
			return pt.NewSimpleFrameSource(m.Mem, base, base+span)
		}
		shardOpts := func(slot func(int) uint64) func(int) nr.Options {
			return func(i int) nr.Options {
				return nr.Options{
					Replicas: cfg.Replicas,
					LogSize:  cfg.ShardLogSize,
					ShardTag: 1 + int(slot(i)),
				}
			}
		}
		s.procNR = nr.NewShardedFunc(cfg.Shards, shardOpts(obs.ProcShardSlot),
			func(int) nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp] {
				return sys.NewKernel(m.Mem, nextFrames())
			})
		// The fs group's constructor runs once per replica of each
		// shard; a restore boot recovers shard i's filesystem against
		// the group's committed cut (RecoverShard is idempotent, so
		// every replica of the shard gets an identical, independently
		// owned filesystem).
		s.fsNR = nr.NewShardedFunc(cfg.Shards, shardOpts(obs.FsShardSlot),
			func(i int) nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp] {
				if cfg.RestoreFS && s.walGroup != nil {
					if f, rerr := s.walGroup.RecoverShard(i); rerr == nil {
						return sys.NewKernelWithFS(m.Mem, nextFrames(), f)
					}
				}
				return sys.NewKernel(m.Mem, nextFrames())
			})

		// Attach each shard journal's record sink to that shard's
		// replica 0: every replica applies every mutation, but exactly
		// one replica's stream is the shard journal's linearization.
		if s.walGroup != nil {
			for i := 0; i < cfg.Shards; i++ {
				jr := s.walGroup.Journal(i)
				s.InspectFsShard(i, 0, func(k *sys.Kernel) {
					k.FS().SetJournal(jr)
				})
			}
		}

		// One page cache per filesystem shard; every replica of a shard
		// publishes its invalidations into that shard's cache (whichever
		// replica's combiner applies a write first kills the cached
		// pages before the write returns).
		s.pcaches = make([]*pcache.Cache, cfg.Shards)
		for i := 0; i < cfg.Shards; i++ {
			cache := pcache.New(cacheFrames{s}, obs.FsShardSlot(i), 0)
			s.pcaches[i] = cache
			for r := 0; r < cfg.Replicas; r++ {
				s.InspectFsShard(i, r, func(k *sys.Kernel) {
					k.FS().SetInvalidator(cache)
				})
			}
		}
		s.registerComponents()
		return s, nil
	}

	// The replicated kernel: one replica per NUMA node, page-table
	// frames from disjoint per-replica regions so replicas never alias
	// each other's table memory.
	replicaIdx := 0
	s.nr = nr.New(nr.Options{Replicas: cfg.Replicas},
		func() nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp] {
			base := tableRegion + mem.PAddr(replicaIdx)*tableSpan
			replicaIdx++
			src := pt.NewSimpleFrameSource(m.Mem, base, base+tableSpan)
			var k *sys.Kernel
			if bootFS != nil {
				k = sys.NewKernelWithFS(m.Mem, src, bootFS())
			} else {
				k = sys.NewKernel(m.Mem, src)
			}
			s.replicas = append(s.replicas, k)
			return k
		})

	// Attach the journal sink to replica 0's filesystem: every replica
	// applies every mutation, but exactly one replica's stream is the
	// journal's linearization.
	if s.journal != nil {
		s.replicas[0].FS().SetJournal(s.journal)
	}

	// The monolithic kernel runs one page cache; every replica's FS
	// publishes invalidations into it (idempotent per mutation, applied
	// first by the writing core's combiner).
	s.pcaches = []*pcache.Cache{pcache.New(cacheFrames{s}, 0, 0)}
	for _, k := range s.replicas {
		k.FS().SetInvalidator(s.pcaches[0])
	}

	s.registerComponents()
	return s, nil
}

// syncDurable is the Sync syscall's kernel half: make every mutation
// applied so far durable. Under the journal this is one group commit
// (Flush), escalating to a checkpoint when the record area is full —
// the checkpoint absorbs the pending records into the snapshot, so no
// retry is needed. Without a journal, durability means a full snapshot.
//
// The work runs inside replica 0's Inspect, which first syncs that
// replica to the log tail: every operation completed before this sync
// has then been applied — and therefore journaled — before the flush,
// which is exactly the ordering the durability contract needs.
func (s *System) syncDurable() error {
	if s.sharded() {
		if s.walGroup == nil {
			return fmt.Errorf("core: sync needs WAL on a sharded kernel")
		}
		// One cross-shard group-commit round. nsMu is held across the
		// whole round so a namespace broadcast — the only multi-shard fs
		// mutation — is never split across the commit cut: the recovered
		// namespaces stay identical on every shard. Each fs shard's
		// replica 0 is first synced to its log tail (an empty Inspect),
		// so every operation completed before this sync has been applied
		// — and therefore journaled — before the participants are
		// chosen. The quiesces run concurrently: each one spins against
		// its shard's combiner traffic, so the round pays the slowest
		// shard, not the sum.
		s.nsMu.Lock()
		defer s.nsMu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < s.NumShards(); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.InspectFsShard(i, 0, func(*sys.Kernel) {})
			}(i)
		}
		wg.Wait()
		return s.walGroup.Commit()
	}
	var err error
	s.nr.Replica(0).Inspect(func(d nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp]) {
		k := d.(*sys.Kernel)
		if s.journal == nil {
			err = fs.Save(k.FS(), s.BlockDev)
			return
		}
		err = s.journal.Flush()
		if errors.Is(err, wal.ErrJournalFull) {
			err = s.journal.Checkpoint(k.FS())
		}
	})
	return err
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
func (s *System) allocDataFrames(n uint64) ([]mem.PAddr, error) {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
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
// thread context (each process is pinned to a core, each core to a
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
	ctx   *nr.ThreadContext[sys.ReadOp, sys.WriteOp, sys.Resp]

	// Sharded mode: thread handles across every shard of each group
	// (ctx is nil then). The router in shard_router.go sequences
	// cross-shard protocols through these under ctxMu.
	procCtx *nr.ShardedThread[sys.ReadOp, sys.WriteOp, sys.Resp]
	fsCtx   *nr.ShardedThread[sys.ReadOp, sys.WriteOp, sys.Resp]

	// witness is the last witnessed op's Resp.Witness, kept for the one
	// Sys handle this handler serves: it points into kernel memory, so it
	// does not cross the boundary as bytes (TakeWitness).
	witness atomic.Pointer[sys.Witness]
}

// TakeWitness implements sys.Witnesser.
func (h *handler) TakeWitness() *sys.Witness { return h.witness.Swap(nil) }

func (h *handler) execute(op sys.WriteOp) sys.Resp {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	return h.ctx.Execute(op)
}

func (h *handler) executeRead(op sys.ReadOp) sys.Resp {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	return h.ctx.ExecuteRead(op)
}

func (h *handler) executeBatch(ops []sys.WriteOp) []sys.Resp {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	return h.ctx.ExecuteBatch(ops)
}

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
	// boundary; a hand-rolled frame carrying one is rejected here, in
	// both monolithic and sharded modes.
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
		// Pread goes through the page cache in both kernel modes: a
		// cache hit never enters an NR instance (readpath.go).
		if op.Num == sys.NumPread {
			return sys.EncodeResp(h.pread(op, nil))
		}
		if s.sharded() {
			return sys.EncodeResp(h.shardReadDispatch(op))
		}
		return sys.EncodeResp(h.executeRead(op))
	}
	op, err := sys.DecodeWrite(frame, payload)
	if err != nil {
		return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
	}
	// Socket ops split across the determinism line: the table half is a
	// logged transition (routed inside sockOp, monolithic or sharded),
	// the device half stays core-local. See netops.go.
	if sys.IsSockOp(op.Num) {
		return sys.EncodeResp(s.sockOp(h, op))
	}
	if sys.IsLocalOp(op.Num) {
		return sys.EncodeResp(s.localOp(h, op))
	}
	// The zero-copy pread tier coordinates the page-cache pin with the
	// logged mapping transition itself, in both kernel modes.
	if op.Num == sys.NumPreadMap {
		return sys.EncodeResp(h.preadMap(op))
	}
	if op.Num == sys.NumPreadUnmap {
		return sys.EncodeResp(h.preadUnmap(op))
	}
	if s.sharded() {
		resp := h.shardWriteSyscall(op)
		if op.Witness {
			h.witness.Store(resp.Witness)
		}
		return sys.EncodeResp(resp)
	}

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
		resp := h.execute(op)
		if resp.Errno != sys.EOK {
			s.freeDataFrames(frames)
		}
		return sys.EncodeResp(resp)
	}

	resp := h.execute(op)
	if op.Witness {
		h.witness.Store(resp.Witness)
	}
	// munmap/exit return the data frames they released; give them back
	// to the shared pool exactly once (here, on the calling path).
	// Cache-owned frames behind pread mappings come back separately in
	// Unpinned and return to their cache, never the pool.
	if resp.Errno == sys.EOK && len(resp.Freed) > 0 {
		s.freeDataFrames(resp.Freed)
	}
	if resp.Errno == sys.EOK && len(resp.Unpinned) > 0 {
		s.unpinFrames(resp.Unpinned)
	}
	if op.Num == sys.NumExit && resp.Errno == sys.EOK {
		s.cleanupProcessLocal(op.PID)
	}
	if op.Num == sys.NumKill && op.Sig == proc.SIGKILL && resp.Errno == sys.EOK {
		s.cleanupProcessLocal(op.Target)
	}
	return sys.EncodeResp(resp)
}

// batch drains one submission-queue vector in as few NR combiner rounds
// as the kernel's shape allows: decode, fence off anything
// non-batchable, then one ExecuteBatch on the monolith (one log
// reservation for the whole vector) or, sharded, three rounds per
// descriptor run; and reassemble the completion queue in submission
// order. Non-batchable ops complete individually with ENOSYS — a bad
// entry must not poison its neighbours' completions.
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
	var sops []*sockBatchOp
	var preadIdx []int
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
			// Socket entries run in three passes around the table
			// execution below: device bind resolution before, device
			// transmit/receive/teardown after (netops.go).
			sops = append(sops, &sockBatchOp{i: i, op: ops[i]})
		case ops[i].Num == sys.NumSync:
			syncIdx = append(syncIdx, i)
		default:
			comps[i] = sys.Completion{Op: ops[i].Num, Errno: sys.ENOSYS}
		}
	}
	h.sockBatchDevBind(sops, comps)
	if nOther+len(sops) > 0 {
		if h.s.sharded() {
			// Per-shard logs cannot take one contiguous reservation for a
			// mixed batch, so each kind drains in the fewest rounds its
			// shard keys allow. The socket-table ops all key to the
			// submitting PID's process shard and go in whole ExecuteBatchOn
			// rounds. The file ops go in submission order: a maximal run of
			// adjacent read/write/seek entries on one descriptor is one
			// Run (lock, one owner-shard entry, unlock — shard_router.go);
			// anything else, a one-entry run included, takes its per-call
			// protocol. Socket-table and file state are disjoint, so
			// running the socket rounds first preserves every per-object
			// ordering.
			h.ctxMu.Lock()
			h.sockBatchTableSharded(sops, comps)
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
			h.ctxMu.Unlock()
		} else {
			// One combiner round for the whole batch: file ops and the
			// socket-table halves interleave in submission order in a
			// single ExecuteBatch vector.
			run := make([]sys.WriteOp, 0, nOther+len(sops))
			fsIdx := make([]int, 0, nOther+len(sops)) // completion index, -1 = socket
			runSo := make([]*sockBatchOp, 0, len(sops))
			si := 0
			for i := range ops {
				switch {
				case sys.IsBatchableOp(ops[i].Num):
					run = append(run, ops[i])
					fsIdx = append(fsIdx, i)
					runSo = append(runSo, nil)
				case sys.IsSockOp(ops[i].Num):
					so := sops[si]
					si++
					if so.skip || so.op.Num == sys.NumSockRecv {
						continue // completed early, or device-only
					}
					run = append(run, so.tableOp())
					fsIdx = append(fsIdx, -1)
					runSo = append(runSo, so)
				}
			}
			if len(run) > 0 {
				for j, r := range h.executeBatch(run) {
					if so := runSo[j]; so != nil {
						so.tab = r
					} else {
						comps[fsIdx[j]] = sys.BatchCompletion(run[j], r)
					}
				}
			}
		}
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
	h.sockBatchPost(sops, comps)
	if len(syncIdx) > 0 {
		// One group commit for the whole batch (after its ops applied;
		// outside ctxMu — the flush takes replica locks instead). On a
		// sharded kernel with WAL the commit is one cross-shard round
		// fanning out to the shards with pending records; sharded
		// without WAL durability is unsupported (see syncDurable), so
		// sync markers complete with ENOSYS.
		e := sys.EOK
		if h.s.sharded() && h.s.walGroup == nil {
			e = sys.ENOSYS
		} else if err := h.s.syncDurable(); err != nil {
			e = sys.EIO
		}
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
