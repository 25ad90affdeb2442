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
	"slices"
	"sync"

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
	// NICAddr is this machine's network address, at most 48 bits
	// (sys.NetAddrBits).
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

	// quiesceOn holds, for every fs shard but shard 0, a helper-goroutine
	// body that syncs the shard's replica 0 to its log tail and signals
	// quiesced: journalRound's fan-out, built once at boot and used under
	// nsMu, so a round allocates nothing.
	quiesceOn []func()
	quiesced  sync.WaitGroup

	// Shared data-frame allocator (physical pages for user memory).
	dataMu    sync.Mutex
	dataAlloc *mm.Buddy

	// pcaches is the sharded page cache behind PreadMap: one cache per
	// filesystem shard (index = fs shard). Every replica's FS carries the
	// matching cache as its Invalidator (see readpath.go).
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
	if cfg.NICAddr >= 1<<sys.NetAddrBits {
		return nil, fmt.Errorf("core: NICAddr %#x is wider than %d bits (a received datagram's source packs it above its port)", cfg.NICAddr, sys.NetAddrBits)
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
	// The dispatcher is the controller's interrupt line, so a frame is
	// taken by the stack on the goroutine that delivered it: the stack
	// goes in before the NIC goes on the wire.
	s.Net = netstack.NewStack(s.NICDrv)
	if cfg.Network != nil {
		cfg.Network.Attach(m.NIC)
	}

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
			if i > 0 {
				s.quiesceOn = append(s.quiesceOn, func() {
					defer s.quiesced.Done()
					s.InspectFsShard(i, 0, func(*sys.Kernel) {})
				})
			}
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
// none, and every other one through quiesceOn).
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
	for _, quiesce := range s.quiesceOn {
		s.quiesced.Add(1)
		go quiesce()
	}
	s.InspectFsShard(0, 0, func(*sys.Kernel) {})
	s.quiesced.Wait()
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

// allocDataFrames grabs n zeroed user-data frames from the shared pool
// for a user's mmap. n comes from the user: a count the pool cannot hold
// is refused before anything is sized by it. (The page cache takes its
// frames from the same pool unzeroed, through cacheFrames.)
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
	// ctxMu serializes use of the NR thread context: a process's calls
	// can arrive concurrently on its handler — a batch crosses on
	// whichever goroutine reaps it, and only Read, Write, Seek, Pread and
	// a batch's reaper hold the handle, so an Open or a GetPID on another
	// goroutine can overlap them. Local ops (futex, sockets, raw memory)
	// stay outside the mutex — FutexWait blocks, and holding ctxMu across
	// it would deadlock the process's other traffic.
	ctxMu sync.Mutex

	// Thread handles across every shard of each group — one shared
	// registration on a co-located kernel. The router in shard_router.go
	// sequences cross-shard protocols through these under ctxMu.
	procCtx *nr.ShardedThread[sys.ReadOp, sys.WriteOp, sys.Resp]
	fsCtx   *nr.ShardedThread[sys.ReadOp, sys.WriteOp, sys.Resp]

	// op is the decode slot of a logged per-call syscall, runOp the
	// owner-shard step a partitioned kernel's descriptor run sends, and
	// ans the answer slot of a response the router composes itself (all
	// under ctxMu). A logged op crosses nr by pointer and is answered in
	// the issuer's slot, which the reply is encoded from, so a per-call
	// crossing copies neither the op nor its response through the frames
	// between the boundary and the kernel.
	op    sys.WriteOp
	runOp sys.WriteOp
	ans   sys.Resp

	// readOp and readAns are the op and answer slot of the pread
	// family's replica-local reads (the descriptor resolve, then a
	// pread's NumFsReadAt; under ctxMu): the kernel writes its response
	// there in place. They live here because the answer crosses an
	// interface, so a slot on the reader's stack would escape and
	// allocate a response per read. handler.pread clears what the slot
	// holds of the caller's buffer and the witness, so it keeps nothing
	// reachable.
	readOp  sys.ReadOp
	readAns sys.Resp
	// fillPage is the page a PreadMap miss reads the file into and the
	// cache installs its frame from (under ctxMu; allocated at the
	// handler's first miss).
	fillPage *[pcache.PageSize]byte

	// batchMu serializes batch and covers its whole use of the buffers
	// below, which every batch reuses: the vector the request is decoded
	// into, the steps it folds into, the answers of a co-located
	// kernel's ExecuteBatch — whose Run vectors fsRun answers into again —
	// and the completions. A handler can serve more than one handle, and
	// a batch's reaper holds only its own. The log copies what an entry
	// borrows of the decoded vector (sys.WriteOp.Lent), so nothing keeps
	// these buffers once the batch has returned, and batch leaves them
	// holding nothing of it, each at most nr.SlotBytes (recycleBatch).
	batchMu    sync.Mutex
	batchOps   []sys.WriteOp
	batchSteps sys.Steps
	batchResps []sys.Resp
	batchComps []sys.Completion

	// wits are the last witnessed crossing's witnesses, kept for the one
	// Sys handle this handler serves: they are views of kernel memory, so
	// they do not cross the boundary as bytes (TakeWitness). The slot is
	// reused: the handle holds itself for a witnessed crossing and takes
	// its witnesses before the next one.
	witMu sync.Mutex
	wits  []sys.Witness
}

// TakeWitness implements sys.Witnesser.
func (h *handler) TakeWitness(into []sys.Witness) []sys.Witness {
	h.witMu.Lock()
	defer h.witMu.Unlock()
	into = append(into, h.wits...)
	clear(h.wits)
	h.wits = h.wits[:0]
	return into
}

// keepWitness keeps a witnessed per-call crossing's witness, if it has
// one, for TakeWitness.
func (h *handler) keepWitness(w sys.Witness) {
	h.witMu.Lock()
	h.wits = h.wits[:0]
	if w.N > 0 {
		h.wits = append(h.wits, w)
	}
	h.witMu.Unlock()
}

// Core reports the core this handler is pinned to — sys.CorePinned, so
// the submission ring in the process's Sys handle knows its placement.
func (h *handler) Core() int { return h.core }

// Syscall implements sys.Handler: the kernel side of the boundary. It
// wraps the dispatch in the kstat probe — one count + latency sample
// per syscall, indexed by opcode and striped by core.
func (h *handler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	t0 := obs.Start()
	ret, out := h.syscall(frame, payload)
	obs.Syscalls.Observe(frame.Num, uint32(h.core), t0)
	obs.KernelTrace.Emit(obs.KindSyscall, frame.Num, uint64(h.core))
	return ret, out
}

// syscall is the uninstrumented dispatch body. It only picks the path;
// whatever a path needs lives in its own frame.
func (h *handler) syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	switch {
	case sys.IsInternalOp(frame.Num):
		// The internal cross-shard protocol ops never cross the user
		// boundary; a hand-rolled frame carrying one is rejected here.
		return errnoReply(sys.EINVAL)
	case frame.Num == sys.NumBatch:
		return h.batch(frame, payload)
	case sys.IsReadOp(frame.Num):
		return h.readSyscall(frame, payload)
	case sys.IsSockOp(frame.Num), sys.IsLocalOp(frame.Num),
		frame.Num == sys.NumPreadMap, frame.Num == sys.NumPreadUnmap:
		return h.coreSyscall(frame, payload)
	}
	return h.logged(frame, payload, nil, false)
}

// errnoReply is the reply of a call that failed with e: the register
// frame alone.
func errnoReply(e sys.Errno) (marshal.RetFrame, []byte) {
	return marshal.RetFrame{Errno: uint64(e)}, nil
}

// readSyscall serves a read-only syscall: replica-local reads, never the
// log.
func (h *handler) readSyscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	op, err := sys.DecodeRead(frame, payload)
	if err != nil {
		return errnoReply(sys.EINVAL)
	}
	// Pread is two replica-local reads (readpath.go).
	if op.Num == sys.NumPread {
		r := h.preadReply(op)
		if op.Witness {
			h.keepWitness(r.Witness)
		}
		return sys.EncodeRespFrom(&r)
	}
	r := h.shardReadDispatch(op)
	return sys.EncodeRespFrom(&r)
}

// coreSyscall serves the syscalls core sequences itself around (or
// instead of) a kernel transition: sockets, the local ops, and the
// zero-copy pread tier.
func (h *handler) coreSyscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	op, err := sys.DecodeWrite(frame, payload)
	var r sys.Resp
	switch {
	case err != nil:
		return errnoReply(sys.EINVAL)
	case sys.IsSockOp(op.Num):
		// Socket ops split across the determinism line: the table half is
		// a transition or read on process shard 0, the device half stays
		// core-local. See netops.go.
		r = h.s.sockOp(h, op)
	case sys.IsLocalOp(op.Num):
		r = h.s.localOp(h, op)
	case op.Num == sys.NumPreadMap:
		// The zero-copy pread tier coordinates the page-cache pin with the
		// logged mapping transition itself.
		r = h.preadMap(op)
	default:
		r = h.preadUnmap(op)
	}
	return sys.EncodeRespFrom(&r)
}

// logged serves a logged per-call syscall: the one logged-write path,
// the core-side work around the routed transition (shardWrite) — mmap's
// frame attach before it, the witness, freed-frame return and local
// process cleanup after it. The op is decoded into the handler's slot
// and the reply encoded straight from the slot the issuer's replica
// answered into. With into set the call crossed through SyscallInto: the
// op is a read, dst the caller's buffer, which rides in the logged op
// (op.Data) for the issuer's apply to fill, and the reply is the register
// frame alone.
func (h *handler) logged(frame marshal.SyscallFrame, payload []byte, dst []byte, into bool) (marshal.RetFrame, []byte) {
	s := h.s
	h.ctxMu.Lock()
	op := &h.op
	if err := sys.DecodeWriteInto(frame, payload, op); err != nil {
		h.ctxMu.Unlock()
		return errnoReply(sys.EINVAL)
	}
	if into {
		// The frame's length is the caller's word; the buffer is the bound.
		op.Len = min(op.Len, uint64(len(dst)))
		op.Data = dst[:op.Len]
	}
	// mmap: attach data frames from the shared pool before logging, so
	// every replica maps the same physical pages.
	if op.Num == sys.NumMMap {
		if op.Size == 0 || op.Size%mmu.L1PageSize != 0 {
			h.ctxMu.Unlock()
			return errnoReply(sys.EINVAL)
		}
		frames, err := s.allocDataFrames(op.Size / mmu.L1PageSize)
		if err != nil {
			h.ctxMu.Unlock()
			return errnoReply(sys.ENOMEM)
		}
		op.Frames = frames
	}
	r := h.shardWrite(op)
	if op.Witness {
		h.keepWitness(r.Witness)
	}
	var ret marshal.RetFrame
	var out []byte
	if into {
		ret = marshal.RetFrame{Value: r.Val, Errno: uint64(r.Errno)}
		// The handler's slots keep no reference to the caller's buffer.
		// (The log entry keeps one, like a write's payload, until its slot
		// is lapped; no replica writes through it after this apply.)
		op.Data, r.Data = nil, nil
	} else {
		ret, out = sys.EncodeRespFrom(r)
	}
	num, pid, target, sig, frames := op.Num, op.PID, op.Target, op.Sig, op.Frames
	errno, freed, unpinned := r.Errno, r.Freed, r.Unpinned
	h.ctxMu.Unlock()
	if errno != sys.EOK {
		if num == sys.NumMMap {
			s.freeDataFrames(frames)
		}
		return ret, out
	}
	// munmap/exit return the data frames they released; give them back
	// to the shared pool exactly once (here, on the calling path).
	// Cache-owned frames behind pread mappings come back separately in
	// Unpinned and return to their cache, never the pool.
	if len(freed) > 0 {
		s.freeDataFrames(freed)
	}
	if len(unpinned) > 0 {
		s.unpinFrames(unpinned)
	}
	if num == sys.NumExit {
		s.cleanupProcessLocal(pid)
	}
	if num == sys.NumKill && sig == proc.SIGKILL {
		s.cleanupProcessLocal(target)
	}
	return ret, out
}

// batch drains one submission-queue vector in as few NR combiner rounds
// as the kernel's shape allows: decode, fence off anything
// non-batchable, fold the file ops into their steps (sys.Steps.Fold: a
// descriptor run is one) and apply them — as one ExecuteBatch on a
// co-located kernel (one log reservation for the whole vector) or,
// partitioned, each by its protocol, three rounds per run; preads and
// socket entries after them through their scalar paths; and reassemble
// the completion queue in submission order. Non-batchable ops complete
// individually with ENOSYS — a bad entry must not poison its neighbours'
// completions. The witnesses the steps and preads return are kept
// together, in the handler's witness slot.
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
	h.batchMu.Lock()
	defer h.batchMu.Unlock()
	defer h.recycleBatch()
	ops, err := sys.DecodeBatchInto(frame, payload, h.batchOps)
	h.batchOps = ops
	if err != nil {
		return sys.EncodeBatchResp(nil, sys.EINVAL)
	}
	// Every entry is completed below: by its step, or as a pread, socket,
	// sync or unbatchable entry.
	comps := slices.Grow(h.batchComps[:0], len(ops))[:len(ops)]
	h.batchComps = comps
	var preadIdx, sockIdx []int
	syncIdx := make([]int, 0, 1)
	nWit := 0
	for i := range ops {
		switch {
		case sys.IsBatchableOp(ops[i].Num):
		case ops[i].Num == sys.NumPread || ops[i].Num == sys.NumPreadMap:
			// Served after the logged run below (see sys.OpPread for the
			// ordering contract).
			preadIdx = append(preadIdx, i)
			if ops[i].Witness {
				nWit++
			}
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
	st := &h.batchSteps
	st.Fold(ops)
	steps, at := st.Ops, st.At
	for j := range steps {
		if steps[j].Witness {
			nWit++
		}
	}
	var wits []sys.Witness
	if nWit > 0 {
		h.witMu.Lock()
		wits, h.wits = h.wits[:0], nil
		h.witMu.Unlock()
	}
	if len(steps) > 0 {
		h.ctxMu.Lock()
		if h.s.sharded() {
			// Per-shard logs cannot take one contiguous reservation for a
			// mixed batch, so the steps drain in submission order, each by
			// its protocol: a run is lock, one owner-shard entry, unlock
			// (shard_router.go); any other entry its per-call protocol.
			for j := range steps {
				wits = sys.CompleteStep(ops, comps, at[j], &steps[j], *h.shardWrite(&steps[j]), wits)
			}
		} else {
			// Rule 0 (shard_router.go): every key maps to the one instance,
			// so the batch's steps are one combiner round on it — a single
			// ExecuteBatch vector in submission order, where the
			// partitioned kernel above sequences rounds per shard key.
			h.batchResps = h.procCtx.ExecuteBatchOn(0, steps, h.batchResps)
			for j, r := range h.batchResps {
				wits = sys.CompleteStep(ops, comps, at[j], &steps[j], r, wits)
			}
		}
		h.ctxMu.Unlock()
	}
	// Pread entries complete after every logged op of the batch has
	// applied, so they observe all of the batch's writes. Outside ctxMu:
	// the pread family takes it itself.
	for _, i := range preadIdx {
		var r sys.Resp
		if ops[i].Num == sys.NumPread {
			r = h.preadReply(sys.ReadOp{
				Num: sys.NumPread, PID: ops[i].PID, FD: ops[i].FD,
				Len: ops[i].Len, Off: uint64(ops[i].Off), Witness: ops[i].Witness,
			})
		} else {
			r = h.preadMap(ops[i])
		}
		wits = sys.CompleteStep(ops, comps, i, &ops[i], r, wits)
	}
	if nWit > 0 {
		h.witMu.Lock()
		h.wits = wits
		h.witMu.Unlock()
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

// recycleBatch readies the handler's batch buffers for its next batch
// (sys.Recycle): they keep nothing of the batch just answered — its
// payload, its read results, its witness views — and none keeps more
// than nr.SlotBytes. The completions are the reply's by then, encoded.
func (h *handler) recycleBatch() {
	h.batchOps = sys.Recycle(h.batchOps)
	h.batchSteps.Recycle()
	h.batchResps = sys.RecycleResps(h.batchResps)
	h.batchComps = sys.Recycle(h.batchComps)
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
