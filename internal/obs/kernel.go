package obs

import (
	"fmt"
	"strings"
)

// The kernel-wide metric set. Instrumented layers (nr, sys, core,
// sched, fs, pt) reference these directly; keeping the declarations
// here means one place documents what the kernel measures, and the
// instrumented packages add only record calls.
//
// Metrics recorded inside the replicated state machine (kernel.apply,
// sched.*, fs.*, pt.*) count per *application*, not per syscall: NR
// applies every logged operation once per replica, so with R replicas
// those totals are R× the syscall counts. The dispatch-boundary metrics
// (syscall family, nr.*) count once per call.
var (
	// NR flat-combining log (internal/nr).
	NRBatchSize      = NewHist("nr.batch_size", UnitCount)      // ops per combiner pass
	NRCombineLatency = NewHist("nr.combine_latency", UnitNanos) // full combine() pass
	NRLogFullStalls  = NewCounter("nr.log_full_stalls")         // waitForSpace entries that had to wait
	NRLogStallTime   = NewHist("nr.log_stall", UnitNanos)       // time spent waiting for ring space
	NRExecuteRetries = NewCounter("nr.execute_retries")         // own combiner pass left the slot pending (half-ring bound)

	// Syscall dispatch boundary (internal/core handler), once per
	// syscall, indexed by sys.Num*.
	Syscalls = NewOpStats("syscall", MaxSyscallOps)

	// Kernel state-machine applies (internal/sys DispatchWrite/
	// DispatchRead), once per replica per op, indexed by sys.Num*.
	KernelApplies = NewOpStats("kernel.apply", MaxSyscallOps)

	// Batched submission ring (sys.Submit / core batch dispatch), once
	// per submitted batch.
	SyscallBatchSize    = NewHist("syscall.batch_size", UnitCount)    // ops per batch
	SyscallBatchLatency = NewHist("syscall.batch_latency", UnitNanos) // full batch round

	// Completion-driven reaping (sys.Batch.Wait/WaitN), striped by the
	// waiter's core. ring.wait_parks vs ring.wait_spins is the
	// wait-mode discipline made observable: a blocking wait must park
	// (parks ≥ 1, spins = 0), never burn the core.
	RingWaitParks    = NewCounter("ring.wait_parks")    // blocking waits that parked on the CQ doorbell
	RingWaitWakes    = NewCounter("ring.wait_wakes")    // doorbell wakeups delivered to waiters
	RingWaitSpins    = NewCounter("ring.wait_spins")    // spin-mode poll iterations
	RingChunksPosted = NewCounter("ring.chunks_posted") // partial completion posts (doorbell rings mid-batch)

	// Scheduler (internal/sched).
	SchedDispatches = NewCounter("sched.dispatches") // successful PickNext
	SchedPreempts   = NewCounter("sched.preempts")   // Yield
	SchedBlocks     = NewCounter("sched.blocks")
	SchedWakes      = NewCounter("sched.wakes")

	// Filesystem (internal/fs).
	FSReadLatency  = NewHist("fs.read_latency", UnitNanos)
	FSWriteLatency = NewHist("fs.write_latency", UnitNanos)
	FSMetaOps      = NewCounter("fs.meta_ops") // create/unlink/mkdir/rmdir/link/rename
	// Copy-on-write file contents: a mutation that follows a view()
	// clones the pages it touches (the one copy the zero-copy views
	// leave) — how many pages, and how many bytes they stored.
	FSCowClones     = NewCounter("fs.cow_clones")
	FSCowCloneBytes = NewCounter("fs.cow_clone_bytes")

	// §3 contract checker (internal/sys), striped by the handle's core:
	// per-call transitions checked against a witness captured in the
	// apply, and violations recorded on any checked path.
	ContractWitnessed  = NewCounter("sys.contract.witnessed")
	ContractViolations = NewCounter("sys.contract.violations")

	// Page cache (internal/pcache), striped by fs shard. Hits are served
	// lock-free under an epoch pin; misses fall through to the
	// authoritative fs read. Invalidations count writer-published kills
	// (one per overlapping write/truncate, however many pages died);
	// evictions count capacity-pressure retirements. copy_bytes is what
	// the copying tier delivered into callers' buffers, hit or miss;
	// resident is each cache's live page count (by fs shard, the
	// monolith's one cache as fs0), so hit ratio x residency is readable
	// from `vnros stats`.
	PCacheHits          = NewCounter("pcache.hit")
	PCacheMisses        = NewCounter("pcache.miss")
	PCacheInvalidations = NewCounter("pcache.invalidations")
	PCacheEvictions     = NewCounter("pcache.evictions")
	PCacheCopyBytes     = NewCounter("pcache.copy_bytes")
	PCacheResident      = newFsShardGauges("pcache.resident")

	// NR read-path discipline (nr.ExecuteRead), striped by replica. A
	// fast read found the replica already caught up to the log tail on
	// entry; a sync read had to wait for (or drive) the combiner first.
	NRReadFast = NewCounter("nr.read_fast")
	NRReadSync = NewCounter("nr.read_sync")

	// Page tables (internal/pt).
	PTMapLatency   = NewHist("pt.map_latency", UnitNanos)
	PTUnmapLatency = NewHist("pt.unmap_latency", UnitNanos)

	// Write-ahead journal (internal/wal).
	WALAppends         = NewCounter("wal.appends")                // mutations recorded
	WALCommits         = NewCounter("wal.commits")                // group-commit flushes
	WALCheckpoints     = NewCounter("wal.checkpoints")            // snapshot + truncate
	WALReplayedRecords = NewCounter("wal.replayed_records")       // mutations re-applied at boot
	WALTornChunks      = NewCounter("wal.torn_chunks")            // chunks rejected by integrity checks
	WALCommitRecords   = NewHist("wal.commit_records", UnitCount) // records per group commit
	WALFlushLatency    = NewHist("wal.flush_latency", UnitNanos)  // one Flush
	WALRoundRollbacks  = NewCounter("wal.round_rollbacks")        // uncommitted cross-shard rounds rolled back at recovery

	// Per-shard write-ahead journals with cross-shard group commit
	// (internal/walshard). A round is one two-phase commit stamp covering
	// every participating shard's prepare flush; wal.shard.commit is the
	// per-fs-shard prepare, indexed by FsShardSlot. The gauges track each
	// shard's journal pressure: log_tail is blocks of flushed chunks,
	// ckpt_lag is flushed records the shard's snapshot is behind.
	WalShardRounds      = NewCounter("wal.shard.rounds")
	WalShardCheckpoints = NewCounter("wal.shard.checkpoints")
	WalShardCommits     = NewOpStats("wal.shard.commit", NumShardSlots)
	WalShardLogTail     = newFsShardGauges("wal.shard.log_tail")
	WalShardCkptLag     = newFsShardGauges("wal.shard.ckpt_lag")

	// Sharded kernel state machine (§4.1: multiple NR instances over
	// independent logs). Slots are the fixed shard-slot space below:
	// per-shard routed-op counts+latencies, a shard dimension for the
	// combiner passes, and per-shard log-tail / apply-lag gauges.
	// fd_runs counts descriptor runs (lock, one owner-shard entry,
	// unlock) and fd_run_ops the read/write/seek entries they carried:
	// ops per run is what says whether a workload's batches amortize the
	// three rounds (1.0 = per-call traffic).
	ShardFDRuns    = NewCounter("shard.fd_runs")
	ShardFDRunOps  = NewCounter("shard.fd_run_ops")
	ShardOps       = NewOpStats("nr.shard.ops", NumShardSlots)
	NRShardCombine = NewOpStats("nr.shard.combine", NumShardSlots)
	ShardLogTail   = newShardGauges("nr.shard.log_tail")
	ShardApplyLag  = newShardGauges("nr.shard.apply_lag")

	// Network stack (internal/netstack) and the kernel receive path
	// (internal/core netops). Receive-side drops are split by reason so
	// the backpressure budget's shedding is visible, not silent.
	NetTxFrames         = NewCounter("net.tx_frames")          // frames handed to the device
	NetRxDelivered      = NewCounter("net.rx_delivered")       // datagrams queued on a socket
	NetRxDropOverflow   = NewCounter("net.rx_drop_overflow")   // receive budget exceeded, shed
	NetRxDropClosed     = NewCounter("net.rx_drop_closed")     // delivered after socket close
	NetRxDropNoListener = NewCounter("net.rx_drop_nolistener") // no socket bound on dst port
	NetRxDropBadSum     = NewCounter("net.rx_drop_badsum")     // checksum mismatch
	NetRxDropBadFrame   = NewCounter("net.rx_drop_badframe")   // undecodable frame/datagram
	NetRecvParks        = NewCounter("net.recv_parks")         // blocking receives that parked
	NetRecvWakes        = NewCounter("net.recv_wakes")         // doorbell wakeups delivered
	NetSockBinds        = NewCounter("net.sock_binds")         // successful socket binds
	NetSockCloses       = NewCounter("net.sock_closes")        // successful socket closes

	// Kernel event ring.
	KernelTrace = NewTrace("kernel", 4096)
)

// MaxSyscallOps bounds the opcode space of the syscall OpStats. It must
// be at least the highest sys.Num* + 1 — including the internal
// cross-shard protocol ops above the wire ABI; sys's obligations assert
// this at test time so adding a syscall without growing it fails loudly
// instead of clamping silently.
const MaxSyscallOps = 96

// The shard-slot space: the per-shard metrics above are fixed vectors
// indexed by slot, with the process-state NR group occupying slots
// [0, MaxShards) and the filesystem group [MaxShards, 2*MaxShards).
// Fixed pre-registration keeps the registry bounded however many
// systems a process boots.
const (
	MaxShards     = 16
	fsSlotBase    = MaxShards
	NumShardSlots = 2 * MaxShards
)

// ProcShardSlot returns the metric slot for process-state shard i.
func ProcShardSlot(i int) uint64 { return uint64(i) }

// FsShardSlot returns the metric slot for filesystem shard i.
func FsShardSlot(i int) uint64 { return uint64(fsSlotBase + i) }

// FsShardOfSlot is FsShardSlot's inverse: the filesystem shard a metric
// slot belongs to. A slot outside the fs group (the monolith records
// under slot 0) maps to shard 0.
func FsShardOfSlot(slot uint64) int {
	if slot < fsSlotBase || slot >= NumShardSlots {
		return 0
	}
	return int(slot - fsSlotBase)
}

// ShardSlotName renders a shard slot ("proc3", "fs0") for RenderOps.
func ShardSlotName(slot uint64) string {
	if slot < fsSlotBase {
		return fmt.Sprintf("proc%d", slot)
	}
	return fmt.Sprintf("fs%d", slot-fsSlotBase)
}

// newShardGauges pre-registers one gauge per shard slot.
func newShardGauges(prefix string) []*Gauge {
	out := make([]*Gauge, NumShardSlots)
	for i := range out {
		out[i] = NewGauge(fmt.Sprintf("%s.%s", prefix, ShardSlotName(uint64(i))))
	}
	return out
}

// newFsShardGauges pre-registers one gauge per filesystem shard,
// indexed by fs shard number (not slot) — for metrics that only exist
// on the fs group, like the per-shard journals.
func newFsShardGauges(prefix string) []*Gauge {
	out := make([]*Gauge, MaxShards)
	for i := range out {
		out[i] = NewGauge(fmt.Sprintf("%s.fs%d", prefix, i))
	}
	return out
}

// Kernel trace event kinds.
var (
	KindSyscall   = RegisterKind("syscall")    // A=opcode, B=pid
	KindDispatch  = RegisterKind("dispatch")   // A=tid, B=core
	KindPreempt   = RegisterKind("preempt")    // A=tid
	KindPTMap     = RegisterKind("pt.map")     // A=va, B=frame
	KindPTUnmap   = RegisterKind("pt.unmap")   // A=va, B=frame
	KindFSMeta    = RegisterKind("fs.meta")    // A=op hash, B=ino
	KindLogStall  = RegisterKind("log.stall")  // A=log index, B=replica
	KindBatch     = RegisterKind("batch")      // A=batch size, B=core
	KindWALCommit = RegisterKind("wal.commit") // A=first seq, B=record count
)

// RenderSummary prints every counter and histogram of a snapshot in
// name order — the `vnros stats` body. Op families need a namer, so
// they are rendered by the caller via RenderOps.
func (s Snapshot) RenderSummary() string {
	var b strings.Builder
	state := "disabled"
	if s.Enabled {
		state = "enabled"
	}
	fmt.Fprintf(&b, "kstats (%s)\n\ncounters:\n", state)
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "  %-24s %12d\n", k, s.Counters[k])
	}
	if len(s.Gauges) > 0 {
		b.WriteString("\ngauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-24s %12d\n", k, s.Gauges[k])
		}
	}
	b.WriteString("\nhistograms:\n")
	for _, k := range sortedKeys(s.Hists) {
		h := s.Hists[k]
		if h.Count == 0 {
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(h.Render(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
