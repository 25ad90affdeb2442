// Package walshard composes per-shard write-ahead journals into one
// crash-consistent durability domain — the subsystem that removes the
// single WAL as the serial chokepoint on the durability path once the
// kernel itself is sharded (§4.1), while keeping the paper's §4.3
// compose-per-service story: each shard's journal discharges the
// single-log crash obligations of internal/wal unchanged, and this
// package adds exactly one cross-shard ordering obligation
// (cross-shard-commit-atomic, walshard_obligations.go).
//
// Layout: the group partitions the device. Two leading blocks are the
// A/B commit-stamp slots; the rest is split into nshards contiguous
// regions, each hosting a complete internal/wal journal (its own
// snapshot slots, header, and record area) behind a range-view store:
//
//	[0]                      commit stamp slot A (even rounds)
//	[1]                      commit stamp slot B (odd rounds)
//	[2+i*per .. 2+(i+1)*per) shard i's journal region
//
// Commit protocol (two-phase, coordinator = Commit under g.mu):
//
//  1. Prepare: every shard with pending records flushes them as one
//     chunk stamped with round G = committed+1 (wal.FlushRound). The
//     flushes run concurrently — the regions are disjoint. A shard
//     whose record area is full compacts its committed prefix first
//     (wal.CheckpointCommitted) and retries; that is safe mid-round
//     because the compaction replays only on-disk chunks, and the
//     shard's own round-G chunk is not on disk yet.
//  2. Commit stamp: one block write to slot G%2 publishes G. This is
//     the round's single commit point.
//
// Recovery reads both stamp slots, takes the valid one with the
// highest round, and recovers each shard against that cut
// (wal.RecoverCommitted): a chunk whose round exceeds the stamp is a
// prepare that never committed — it is rolled back AND physically
// invalidated on every shard, which is exactly the atomic-abort half
// of "a torn cross-shard commit rolls back atomically on all shards".
// The A/B slot alternation makes the stamp write itself crash-safe: a
// torn stamp damages only the slot being written, and the other slot
// still holds the previous committed round.
//
// Background checkpointing: after each commit, any shard whose record
// area is more than half full gets a compaction goroutine (one per
// shard at a time). The worker never touches live filesystem state:
// wal.CheckpointCommitted loads the shard's snapshot, replays the
// chunks its journal retains in memory and saves the result. It holds
// g.mu and the journal's lock throughout, so a Commit (every Sync) and
// every Record on that shard wait for one snapshot load + apply + save.
package walshard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/wal"
)

// Group errors.
var (
	ErrBadGeometry = errors.New("walshard: device too small for per-shard journal layout")
	ErrBadShards   = errors.New("walshard: shard count out of range")
)

// stampMagic marks a commit-stamp slot ("vnrstamp").
const stampMagic = 0x76_6e_72_73_74_61_6d_70

// stampSlots is the number of leading commit-stamp blocks (A/B).
const stampSlots = 2

// Group is a cross-shard group-commit coordinator over per-shard
// journals. All methods are safe for concurrent use; the zero value is
// not usable — construct with New.
type Group struct {
	d       fs.BlockStore
	bs      int
	nshards int
	per     uint64 // blocks per shard region

	js []*wal.Journal

	// mu serializes commit rounds, checkpoints, and recovery — the
	// coordinator lock. While it is held no unstamped prepare chunk can
	// appear or disappear under a checkpoint.
	mu    sync.Mutex
	round uint64 // last committed round (mirrors the on-disk stamp)

	// The commit round's own storage, reused under mu so a round
	// allocates nothing: stamp is the block a stamp slot is written from,
	// and prepareOn[i] prepares shard i on a helper goroutine, leaving its
	// error in prepared[i] for the coordinator, which waits on preparing.
	stamp     []byte
	prepareOn []func()
	prepared  []error
	preparing sync.WaitGroup

	// auto enables the background checkpoint worker; ckptBusy gates one
	// worker per shard, wg tracks them for Drain.
	auto     bool
	ckptBusy []atomic.Bool
	wg       sync.WaitGroup
}

// New lays a shard group over d: stamp slots plus nshards equal journal
// regions. journalBlocks is the per-shard journal size within its
// region (0 picks the wal default of 1/8 of the region). No disk access
// happens here; call Format for a fresh device or RecoverShard per
// shard to reopen one.
func New(d fs.BlockStore, nshards int, journalBlocks uint64) (*Group, error) {
	if nshards < 1 || nshards > obs.MaxShards {
		return nil, fmt.Errorf("%w: %d", ErrBadShards, nshards)
	}
	n := d.NumBlocks()
	if n < stampSlots+uint64(nshards) {
		return nil, fmt.Errorf("%w: %d blocks for %d shards", ErrBadGeometry, n, nshards)
	}
	per := (n - stampSlots) / uint64(nshards)
	g := &Group{
		d:         d,
		bs:        d.BlockSize(),
		nshards:   nshards,
		per:       per,
		js:        make([]*wal.Journal, nshards),
		auto:      true,
		ckptBusy:  make([]atomic.Bool, nshards),
		stamp:     make([]byte, d.BlockSize()),
		prepareOn: make([]func(), nshards),
		prepared:  make([]error, nshards),
	}
	for i := 0; i < nshards; i++ {
		view := fs.SubStore(d, stampSlots+uint64(i)*per, per)
		j, err := wal.New(view, journalBlocks)
		if err != nil {
			return nil, fmt.Errorf("walshard: shard %d region (%d blocks): %w", i, per, err)
		}
		g.js[i] = j
		g.prepareOn[i] = func() {
			defer g.preparing.Done()
			g.prepared[i] = g.prepare(i)
		}
	}
	return g, nil
}

// NumShards returns the number of shard journals.
func (g *Group) NumShards() int { return g.nshards }

// Journal returns shard i's journal — the fs.Journal sink to attach to
// that shard's replica filesystems.
func (g *Group) Journal(i int) *wal.Journal { return g.js[i] }

// CommittedRound returns the last committed commit-stamp round.
func (g *Group) CommittedRound() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.round
}

// SetAutoCheckpoint enables or disables the background checkpoint
// worker (on by default). The deterministic crash-sweep harness turns
// it off so the write sequence is reproducible across sweeps; explicit
// CheckpointShard calls stay available.
func (g *Group) SetAutoCheckpoint(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.auto = on
}

// Format initializes a fresh group: round 0 in stamp slot A, slot B
// invalidated (a stale slot from a previous incarnation must not claim
// a higher round), and every shard journal formatted.
func (g *Group) Format() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.writeStampLocked(0); err != nil {
		return err
	}
	clear(g.stamp)
	if err := g.d.WriteBlock(1, g.stamp); err != nil {
		return err
	}
	for i, j := range g.js {
		if err := j.Format(); err != nil {
			return fmt.Errorf("walshard: format shard %d: %w", i, err)
		}
	}
	g.round = 0
	return nil
}

// writeStampLocked publishes round as committed: one block write to
// the slot the round's parity selects.
func (g *Group) writeStampLocked(round uint64) error {
	clear(g.stamp)
	e := marshal.NewEncoder(g.stamp)
	e.U64(stampMagic).U64(round)
	e.U64(marshal.Fletcher64(e.Bytes()))
	return g.d.WriteBlock(round%stampSlots, g.stamp)
}

// readStampLocked returns the highest committed round across the two
// stamp slots — 0 when neither slot is valid (fresh or never-committed
// device; round 0 commits nothing).
func (g *Group) readStampLocked() (uint64, error) {
	var best uint64
	blk := make([]byte, g.bs)
	for s := uint64(0); s < stampSlots; s++ {
		if err := g.d.ReadBlock(s, blk); err != nil {
			return 0, err
		}
		d := marshal.NewDecoder(blk[:24])
		magic, round, sum := d.U64(), d.U64(), d.U64()
		e := marshal.NewEncoder(make([]byte, 0, 16))
		e.U64(magic).U64(round)
		if d.Err() != nil || magic != stampMagic || marshal.Fletcher64(e.Bytes()) != sum {
			continue // torn or never written; the other slot decides
		}
		if round > best {
			best = round
		}
	}
	return best, nil
}

// Commit makes every recorded-but-unflushed mutation on every shard
// durable as one atomic round: prepare chunks on each participating
// shard, then the commit stamp. Shards with nothing pending do not
// participate (Sync fans out to participating shards only). On success
// the round either fully replays or fully rolls back at any crash
// point. After the stamp, shards past the checkpoint high-water mark
// get background compaction.
//
// An error means the round did NOT commit (the stamp was not written,
// or its write failed); in the crash model a failed disk write is a
// crash, and recovery rolls the round back everywhere.
func (g *Group) Commit() error {
	g.mu.Lock()
	err := g.commitLocked()
	auto := g.auto
	g.mu.Unlock()
	if err == nil && auto {
		g.maybeCheckpoint()
	}
	return err
}

func (g *Group) commitLocked() error {
	// Phase 1 — prepare: flush each participant's pending records as a
	// round-stamped chunk. Regions are disjoint, so the flushes run
	// concurrently: the first participant on the caller, every further
	// one on a helper goroutine.
	first := -1
	for i, j := range g.js {
		switch {
		case j.Pending() == 0:
		case first < 0:
			first = i
		default:
			g.preparing.Add(1)
			go g.prepareOn[i]()
		}
	}
	if first < 0 {
		return nil
	}
	err := g.prepare(first)
	g.preparing.Wait()
	for i := first + 1; i < g.nshards; i++ {
		if err == nil {
			err = g.prepared[i]
		}
		g.prepared[i] = nil
	}
	if err != nil {
		return err
	}

	// Phase 2 — the commit point: publish the round stamp.
	next := g.round + 1
	if err := g.writeStampLocked(next); err != nil {
		return err
	}
	g.round = next
	obs.WalShardRounds.Add(0, 1)
	g.recordGaugesLocked()
	return nil
}

// prepare is one participant's phase 1 of the round after g.round:
// flush shard i's pending records as a chunk stamped with that round.
// The coordinator holds g.mu, and g.round does not move until every
// prepare has returned.
func (g *Group) prepare(i int) error {
	next := g.round + 1
	t0 := obs.Start()
	err := g.js[i].FlushRound(next)
	if errors.Is(err, wal.ErrJournalFull) {
		// Compact this shard's committed prefix and retry. Safe
		// mid-round: the compaction touches only on-disk chunks, and
		// this shard has no round-`next` chunk on disk yet. If the
		// pending buffer exceeds the whole record area even after
		// compaction, the full error propagates (EIO to the caller).
		if err = g.js[i].CheckpointCommitted(); err == nil {
			obs.WalShardCheckpoints.Add(0, 1)
			err = g.js[i].FlushRound(next)
		}
	}
	if err == nil {
		obs.WalShardCommits.Observe(obs.FsShardSlot(i), 0, t0)
	}
	return err
}

func (g *Group) recordGaugesLocked() {
	if !obs.Enabled() {
		return
	}
	for i, j := range g.js {
		obs.WalShardLogTail[i].Set(j.TailBlocks())
		obs.WalShardCkptLag[i].Set(j.SnapLag())
	}
}

// maybeCheckpoint spawns background compaction for every shard whose
// record area crossed the half-full high-water mark, at most one
// worker per shard. Workers serialize with commit rounds on g.mu; the
// caller (a Sync) never waits for them.
func (g *Group) maybeCheckpoint() {
	for i := range g.js {
		if g.js[i].TailBlocks()*2 < g.js[i].RecordBlocks() {
			continue
		}
		if !g.ckptBusy[i].CompareAndSwap(false, true) {
			continue
		}
		g.wg.Add(1)
		go func(i int) {
			defer g.wg.Done()
			defer g.ckptBusy[i].Store(false)
			g.mu.Lock()
			defer g.mu.Unlock()
			// Recheck under the coordinator lock: a commit-path
			// escalation may have compacted this shard already.
			if g.js[i].TailBlocks()*2 < g.js[i].RecordBlocks() {
				return
			}
			if err := g.js[i].CheckpointCommitted(); err == nil {
				obs.WalShardCheckpoints.Add(0, 1)
				g.recordGaugesLocked()
			}
		}(i)
	}
}

// Drain waits for all in-flight background checkpoint workers — for
// tests and orderly shutdown; normal operation never needs it.
func (g *Group) Drain() { g.wg.Wait() }

// CheckpointShard commits any pending records (so the snapshot covers
// everything recorded), then compacts shard i's journal. Callers that
// run cross-shard namespace broadcasts must exclude them for the
// commit half, exactly as for Commit.
func (g *Group) CheckpointShard(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.commitLocked(); err != nil {
		return err
	}
	if err := g.js[i].CheckpointCommitted(); err != nil {
		return err
	}
	obs.WalShardCheckpoints.Add(0, 1)
	g.recordGaugesLocked()
	return nil
}

// CheckpointAll is CheckpointShard over every shard in one coordinator
// critical section — the sharded SaveFS.
func (g *Group) CheckpointAll() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.commitLocked(); err != nil {
		return err
	}
	for i, j := range g.js {
		if err := j.CheckpointCommitted(); err != nil {
			return fmt.Errorf("walshard: checkpoint shard %d: %w", i, err)
		}
		obs.WalShardCheckpoints.Add(0, 1)
	}
	g.recordGaugesLocked()
	return nil
}

// RecoverShard rebuilds shard i's filesystem against the group's
// committed cut: the commit stamp decides which rounds replay, and any
// prepare past the stamp is rolled back and invalidated. Idempotent;
// call once per kernel replica of the shard. Each call returns an
// independently owned *fs.FS.
func (g *Group) RecoverShard(i int) (*fs.FS, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	committed, err := g.readStampLocked()
	if err != nil {
		return nil, err
	}
	g.round = committed
	return g.js[i].RecoverCommitted(committed)
}
