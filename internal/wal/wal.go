// Package wal is the write-ahead journal of the simulated OS — the
// crash-consistency subsystem that turns the snapshot-only persistence
// of internal/fs into a durability transition applications can reason
// against (the paper's §3 contract extended with Sync).
//
// The crash specification is a state machine over disk states: after a
// crash at any point, recovery must produce a filesystem equal to
// applying some prefix of the recorded mutation sequence, and that
// prefix must include every mutation acknowledged by a completed
// Sync ("disk state = a prefix-closed linearization of acknowledged
// mutations"). The registered verification conditions discharge this by
// exhaustively sweeping crash points of scripted workloads through
// FaultStore (fault.go) and checking recovery against golden prefix
// states (wal_obligations.go).
//
// Layout: the journal partitions the device. The leading blocks remain
// the A/B snapshot region of fs.Save/Load (exposed to it through a
// sub-view store, so its slot arithmetic is untouched); the trailing
// region holds one journal header block followed by the record area.
//
//	[0 .. snapBlocks)                 fs snapshot (header + A/B slots)
//	[snapBlocks]                      journal header (magic, epoch)
//	[snapBlocks+1 .. NumBlocks)       record area: group-commit chunks
//
// Group commit: Record buffers encoded mutations in memory; Flush
// writes them as ONE chunk — header, concatenated records, trailing
// checksum — starting at a fresh block boundary. Acknowledged blocks
// are never rewritten within an epoch, so a torn flush can only damage
// the unacknowledged chunk it was writing; the per-chunk checksum plus
// epoch and sequence continuity make replay stop exactly at the first
// damaged or stale chunk (the prefix-closed property).
//
// Checkpoint: the filesystem is snapshotted into the A/B region with
// the covered sequence number as the header stamp (fs.SaveStamped); the
// snapshot header write is the checkpoint's single commit point. The
// journal header is then rewritten with a bumped epoch, logically
// truncating the record area (stale chunks fail the epoch check). A
// crash between the two writes is safe: the stamp already covers every
// on-disk chunk, so replay skips them all. CheckpointCommitted builds
// its snapshot from the stamped one plus the chunks of the record area,
// which the journal keeps in memory as it writes (or recovers) them, so
// a checkpoint never reads the record area back.
//
// Memory: a journal builds its chunks in storage it reuses across
// epochs — once warm, one slab of at most the record area,
// RecordBlocks() × BlockSize() bytes — plus one block of scratch. A
// fresh journal has no slab, and its first epoch allocates each chunk as
// it flushes it; the truncation that ends an epoch which outgrew the
// slab sizes the next one to twice that epoch's chunks, so slabs at
// least double, never exceed the record area, and never hold a copy of a
// retained chunk. A warm commit round and a checkpoint allocate nothing
// per chunk, block or record: a checkpoint replays each record with its
// Data borrowed from the chunk.
package wal

import (
	"errors"
	"fmt"
	"sync"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
)

// Journal errors.
var (
	ErrJournalFull  = errors.New("wal: journal record area full")
	ErrBadGeometry  = errors.New("wal: device too small for journal layout")
	ErrCorruptChunk = errors.New("wal: corrupt journal chunk")
)

// On-disk magics ("vnroswal" / "walchunk1" truncated to 8 bytes).
const (
	headerMagic = 0x76_6e_72_6f_73_77_61_6c // "vnroswal"
	chunkMagic  = 0x77_61_6c_63_68_75_6e_6b // "walchunk"
)

// chunkHdrSize is the encoded chunk prefix: magic, epoch, firstSeq,
// round (u64 each), count and payload length (u32 each). The trailing
// checksum adds 8 more bytes after the payload. The round is the
// cross-shard group-commit stamp (internal/walshard): a monolithic
// journal flushes round 0 and replays unconditionally, a shard journal
// flushes the coordinator's round and replays only rounds covered by
// the group's commit stamp.
const chunkHdrSize = 8 + 8 + 8 + 8 + 4 + 4

// Journal is a write-ahead journal over one BlockStore. All methods are
// safe for concurrent use; Record is designed to be called from the
// kernel's apply path (fs.Journal), everything else from the core's
// sync/checkpoint/boot paths.
type Journal struct {
	mu sync.Mutex
	d  fs.BlockStore
	bs int

	snapBlocks uint64 // snapshot view size; journal header lives here
	recBase    uint64 // first record-area block
	recBlocks  uint64 // record-area size in blocks

	epoch      uint64 // current journal epoch (bumped by checkpoints)
	snapSeq    uint64 // seq covered by the on-disk snapshot stamp
	nextSeq    uint64 // seq the next recorded mutation receives
	flushedSeq uint64 // last seq durably on disk (in a chunk or snapshot)
	tail       uint64 // next free record-area block, relative to recBase

	// pending is the in-memory group-commit buffer: encoded records
	// awaiting the next Flush.
	pending      []byte
	pendingFirst uint64
	pendingCount uint32

	// chunks holds the valid chunks of the record area's [0, tail), in
	// order, each byte for byte what is on disk: a checkpoint replays
	// them instead of reading the record area back. flushLocked appends
	// a chunk once all its block writes succeed, recovery seeds the list
	// with the chunks it replays, and every truncation of the record
	// area drops it, so it never holds more than recBlocks blocks.
	//
	// The chunks are built in slab, which the journal keeps across
	// epochs: the epoch's chunks occupy its first used bytes, and a
	// truncation frees them all at once (dropChunks). A chunk the slab
	// has no room for gets a buffer of its own, as every chunk of a
	// fresh journal does, and kept counts the bytes of every retained
	// chunk. A truncation after an epoch that outgrew the slab replaces
	// it with one of twice kept bytes, at most the record area; no
	// retained chunk is ever copied. So a warm journal holds one slab of
	// at most recBlocks blocks, each slab is at least twice the one it
	// replaces, and a journal that never truncates allocates what it
	// flushes, chunk by chunk.
	chunks [][]byte
	slab   []byte
	used   int
	kept   int

	// blk is the one-block scratch the journal header and a recovered
	// chunk's first block are read and written through.
	blk []byte

	shard uint32
}

// New lays a journal of journalBlocks blocks over the tail of d (the
// geometry above). journalBlocks == 0 picks a default of 1/8 of the
// device. No disk access happens here; call Format, Recover, or use an
// open journal's state.
func New(d fs.BlockStore, journalBlocks uint64) (*Journal, error) {
	n := d.NumBlocks()
	if journalBlocks == 0 {
		journalBlocks = n / 8
		if journalBlocks < 8 {
			journalBlocks = 8
		}
	}
	// The snapshot view needs its header block plus two non-empty A/B
	// slots; the journal needs its header plus at least one record
	// block.
	if journalBlocks < 2 || n < journalBlocks+3 {
		return nil, fmt.Errorf("%w: %d blocks, journal wants %d", ErrBadGeometry, n, journalBlocks)
	}
	return &Journal{
		d:          d,
		bs:         d.BlockSize(),
		snapBlocks: n - journalBlocks,
		recBase:    n - journalBlocks + 1,
		recBlocks:  journalBlocks - 1,
		epoch:      1,
		nextSeq:    1,
		blk:        make([]byte, d.BlockSize()),
		shard:      obs.NextShard(),
	}, nil
}

// SnapshotView returns the sub-view BlockStore the checkpoint snapshots
// are saved into — the device minus the journal region. fs.Save/Load
// against this view see a smaller disk and keep their A/B layout.
func (j *Journal) SnapshotView() fs.BlockStore {
	return fs.SubStore(j.d, 0, j.snapBlocks)
}

// Format initializes a fresh journal on the device: epoch 1, empty
// record area. Existing journal and snapshot contents are logically
// discarded (stale chunks fail the epoch/sequence checks; the snapshot
// region is left to the next checkpoint).
func (j *Journal) Format() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.formatLocked()
}

func (j *Journal) formatLocked() error {
	j.epoch = 1
	j.snapSeq = 0
	j.nextSeq = 1
	j.flushedSeq = 0
	j.tail = 0
	j.resetPending()
	j.dropChunks()
	return j.writeHeader()
}

// writeHeader writes the journal header block: magic, epoch, checksum.
// The epoch is the only mutable field; which mutations a recovery
// replays is governed by the snapshot stamp, not the header.
func (j *Journal) writeHeader() error {
	clear(j.blk)
	e := marshal.NewEncoder(j.blk)
	e.U64(headerMagic).U64(j.epoch)
	sum := marshal.Fletcher64(e.Bytes())
	e.U64(sum)
	return j.d.WriteBlock(j.snapBlocks, j.blk)
}

// readHeader returns the on-disk epoch, or an error for a missing/torn
// header.
func (j *Journal) readHeader() (uint64, error) {
	if err := j.d.ReadBlock(j.snapBlocks, j.blk); err != nil {
		return 0, err
	}
	d := marshal.NewDecoder(j.blk[:24])
	magic, epoch, sum := d.U64(), d.U64(), d.U64()
	e := marshal.NewEncoder(make([]byte, 0, 16))
	e.U64(magic).U64(epoch)
	if d.Err() != nil || magic != headerMagic || marshal.Fletcher64(e.Bytes()) != sum {
		return 0, fmt.Errorf("wal: no valid journal header")
	}
	return epoch, nil
}

// Record implements fs.Journal: append one mutation to the group-commit
// buffer. The mutation is encoded immediately (Data is borrowed from
// the caller and must not be retained), so the buffer owns everything
// it will flush.
func (j *Journal) Record(m fs.Mutation) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pendingCount == 0 {
		j.pendingFirst = j.nextSeq
	}
	// Encode straight into the buffer's tail: one copy of the mutation,
	// and no allocation once the buffer has reached its working size.
	e := marshal.AppendTo(j.pending)
	encodeMutation(e, m)
	j.pending = e.Bytes()
	j.pendingCount++
	j.nextSeq++
	obs.WALAppends.Add(j.shard, 1)
}

// resetPending empties the group-commit buffer, keeping its storage for
// the next round's records.
func (j *Journal) resetPending() {
	j.pending = j.pending[:0]
	j.pendingFirst = 0
	j.pendingCount = 0
}

// dropChunks forgets the retained chunks: the record area they mirror
// was truncated. The list and the slab keep their storage for the next
// epoch's chunks, and a slab the epoch outgrew is replaced (see
// Journal.chunks).
func (j *Journal) dropChunks() {
	if j.kept > j.used {
		j.slab = make([]byte, min(int(j.recBlocks)*j.bs, 2*j.kept))
	}
	clear(j.chunks)
	j.chunks = j.chunks[:0]
	j.used, j.kept = 0, 0
}

// chunkSpace returns n bytes of storage for the next chunk: the slab
// past the chunks built in it, or a buffer of its own when the slab has
// no room. The slab's bytes hold whatever was there before; keepChunk
// claims them.
func (j *Journal) chunkSpace(n int) []byte {
	if j.used+n > len(j.slab) {
		return make([]byte, n)
	}
	return j.slab[j.used : j.used+n : j.used+n]
}

// keepChunk retains buf, the chunkSpace just written to the record area.
func (j *Journal) keepChunk(buf []byte) {
	j.chunks = append(j.chunks, buf)
	if j.used+len(buf) <= len(j.slab) {
		j.used += len(buf)
	}
	j.kept += len(buf)
}

// Pending returns the number of recorded, not-yet-durable mutations.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.pendingCount)
}

// DurableSeq returns the last sequence number that is durable on disk
// (flushed in a chunk or covered by a checkpoint snapshot).
func (j *Journal) DurableSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushedSeq
}

// Flush writes the pending record buffer as one chunk — the group
// commit. On success every previously recorded mutation is durable.
// Returns ErrJournalFull when the chunk does not fit the record area;
// the caller checkpoints (which absorbs the pending records into the
// snapshot) and needs no retry.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked(0)
}

// FlushRound is Flush with an explicit commit-round stamp in the chunk
// header — the prepare half of internal/walshard's two-phase cross-shard
// commit. The chunk is durable but conditional: RecoverCommitted
// replays it only once the group's commit stamp covers the round.
func (j *Journal) FlushRound(round uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked(round)
}

func (j *Journal) flushLocked(round uint64) error {
	if j.pendingCount == 0 {
		return nil
	}
	t0 := obs.Start()

	// Chunk: header fields, payload, trailing checksum over both — built
	// in the journal's chunk storage, sized to whole blocks, so the blocks
	// go to the device as slices of it. The storage held an earlier
	// epoch's chunks, so the last block's padding past the checksum is
	// cleared here: the bytes on disk are the ones a fresh buffer gave.
	bs := uint64(j.bs)
	size := chunkHdrSize + len(j.pending) + 8
	nb := (uint64(size) + bs - 1) / bs
	if j.tail+nb > j.recBlocks {
		return ErrJournalFull
	}
	buf := j.chunkSpace(int(nb * bs))
	e := marshal.NewEncoder(buf)
	e.U64(chunkMagic).U64(j.epoch).U64(j.pendingFirst).U64(round)
	e.U32(j.pendingCount).U32(uint32(len(j.pending)))
	e = marshal.AppendTo(append(e.Bytes(), j.pending...))
	e.U64(marshal.Fletcher64(e.Bytes()))
	clear(buf[size:])
	for i := uint64(0); i < nb; i++ {
		if err := j.d.WriteBlock(j.recBase+j.tail+i, buf[i*bs:(i+1)*bs]); err != nil {
			return err
		}
	}

	first := j.pendingFirst
	j.flushedSeq = j.pendingFirst + uint64(j.pendingCount) - 1
	j.tail += nb
	j.keepChunk(buf)
	obs.WALCommits.Add(j.shard, 1)
	obs.WALCommitRecords.Record(j.shard, uint64(j.pendingCount))
	obs.WALFlushLatency.Since(j.shard, t0)
	obs.KernelTrace.Emit(obs.KindWALCommit, first, uint64(j.pendingCount))
	j.resetPending()
	return nil
}

// Checkpoint snapshots f into the A/B region (stamped with the highest
// recorded sequence number — f must already contain every recorded
// mutation, which holds for the replica FS the journal is attached to)
// and truncates the record area by bumping the epoch. Pending records
// are absorbed by the snapshot, so a checkpoint is also a durability
// point: after it returns, everything recorded is durable.
func (j *Journal) Checkpoint(f *fs.FS) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.nextSeq - 1
	view := j.SnapshotView()
	if err := fs.SaveStamped(f, view, seq); err != nil {
		return err
	}
	// Snapshot header is durable — the commit point has passed. The
	// journal header rewrite only reclaims record-area space; a crash
	// before it leaves stale chunks that the stamp already covers.
	j.epoch++
	if err := j.writeHeader(); err != nil {
		return err
	}
	j.snapSeq = seq
	j.flushedSeq = seq
	j.tail = 0
	j.resetPending()
	j.dropChunks()
	obs.WALCheckpoints.Add(j.shard, 1)
	return nil
}

// CheckpointCommitted compacts the journal without touching the live
// filesystem or the pending buffer: it loads the stamped snapshot,
// replays the retained chunks past its stamp — the record area as this
// journal wrote or recovered it, replayed from memory with no
// record-area read, each record decoded in place — saves the result
// into the A/B region, and truncates the record area. Pending records
// stay in memory for the next flush. It holds the journal lock
// throughout, so Record waits for the snapshot load, replay and save.
//
// This is the checkpoint internal/walshard uses — both for background
// compaction and for the ErrJournalFull escalation inside a commit
// round. Because it covers exactly the on-disk chunk prefix, it can
// never make half of an unstamped cross-shard round durable the way
// Checkpoint's live-FS snapshot would. The caller must guarantee every
// chunk on disk is committed (walshard holds the coordinator lock, so
// no unstamped prepare chunk exists while this runs).
func (j *Journal) CheckpointCommitted() error {
	j.mu.Lock()
	defer j.mu.Unlock()

	view := j.SnapshotView()
	f, stamp, err := fs.LoadStamped(view)
	if err != nil {
		if !errors.Is(err, fs.ErrNoSnapshot) {
			return err
		}
		f, stamp = fs.New(), 0
	}
	seq := stamp
	for _, buf := range j.chunks {
		c, err := parseChunk(buf)
		if err != nil {
			return err
		}
		next, ok, err := c.replay(f, seq)
		if err != nil {
			return fmt.Errorf("wal: checkpoint %w", err)
		}
		if !ok {
			// Flushes append in sequence and recovery stops retaining at
			// a gap, so this is a broken list, not a disk state.
			return fmt.Errorf("%w: retained chunk at seq %d does not continue seq %d", ErrCorruptChunk, c.first, seq)
		}
		seq = next
	}

	if err := fs.SaveStamped(f, view, seq); err != nil {
		return err
	}
	j.epoch++
	if err := j.writeHeader(); err != nil {
		return err
	}
	j.snapSeq = seq
	j.flushedSeq = seq
	j.tail = 0
	j.dropChunks()
	obs.WALCheckpoints.Add(j.shard, 1)
	return nil
}

// TailBlocks returns the current record-area tail (blocks used by
// flushed chunks) — the checkpoint worker's pressure signal.
func (j *Journal) TailBlocks() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// RecordBlocks returns the record-area capacity in blocks.
func (j *Journal) RecordBlocks() uint64 { return j.recBlocks }

// SnapLag returns how many flushed records the on-disk snapshot is
// behind — the checkpoint-lag gauge.
func (j *Journal) SnapLag() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushedSeq - j.snapSeq
}

// Recover rebuilds the filesystem from disk: load the checkpoint
// snapshot (empty filesystem if none), then replay every journal chunk
// that passes the validity checks — magic, checksum, current epoch,
// records beyond the snapshot stamp, exact sequence continuity — and
// stop at the first chunk that fails any of them. The journal's
// in-memory state is reset to continue appending after the replayed
// tail, so Recover is idempotent and may be called once per kernel
// replica; each call returns an independently owned *fs.FS.
//
// A device without a valid journal header (fresh disk, or a header torn
// mid-checkpoint) recovers from the snapshot region alone and the
// journal is re-formatted — safe because the only path that rewrites
// the header after Format is Checkpoint, whose snapshot is durable
// before the header write starts.
func (j *Journal) Recover() (*fs.FS, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recoverLocked(^uint64(0), false)
}

// RecoverCommitted is Recover with a cross-shard commit cut: replay
// stops at the first chunk whose round exceeds committed (the group's
// durable commit stamp, internal/walshard), and that rolled-back chunk
// is physically invalidated — its first block is zeroed — so it can
// never resurrect when the stamp later advances past its round. The
// in-memory tail is left at the rollback point, so new chunks overwrite
// the rolled-back one. Like Recover, it is idempotent (re-zeroing an
// already-zeroed block) and may be called once per kernel replica.
func (j *Journal) RecoverCommitted(committed uint64) (*fs.FS, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recoverLocked(committed, true)
}

func (j *Journal) recoverLocked(committed uint64, invalidate bool) (*fs.FS, error) {
	epoch, hdrErr := j.readHeader()
	view := j.SnapshotView()
	f, stamp, err := fs.LoadStamped(view)
	if err != nil {
		if !errors.Is(err, fs.ErrNoSnapshot) {
			return nil, err
		}
		f, stamp = fs.New(), 0
	}
	if hdrErr != nil {
		// No journal to replay; start a fresh one over the recovered
		// snapshot.
		seq := stamp
		j.epoch = 1
		j.snapSeq = stamp
		j.nextSeq = seq + 1
		j.flushedSeq = seq
		j.tail = 0
		j.resetPending()
		j.dropChunks()
		if err := j.writeHeader(); err != nil {
			return nil, err
		}
		return f, nil
	}

	j.epoch = epoch
	j.snapSeq = stamp
	j.dropChunks()
	seq := stamp // last applied (or snapshot-covered) sequence
	tail := uint64(0)
	for tail < j.recBlocks {
		buf, c, err := j.readChunk(tail, epoch)
		if err != nil {
			break // first invalid/stale chunk ends the valid prefix
		}
		if c.round > committed {
			// A prepare that never got its commit stamp: the round must
			// roll back on every shard. Invalidate the chunk physically
			// so a later stamp advance cannot revalidate it.
			if invalidate {
				if err := j.d.WriteBlock(j.recBase+tail, make([]byte, j.bs)); err != nil {
					return nil, err
				}
				obs.WALRoundRollbacks.Add(j.shard, 1)
			}
			break
		}
		next, ok, err := c.replay(f, seq)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if !ok {
			// Sequence gap: a stale chunk from before a crash-interrupted
			// checkpoint. The valid prefix ends here, and the area is
			// full until the next checkpoint truncates it.
			tail = j.recBlocks
			break
		}
		obs.WALReplayedRecords.Add(j.shard, next-seq)
		seq = next
		j.keepChunk(buf)
		tail += uint64(len(buf) / j.bs)
	}

	j.nextSeq = seq + 1
	j.flushedSeq = seq
	j.tail = tail
	j.resetPending()
	return f, nil
}

// chunk is one parsed group-commit chunk: its prefix, and the payload
// of count encoded records that records decodes.
type chunk struct {
	chunkHeader
	payload []byte
}

// records decodes the chunk's records in order and passes each to fn,
// with its Data borrowed from the chunk. It fails at the first record
// that does not decode (fn has seen the ones before it), and when the
// records do not fill the payload exactly.
func (c chunk) records(fn func(fs.Mutation) error) error {
	rd := marshal.NewDecoder(c.payload)
	for i := uint32(0); i < c.count; i++ {
		m := decodeMutation(rd)
		if rd.Err() != nil {
			break
		}
		if err := fn(m); err != nil {
			return err
		}
	}
	if err := rd.Finish(); err != nil {
		return fmt.Errorf("%w: record decode: %v", ErrCorruptChunk, err)
	}
	return nil
}

// replay applies c to f when it continues seq, the last applied (or
// snapshot-covered) sequence, and returns the new last applied one. A
// chunk the snapshot already covers — flushed before a checkpoint whose
// header write did not land — is skipped; one that starts past seq+1 is
// a sequence gap, reported as !ok with nothing applied.
func (c chunk) replay(f *fs.FS, seq uint64) (next uint64, ok bool, err error) {
	last := c.first + uint64(c.count) - 1
	if last <= seq {
		return seq, true, nil
	}
	if c.first != seq+1 {
		return seq, false, nil
	}
	if err := c.records(func(m fs.Mutation) error {
		if err := f.Apply(m); err != nil {
			return fmt.Errorf("replay seq %d (%s %q): %w", c.first, m.Kind, m.Path, err)
		}
		return nil
	}); err != nil {
		return seq, false, err
	}
	return last, true, nil
}

// chunkHeader is a chunk's fixed prefix (chunkHdrSize bytes).
type chunkHeader struct {
	epoch, first, round uint64
	count, plen         uint32
}

// decodeChunkHeader decodes the chunk prefix at the start of b; ok is
// false when b does not start with one.
func decodeChunkHeader(b []byte) (h chunkHeader, ok bool) {
	d := marshal.NewDecoder(b[:chunkHdrSize])
	magic := d.U64()
	h = chunkHeader{epoch: d.U64(), first: d.U64(), round: d.U64(), count: d.U32(), plen: d.U32()}
	return h, d.Err() == nil && magic == chunkMagic
}

// size returns the chunk's encoded length: prefix, payload, checksum.
func (h chunkHeader) size() uint64 { return uint64(chunkHdrSize) + uint64(h.plen) + 8 }

// body returns the bytes of the chunk at the start of buf that its
// trailing checksum covers: prefix and payload.
func (h chunkHeader) body(buf []byte) []byte { return buf[:h.size()-8] }

// parseChunk is the one decoder of the chunk format: it decodes the
// prefix of the chunk at the start of buf and frames its payload, whose
// records chunk.records decodes. It checks neither the epoch nor the
// checksum nor the records: those guard bytes read back from the device,
// and readChunk checks them; a chunk this journal retained is the buffer
// it encoded and checksummed when it wrote it, or one readChunk checked.
func parseChunk(buf []byte) (chunk, error) {
	h, ok := decodeChunkHeader(buf)
	if !ok {
		return chunk{}, fmt.Errorf("%w: no chunk magic", ErrCorruptChunk)
	}
	if h.size() > uint64(len(buf)) || h.count == 0 {
		return chunk{}, fmt.Errorf("%w: %d-byte chunk of %d records in %d bytes", ErrCorruptChunk, h.size(), h.count, len(buf))
	}
	return chunk{chunkHeader: h, payload: h.body(buf)[chunkHdrSize:]}, nil
}

// readChunk reads the chunk at record-area block `at` of the given
// epoch into chunk storage and parses it, returning the chunk's whole
// blocks and its parsed form; keepChunk claims the storage. Any
// validation failure — bad magic, wrong epoch, a length that overruns
// the record area, a checksum mismatch, a parseChunk error, or records
// that do not decode to exactly the payload — returns an error; a chunk
// that looked like one (magic and epoch matched) but failed integrity is
// counted as torn.
func (j *Journal) readChunk(at uint64, epoch uint64) ([]byte, chunk, error) {
	bs := uint64(j.bs)
	if err := j.d.ReadBlock(j.recBase+at, j.blk); err != nil {
		return nil, chunk{}, err
	}
	h, ok := decodeChunkHeader(j.blk)
	if !ok {
		return nil, chunk{}, fmt.Errorf("%w: no chunk at block %d", ErrCorruptChunk, at)
	}
	if h.epoch != epoch {
		// A stale chunk from a previous epoch: not torn, just truncated
		// away by a checkpoint.
		return nil, chunk{}, fmt.Errorf("%w: epoch %d at block %d, journal at %d", ErrCorruptChunk, h.epoch, at, epoch)
	}
	nb := (h.size() + bs - 1) / bs
	if at+nb > j.recBlocks {
		obs.WALTornChunks.Add(j.shard, 1)
		return nil, chunk{}, fmt.Errorf("%w: chunk at block %d overruns record area", ErrCorruptChunk, at)
	}
	buf := j.chunkSpace(int(nb * bs))
	copy(buf, j.blk)
	for i := uint64(1); i < nb; i++ {
		if err := j.d.ReadBlock(j.recBase+at+i, buf[i*bs:(i+1)*bs]); err != nil {
			return nil, chunk{}, err
		}
	}
	body := h.body(buf)
	if sum := marshal.NewDecoder(buf[len(body) : len(body)+8]).U64(); marshal.Fletcher64(body) != sum {
		obs.WALTornChunks.Add(j.shard, 1)
		return nil, chunk{}, fmt.Errorf("%w: checksum mismatch at block %d", ErrCorruptChunk, at)
	}
	c, err := parseChunk(buf)
	if err == nil {
		err = c.records(func(fs.Mutation) error { return nil })
	}
	if err != nil {
		obs.WALTornChunks.Add(j.shard, 1)
		return nil, chunk{}, fmt.Errorf("%w at block %d", err, at)
	}
	return buf, c, nil
}

// encodeMutation appends one record to the encoder (the journal wire
// format; decodeMutation is the inverse, with the round-trip VC in
// wal_obligations.go).
func encodeMutation(e *marshal.Encoder, m fs.Mutation) {
	e.U8(uint8(m.Kind))
	e.U64(uint64(m.Ino))
	e.U64(m.Off)
	e.U64(m.Size)
	e.String(m.Path)
	e.String(m.Path2)
	e.BytesField(m.Data)
}

// decodeMutation reads one record. Its Data borrows the decoder's
// buffer — the chunk, whose storage the journal reuses after the next
// truncation — so whoever keeps it must copy it: fs.Apply does, since
// PageFile.WriteAt copies what it writes.
func decodeMutation(d *marshal.Decoder) fs.Mutation {
	return fs.Mutation{
		Kind:  fs.MutKind(d.U8()),
		Ino:   fs.Ino(d.U64()),
		Off:   d.U64(),
		Size:  d.U64(),
		Path:  d.String(),
		Path2: d.String(),
		Data:  d.BytesFieldRef(),
	}
}
