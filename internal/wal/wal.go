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
// on-disk chunk, so replay skips them all.
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
	return j.writeHeader()
}

// writeHeader writes the journal header block: magic, epoch, checksum.
// The epoch is the only mutable field; which mutations a recovery
// replays is governed by the snapshot stamp, not the header.
func (j *Journal) writeHeader() error {
	e := marshal.NewEncoder(make([]byte, 0, 24))
	e.U64(headerMagic).U64(j.epoch)
	sum := marshal.Fletcher64(e.Bytes())
	e.U64(sum)
	hb := make([]byte, j.bs)
	copy(hb, e.Bytes())
	return j.d.WriteBlock(j.snapBlocks, hb)
}

// readHeader returns the on-disk epoch, or an error for a missing/torn
// header.
func (j *Journal) readHeader() (uint64, error) {
	hb := make([]byte, j.bs)
	if err := j.d.ReadBlock(j.snapBlocks, hb); err != nil {
		return 0, err
	}
	d := marshal.NewDecoder(hb[:24])
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
	// in one buffer sized to whole blocks, whose zeroed tail is the last
	// block's padding, so the blocks go to the device as slices of it.
	bs := uint64(j.bs)
	nb := (uint64(chunkHdrSize+len(j.pending)+8) + bs - 1) / bs
	if j.tail+nb > j.recBlocks {
		return ErrJournalFull
	}
	e := marshal.NewEncoder(make([]byte, 0, nb*bs))
	e.U64(chunkMagic).U64(j.epoch).U64(j.pendingFirst).U64(round)
	e.U32(j.pendingCount).U32(uint32(len(j.pending)))
	e = marshal.AppendTo(append(e.Bytes(), j.pending...))
	e.U64(marshal.Fletcher64(e.Bytes()))
	buf := e.Bytes()[:nb*bs]
	for i := uint64(0); i < nb; i++ {
		if err := j.d.WriteBlock(j.recBase+j.tail+i, buf[i*bs:(i+1)*bs]); err != nil {
			return err
		}
	}

	first := j.pendingFirst
	j.flushedSeq = j.pendingFirst + uint64(j.pendingCount) - 1
	j.tail += nb
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
	obs.WALCheckpoints.Add(j.shard, 1)
	return nil
}

// CheckpointCommitted compacts the journal without touching the live
// filesystem or the pending buffer: it reconstructs the durable state
// purely from disk (snapshot + every valid on-disk chunk), snapshots
// that into the A/B region, and truncates the record area. Pending
// records stay in memory for the next flush.
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
	tail := uint64(0)
	for tail < j.tail {
		recs, first, _, count, nb, err := j.readChunk(tail, j.epoch)
		if err != nil {
			break
		}
		last := first + uint64(count) - 1
		if last > seq {
			if first != seq+1 {
				break
			}
			for _, m := range recs {
				if err := f.Apply(m); err != nil {
					return fmt.Errorf("wal: checkpoint replay seq %d (%s %q): %w", first, m.Kind, m.Path, err)
				}
			}
			seq = last
		}
		tail += nb
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
		if err := j.writeHeader(); err != nil {
			return nil, err
		}
		return f, nil
	}

	j.epoch = epoch
	j.snapSeq = stamp
	seq := stamp // last applied (or snapshot-covered) sequence
	tail := uint64(0)
	for tail < j.recBlocks {
		recs, first, round, count, nb, err := j.readChunk(tail, epoch)
		if err != nil {
			break // first invalid/stale chunk ends the valid prefix
		}
		if round > committed {
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
		last := first + uint64(count) - 1
		switch {
		case last <= seq:
			// Fully covered by the snapshot (chunks flushed before the
			// checkpoint whose header write did not land). Skip.
		case first == seq+1:
			for _, m := range recs {
				if err := f.Apply(m); err != nil {
					return nil, fmt.Errorf("wal: replay seq %d (%s %q): %w", first, m.Kind, m.Path, err)
				}
			}
			obs.WALReplayedRecords.Add(j.shard, uint64(count))
			seq = last
		default:
			// Sequence gap: a stale chunk from before a crash-interrupted
			// checkpoint. The valid prefix ends here.
			tail = j.recBlocks
		}
		if tail == j.recBlocks {
			break
		}
		tail += nb
	}

	j.nextSeq = seq + 1
	j.flushedSeq = seq
	j.tail = tail
	j.resetPending()
	return f, nil
}

// readChunk parses and validates the chunk at record-area block `at`,
// returning its decoded records, first sequence, commit round, count,
// and size in blocks. Any validation failure — bad magic, wrong epoch,
// bad checksum, truncated encoding — returns an error; a chunk that
// looked like one (magic matched) but failed integrity is counted as
// torn.
func (j *Journal) readChunk(at uint64, epoch uint64) ([]fs.Mutation, uint64, uint64, uint32, uint64, error) {
	bs := uint64(j.bs)
	blk := make([]byte, j.bs)
	if err := j.d.ReadBlock(j.recBase+at, blk); err != nil {
		return nil, 0, 0, 0, 0, err
	}
	d := marshal.NewDecoder(blk[:chunkHdrSize])
	magic, ep, first, round := d.U64(), d.U64(), d.U64(), d.U64()
	count, plen := d.U32(), d.U32()
	if d.Err() != nil || magic != chunkMagic {
		return nil, 0, 0, 0, 0, fmt.Errorf("%w: no chunk at block %d", ErrCorruptChunk, at)
	}
	if ep != epoch {
		// A stale chunk from a previous epoch: not torn, just truncated
		// away by a checkpoint.
		return nil, 0, 0, 0, 0, fmt.Errorf("%w: epoch %d at block %d, journal at %d", ErrCorruptChunk, ep, at, epoch)
	}
	total := uint64(chunkHdrSize) + uint64(plen) + 8
	nb := (total + bs - 1) / bs
	if at+nb > j.recBlocks || count == 0 {
		obs.WALTornChunks.Add(j.shard, 1)
		return nil, 0, 0, 0, 0, fmt.Errorf("%w: chunk at block %d overruns record area", ErrCorruptChunk, at)
	}
	buf := make([]byte, nb*bs)
	copy(buf, blk)
	for i := uint64(1); i < nb; i++ {
		if err := j.d.ReadBlock(j.recBase+at+i, buf[i*bs:(i+1)*bs]); err != nil {
			return nil, 0, 0, 0, 0, err
		}
	}
	body := buf[:uint64(chunkHdrSize)+uint64(plen)]
	sumDec := marshal.NewDecoder(buf[len(body) : len(body)+8])
	if sum := sumDec.U64(); marshal.Fletcher64(body) != sum {
		obs.WALTornChunks.Add(j.shard, 1)
		return nil, 0, 0, 0, 0, fmt.Errorf("%w: checksum mismatch at block %d", ErrCorruptChunk, at)
	}
	recs := make([]fs.Mutation, 0, count)
	rd := marshal.NewDecoder(body[chunkHdrSize:])
	for i := uint32(0); i < count; i++ {
		recs = append(recs, decodeMutation(rd))
	}
	if err := rd.Finish(); err != nil {
		obs.WALTornChunks.Add(j.shard, 1)
		return nil, 0, 0, 0, 0, fmt.Errorf("%w: record decode at block %d: %v", ErrCorruptChunk, at, err)
	}
	return recs, first, round, count, nb, nil
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

// decodeMutation reads one record; the returned Data is an owned copy.
func decodeMutation(d *marshal.Decoder) fs.Mutation {
	return fs.Mutation{
		Kind:  fs.MutKind(d.U8()),
		Ino:   fs.Ino(d.U64()),
		Off:   d.U64(),
		Size:  d.U64(),
		Path:  d.String(),
		Path2: d.String(),
		Data:  d.BytesField(),
	}
}
