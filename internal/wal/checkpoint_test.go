package wal

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
)

// countingStore counts the block reads that land at or past from.
type countingStore struct {
	fs.BlockStore
	from  uint64
	reads int
}

func (c *countingStore) ReadBlock(i uint64, p []byte) error {
	if i >= c.from {
		c.reads++
	}
	return c.BlockStore.ReadBlock(i, p)
}

// retainedBytes is what the journal holds of its record area in memory.
func retainedBytes(j *Journal) int {
	n := 0
	for _, b := range j.chunks {
		n += len(b)
	}
	return n
}

// TestCheckpointReadsNoRecordArea counts the work of a compaction with
// no wall clock: after flushed chunks fill the record area,
// CheckpointCommitted replays them from memory and reads nothing past
// the snapshot region — no journal header, no record-area block. The
// chunks it retains never exceed the record area, and the compacted
// snapshot recovers to the live filesystem.
func TestCheckpointReadsNoRecordArea(t *testing.T) {
	disk := fs.NewMemBlockStore(512, 256)
	j := newTestJournal(t, disk)
	cs := &countingStore{BlockStore: disk, from: j.snapBlocks}
	j.d = cs
	if err := j.Format(); err != nil {
		t.Fatal(err)
	}
	f := runSteps(t, j, []fs.Mutation{{Kind: fs.MutCreate, Path: "/log"}})
	limit := int(j.RecordBlocks()) * disk.BlockSize()
	data := make([]byte, 700) // two-block chunks
	for ckpt := 0; ckpt < 2; ckpt++ {
		chunks := 0
		for off := uint64(0); ; off += uint64(len(data)) {
			if err := f.Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: off, Data: data}); err != nil {
				t.Fatal(err)
			}
			err := j.Flush()
			if got := retainedBytes(j); got > limit || got != int(j.TailBlocks())*disk.BlockSize() {
				t.Fatalf("retained %d bytes for a %d-block tail, record area %d bytes", got, j.TailBlocks(), limit)
			}
			if errors.Is(err, ErrJournalFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			chunks++
		}
		if chunks < 4 {
			t.Fatalf("only %d chunks flushed before the record area filled", chunks)
		}
		cs.reads = 0
		if err := j.CheckpointCommitted(); err != nil {
			t.Fatal(err)
		}
		if cs.reads != 0 {
			t.Fatalf("checkpoint %d after %d chunks read %d blocks past the snapshot region", ckpt, chunks, cs.reads)
		}
		if got := retainedBytes(j); got != 0 {
			t.Fatalf("checkpoint truncated the record area but retains %d bytes", got)
		}
		if err := j.Flush(); err != nil { // the record that did not fit
			t.Fatal(err)
		}
	}
	rec, err := newTestJournal(t, disk).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Equal(rec, f) {
		t.Fatal("recovery after checkpoints replayed from memory diverges from the live filesystem")
	}
}

// TestReusedChunkStorage checks what building chunks in reused storage
// must not change. Whole pages are flushed in multi-block chunks over a
// checkpoint, so the second epoch's chunks are built in the slab the
// first one sized, and a recovery through the same journal — as a second
// kernel replica's would — reads them back into that slab. The recovered
// filesystem goes live, the journal checkpoints, and small chunks are
// then built over the bytes the recovered ones occupied. Recovery and
// the compacted snapshot must both equal the live filesystem — which
// fails if a replay kept a record's Data instead of copying it, since
// the live pages would change under the later chunks — and the padding
// of every chunk on disk must read zero, as a fresh buffer left it.
func TestReusedChunkStorage(t *testing.T) {
	disk := fs.NewMemBlockStore(512, 512)
	rng := rand.New(rand.NewSource(7))
	write := func(f *fs.FS, off uint64, n int) {
		t.Helper()
		data := make([]byte, n) // never reused: only the journal may alias it
		rng.Read(data)
		if err := f.Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: off, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	var round uint64
	flush := func(j *Journal) {
		t.Helper()
		round++
		if err := j.FlushRound(round); err != nil {
			t.Fatal(err)
		}
	}

	j := newTestJournal(t, disk)
	if err := j.Format(); err != nil {
		t.Fatal(err)
	}
	first := runSteps(t, j, []fs.Mutation{{Kind: fs.MutCreate, Path: "/f"}})
	for pg := uint64(0); pg < 8; pg++ {
		if pg == 4 {
			if err := j.CheckpointCommitted(); err != nil {
				t.Fatal(err)
			}
		}
		write(first, pg*fs.PageSize, fs.PageSize) // a fresh page each: nine-block chunks
		flush(j)
	}

	live, err := j.RecoverCommitted(round)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Equal(live, first) {
		t.Fatal("recovery diverges from the filesystem that flushed the chunks")
	}
	live.SetJournal(j)
	if err := j.CheckpointCommitted(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		write(live, 16*fs.PageSize+uint64(r)*300, 100+r*20) // one-block chunks over the old ones' bytes
		flush(j)
	}
	checkPaddingZero(t, disk, j)

	rec, err := newTestJournal(t, disk).RecoverCommitted(round)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Equal(rec, live) {
		t.Fatal("recovery diverges from the live filesystem after chunks were built in reused storage")
	}
	if err := j.CheckpointCommitted(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := fs.LoadStamped(j.SnapshotView())
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Equal(snap, live) {
		t.Fatal("the snapshot compacted from reused chunk storage diverges from the live filesystem")
	}
}

// checkPaddingZero walks the chunks of j's record area on disk and fails
// if any byte of a chunk's last block past its checksum is not zero.
func checkPaddingZero(t *testing.T, disk *fs.MemBlockStore, j *Journal) {
	t.Helper()
	bs := uint64(disk.BlockSize())
	blk := make([]byte, bs)
	chunks := 0
	for at := uint64(0); at < j.TailBlocks(); chunks++ {
		if err := disk.ReadBlock(j.recBase+at, blk); err != nil {
			t.Fatal(err)
		}
		h, ok := decodeChunkHeader(blk)
		if !ok {
			t.Fatalf("no chunk at record block %d of a %d-block tail", at, j.TailBlocks())
		}
		nb := (h.size() + bs - 1) / bs
		if err := disk.ReadBlock(j.recBase+at+nb-1, blk); err != nil {
			t.Fatal(err)
		}
		for i := h.size() - (nb-1)*bs; i < bs; i++ {
			if blk[i] != 0 {
				t.Fatalf("chunk %d (record block %d): padding byte %d of its last block is %#x", chunks, at, i, blk[i])
			}
		}
		at += nb
	}
	if chunks == 0 {
		t.Fatal("no chunk on disk to check")
	}
}
