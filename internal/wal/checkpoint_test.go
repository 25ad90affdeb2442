package wal

import (
	"errors"
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
