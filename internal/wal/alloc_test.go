package wal

import (
	"math"
	"runtime"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
)

// leastAlloc returns the fewest bytes and objects that any of three runs
// of measure allocates, each run after its own prepare. The counters are
// the whole process's, so the runtime can allocate inside one window; an
// allocation the code under test makes shows in every run.
func leastAlloc(prepare, measure func()) (bytes, objs uint64) {
	bytes, objs = math.MaxUint64, math.MaxUint64
	for try := 0; try < 3; try++ {
		prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measure()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objs = min(objs, after.Mallocs-before.Mallocs)
	}
	return bytes, objs
}

// TestRecordAllocationBudget pins what one group-commit round costs the
// allocator once the journal is warm: 16 records of 256 bytes and the
// flush that writes them allocate nothing. Record encodes into the
// pending buffer's tail, which keeps its capacity across flushes, and
// the flush builds its chunk in the journal's chunk storage, which keeps
// its slab across checkpoints — so one epoch of rounds ended by a
// CheckpointCommitted warms both. It also pins that a checkpoint
// allocates nothing per chunk or record. No wall clock.
func TestRecordAllocationBudget(t *testing.T) {
	disk := fs.NewMemBlockStore(4096, 256)
	// MemBlockStore allocates a block on its first write; touch them all
	// so the measurement below sees the journal, not the test's device.
	zero := make([]byte, disk.BlockSize())
	for i := uint64(0); i < disk.NumBlocks(); i++ {
		if err := disk.WriteBlock(i, zero); err != nil {
			t.Fatal(err)
		}
	}
	j, err := New(disk, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Format(); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	var next uint64
	rounds := func(n int) func() {
		return func() {
			for r := 0; r < n; r++ {
				for i := 0; i < 16; i++ {
					j.Record(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: uint64(i) * 256, Data: data})
				}
				next++
				if err := j.FlushRound(next); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkpoint := func() {
		if err := j.CheckpointCommitted(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: the epoch the measured rounds repeat (its replay needs the
	// file the records write). Each measurement starts a fresh epoch.
	const warm = 8
	j.Record(fs.Mutation{Kind: fs.MutCreate, Path: "/f"})
	rounds(warm)()
	if bytes, objs := leastAlloc(checkpoint, rounds(warm)); objs != 0 || bytes != 0 {
		t.Fatalf("%d warm rounds of 16 records + one flush allocate %d bytes in %d objects, want none", warm, bytes, objs)
	}

	// A checkpoint replays each record with its Data borrowed from the
	// chunk, so what it allocates is the snapshot's load and save: the
	// same after one round as after sixteen that rewrite the same bytes.
	oneB, oneN := leastAlloc(func() { checkpoint(); rounds(1)() }, checkpoint)
	manyB, manyN := leastAlloc(func() { checkpoint(); rounds(16)() }, checkpoint)
	if manyB != oneB || manyN != oneN {
		t.Fatalf("a checkpoint of 1 chunk allocates %d bytes in %d objects, of 16 chunks %d in %d: it allocates per chunk or record", oneB, oneN, manyB, manyN)
	}
}
