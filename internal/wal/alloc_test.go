package wal

import (
	"runtime"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
)

// TestRecordAllocationBudget pins what one group-commit round costs the
// allocator once the journal is warm: 16 records of 256 bytes and the
// flush that writes them. Record encodes into the pending buffer's tail
// and the buffer keeps its capacity across flushes, so the round's only
// allocation of size is the chunk it hands to the device. No wall clock.
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
	round := func(r uint64) {
		for i := 0; i < 16; i++ {
			j.Record(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: uint64(i) * 256, Data: data})
		}
		if err := j.FlushRound(r); err != nil {
			t.Fatal(err)
		}
	}
	round(1) // warm: the pending buffer grows to its working size once
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := uint64(0); r < rounds; r++ {
		round(2 + r)
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perRound > 12<<10 {
		t.Fatalf("16 records + one flush allocate %d bytes, budget 12 KiB", perRound)
	}
}
