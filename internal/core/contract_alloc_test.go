package core

import (
	"runtime"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// allocPerRequest is testing.AllocsPerRun for bytes: the mean
// runtime.MemStats.TotalAlloc delta of f over runs calls, after one
// warm-up call. Deterministic — no wall clock.
func allocPerRequest(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestContractCheckAllocationBudget is the cost guard for the copy-free
// views: with the contract on, a checked request allocates a small
// constant plus, for a write, the one copy-on-write clone of the file —
// not four deep copies of every open file (≈ 66 KB per request before
// views became snapshots). Runs under -short too: it is the tier-1 pin
// on the benchmark's alloc_bytes_per_op.
func TestContractCheckAllocationBudget(t *testing.T) {
	const fileSize, io = 16 << 10, 512
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		fd, e := h.Open("/budget", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		if _, e := h.Write(fd, make([]byte, fileSize)); e != sys.EOK {
			t.Fatal(e)
		}
		buf := make([]byte, io)
		fail := func(what string, e sys.Errno) {
			if e != sys.EOK {
				t.Errorf("shards=%d %s: %v", shards, what, e)
			}
		}
		read := allocPerRequest(200, func() {
			_, e := h.Seek(fd, 1024, fs.SeekSet)
			fail("seek", e)
			_, e = h.Read(fd, buf)
			fail("read", e)
		})
		write := allocPerRequest(200, func() {
			_, e := h.Seek(fd, 1024, fs.SeekSet)
			fail("seek", e)
			_, e = h.Write(fd, buf)
			fail("write", e)
		})
		t.Logf("shards=%d: seek+read %d B/request, seek+write %d B/request", shards, read, write)
		if read >= 4<<10 {
			t.Errorf("shards=%d: checked seek+read allocates %d B per request, budget 4 KiB", shards, read)
		}
		if write >= 20<<10 {
			t.Errorf("shards=%d: checked seek+write allocates %d B per request, budget 20 KiB", shards, write)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
