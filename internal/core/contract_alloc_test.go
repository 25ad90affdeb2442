package core

import (
	"runtime"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
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
// constant plus, for a write, the copy-on-write clone of the page it
// touches and of the file's pointer array — not the file (17.5 KB per
// checked seek+write of a 16 KiB file while contents were one flat
// array), and not four deep copies of every open file (≈ 66 KB before
// views became snapshots). Beside it, an mmap/munmap pair: its three
// page-table and data frames reuse the backing arrays their zeroing
// retired (12.8 KB per pair before hw/mem recycled them). Runs under
// -short too: it is the tier-1 pin on the benchmark's alloc_bytes_per_op.
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
		m, err := s.SpawnHandle(h, "mapper") // init has no address space
		if err != nil {
			t.Fatal(err)
		}
		mmapPair := allocPerRequest(200, func() {
			va, e := m.MMap(mmu.L1PageSize)
			fail("mmap", e)
			fail("munmap", m.MUnmap(va))
		})
		t.Logf("shards=%d: seek+read %d B/request, seek+write %d B/request, mmap+munmap %d B/request",
			shards, read, write, mmapPair)
		if read >= 4<<10 {
			t.Errorf("shards=%d: checked seek+read allocates %d B per request, budget 4 KiB", shards, read)
		}
		if write >= 6<<10 {
			t.Errorf("shards=%d: checked seek+write allocates %d B per request, budget 6 KiB", shards, write)
		}
		if mmapPair >= 2<<10 {
			t.Errorf("shards=%d: mmap+munmap allocates %d B per pair, budget 2 KiB", shards, mmapPair)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
