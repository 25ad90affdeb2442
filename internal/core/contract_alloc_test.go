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
// warm-up call — the least of three such means, because TotalAlloc is
// process-wide and another goroutine (a booted system's own, or the race
// runtime's) can allocate during one of them. Deterministic — no wall
// clock.
func allocPerRequest(runs int, f func()) uint64 {
	f()
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestContractCheckAllocationBudget is the cost guard for the copy-free
// views: with the contract on, a checked request allocates a small
// constant plus, for a write, the copy-on-write clone of the page it
// touches and of the file's pointer array — not the file (17.5 KB per
// checked seek+write of a 16 KiB file while contents were one flat
// array), and not four deep copies of every open file (≈ 66 KB before
// views became snapshots). A checked batch pays per descriptor run what a
// checked write does, plus the replay model's clone of the pages the run
// writes; a checked pread, its witness. Beside them, an mmap/munmap pair:
// its three page-table and data frames reuse the backing arrays their
// zeroing retired (12.8 KB per pair before hw/mem recycled them). Runs
// under -short too: it is the tier-1 pin on the benchmark's
// alloc_bytes_per_op.
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
		// A ring_sync-shaped batch — a seek, then sixteen 256 B writes into
		// one page: one descriptor run — and a cache-hit page Pread, each
		// checked, with the batch's unchecked cost (a raw handle of the same
		// process) subtracted.
		raw, err := s.RawSysOn(h.PID(), 0)
		if err != nil {
			t.Fatal(err)
		}
		ops := []sys.Op{sys.OpSeek(fd, 4096, fs.SeekSet)}
		for i := 0; i < 16; i++ {
			ops = append(ops, sys.OpWrite(fd, buf[:256]))
		}
		submit := func(s *sys.Sys) func() {
			return func() {
				comps, e := s.SubmitWait(ops)
				fail("batch", e)
				for _, c := range comps {
					fail("batch entry", c.Errno)
				}
			}
		}
		batch := allocPerRequest(200, submit(h)) - allocPerRequest(200, submit(raw))
		batchObjs := testing.AllocsPerRun(200, submit(h)) - testing.AllocsPerRun(200, submit(raw))
		page := make([]byte, 4096)
		pread := func() {
			n, e := h.Pread(fd, page, 4096)
			fail("pread", e)
			if n != 4096 {
				t.Errorf("shards=%d: pread returned %d bytes", shards, n)
			}
		}
		preadBytes := allocPerRequest(200, pread)
		preadObjs := testing.AllocsPerRun(200, pread)
		t.Logf("shards=%d: seek+read %d B/request, seek+write %d B/request, mmap+munmap %d B/request, "+
			"17-op batch check %d B in %.1f objects, checked pread %d B in %.1f objects",
			shards, read, write, mmapPair, batch, batchObjs, preadBytes, preadObjs)
		if read >= 4<<10 {
			t.Errorf("shards=%d: checked seek+read allocates %d B per request, budget 4 KiB", shards, read)
		}
		if write >= 6<<10 {
			t.Errorf("shards=%d: checked seek+write allocates %d B per request, budget 6 KiB", shards, write)
		}
		if mmapPair >= 2<<10 {
			t.Errorf("shards=%d: mmap+munmap allocates %d B per pair, budget 2 KiB", shards, mmapPair)
		}
		// The two budgets below are what the witnesses cost, on both kernels:
		// one witness per run, built once (sys.ComposeWitness reuses the
		// contents step's), plus the replay model's page clones for the
		// batch; the pread's own witness. A second witness allocation would
		// add an object and 128 B; the byte bounds leave 32 B for the noise
		// of subtracting two means.
		const noise = 32
		if batch > 8704+noise || batchObjs > 7 {
			t.Errorf("shards=%d: checking a 17-op batch allocates %d B in %.1f objects, budget 8 704 B in 7",
				shards, batch, batchObjs)
		}
		if preadBytes > 272+noise || preadObjs > 3 {
			t.Errorf("shards=%d: a checked cache-hit Pread allocates %d B in %.1f objects, budget 272 B in 3",
				shards, preadBytes, preadObjs)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
