package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/sys"
)

// TestPreadHitAllocationBudget pins the one-copy read: a page-sized
// Pread through the destination crossing allocates nothing. Its request
// is encoded into the handle's request buffer (16 B in one object while
// each call encoded its own), there is no page-sized buffer (≈ 9.3 KB
// in 5 objects when the bytes travelled in an encoded reply) and no
// response: the descriptor resolve and the owner-shard read both answer
// in the handler's slot, and a 352-B sys.Resp that escaped to the heap
// instead blows the budget. A read of a file four times the page cache
// costs what a read of a hot one does, because a copying read does not
// go through the cache: it has nothing to miss. Runs under -short too:
// it is the tier-1 pin on read_hot's and read_cold's alloc_bytes_per_op.
func TestPreadHitAllocationBudget(t *testing.T) {
	for _, row := range []struct {
		name  string
		pages int
	}{
		{"hot", 4},
		{"cold", 4 * pcache.DefaultMaxPages},
	} {
		contents := make([]byte, row.pages*pcache.PageSize)
		rand.New(rand.NewSource(int64(row.pages))).Read(contents)
		for _, shards := range []int{0, 2} {
			s, err := Boot(Config{Cores: 2, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Init()
			if err != nil {
				t.Fatal(err)
			}
			fd, e := h.Open("/f", sys.OCreate|sys.ORdWr)
			if e != sys.EOK {
				t.Fatal(e)
			}
			if _, e := h.Write(fd, contents); e != sys.EOK {
				t.Fatal(e)
			}
			// The budget is the crossing's own: an unchecked handle, as the
			// benchmark's readers hold (a checked Pread adds its two views).
			raw, err := s.RawSysOn(h.PID(), 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, pcache.PageSize)
			next := 1
			read := func() {
				off := next * pcache.PageSize
				next = (next + 1) % row.pages
				if row.name == "hot" {
					next = 1 // the same page, round and round
				}
				if n, e := raw.Pread(fd, buf, uint64(off)); e != sys.EOK || n != pcache.PageSize {
					t.Fatalf("%s shards=%d pread at %d: n=%d %v", row.name, shards, off, n, e)
				}
				if !bytes.Equal(buf, contents[off:off+pcache.PageSize]) {
					t.Fatalf("%s shards=%d: pread at %d: bytes diverge", row.name, shards, off)
				}
			}
			bytesPer := allocPerRequest(200, read)
			objects := testing.AllocsPerRun(200, read)
			t.Logf("%s shards=%d: 4 KiB Pread of a %d-page file allocates %d B in %.1f objects",
				row.name, shards, row.pages, bytesPer, objects)
			if bytesPer > 0 {
				t.Errorf("%s shards=%d: Pread allocates %d B per call, budget 0", row.name, shards, bytesPer)
			}
			if objects > 0 {
				t.Errorf("%s shards=%d: Pread allocates %.1f objects per call, budget 0", row.name, shards, objects)
			}
			if err := h.ContractErr(); err != nil {
				t.Errorf("%s shards=%d: %v", row.name, shards, err)
			}
		}
	}
}

// TestPreadMissAllocationBudget pins the cache's fill path, which only
// the zero-copy tier takes: a PreadMap of a page-aligned 4 KiB page that
// misses — of a file larger than the cache, mapped page after page and
// unmapped at once, so once warm every call also evicts — fills through
// the handler's fill page, which the cache installs the frame from, and
// reuses the evicted page's frame, so it allocates no page-sized buffer
// (4.5 KB in 15 objects when the fill went through the cache's own
// stage): what it allocates is the two crossings' frames and the logged
// map and unmap transitions.
func TestPreadMissAllocationBudget(t *testing.T) {
	const pages = pcache.DefaultMaxPages + 256
	contents := make([]byte, pages*pcache.PageSize)
	rand.New(rand.NewSource(29)).Read(contents)
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		// A mapping needs an address space, which init has not.
		child, e := h.Spawn("mapper")
		if e != sys.EOK {
			t.Fatal(e)
		}
		raw, err := s.RawSysOn(child, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd, e := raw.Open("/cold", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		if _, e := raw.Write(fd, contents); e != sys.EOK {
			t.Fatal(e)
		}
		page := make([]byte, pcache.PageSize)
		next := 0
		check := false
		miss := func() {
			off := next * pcache.PageSize
			next = (next + 1) % pages
			va, n, e := raw.PreadMap(fd, uint64(off))
			if e != sys.EOK || n != pcache.PageSize {
				t.Fatalf("shards=%d pread_map at %d: n=%d %v", shards, off, n, e)
			}
			if check {
				if e := raw.MemRead(va, page); e != sys.EOK || !bytes.Equal(page, contents[off:off+pcache.PageSize]) {
					t.Fatalf("shards=%d: mapping of %d: %v, or bytes diverge", shards, off, e)
				}
			}
			if e := raw.PreadUnmap(va); e != sys.EOK {
				t.Fatalf("shards=%d pread_unmap: %v", shards, e)
			}
		}
		check = true
		for i := 0; i < pages; i++ {
			miss() // warm: fill the cache to its bound
		}
		// The calls measured are misses that evict: counted with the
		// counters on, measured with them off.
		const counted = 64
		obs.Enable()
		m0, e0 := obs.PCacheMisses.Load(), obs.PCacheEvictions.Load()
		for i := 0; i < counted; i++ {
			miss()
		}
		m, ev := obs.PCacheMisses.Load()-m0, obs.PCacheEvictions.Load()-e0
		obs.Disable()
		if m != counted || ev != counted {
			t.Fatalf("shards=%d: %d maps made %d misses and %d evictions, want one each per map", shards, counted, m, ev)
		}
		check = false
		bytesPer := allocPerRequest(200, miss)
		objects := testing.AllocsPerRun(200, miss)
		t.Logf("shards=%d: a PreadMap miss and its unmap allocate %d B in %.1f objects", shards, bytesPer, objects)
		if bytesPer > 512 {
			t.Errorf("shards=%d: a PreadMap miss and its unmap allocate %d B, budget 512 B", shards, bytesPer)
		}
		if objects > 14 {
			t.Errorf("shards=%d: a PreadMap miss and its unmap allocate %.1f objects, budget 14", shards, objects)
		}
	}
}
