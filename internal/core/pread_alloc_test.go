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
// cache-hit Pread through the destination crossing allocates a small
// constant — the miss filler, 16 B in one object — and no page-sized
// buffer (≈ 9.3 KB in 5 objects when the bytes travelled in an encoded
// reply) and no response: the descriptor resolve is answered in the
// handler's slot, and a 360-B sys.Resp that escaped to the heap instead
// blows the byte budget. Runs under -short too: it is the tier-1 pin on
// read_hot's alloc_bytes_per_op.
func TestPreadHitAllocationBudget(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		fd, e := h.Open("/hot", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		contents := bytes.Repeat([]byte{0x5a}, 4*pcache.PageSize)
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
		hit := func() {
			if n, e := raw.Pread(fd, buf, pcache.PageSize); e != sys.EOK || n != pcache.PageSize {
				t.Fatalf("shards=%d pread: n=%d %v", shards, n, e)
			}
		}
		hit() // fill
		bytesPer := allocPerRequest(200, hit)
		objects := testing.AllocsPerRun(200, hit)
		t.Logf("shards=%d: cache-hit 4 KiB Pread allocates %d B in %.1f objects", shards, bytesPer, objects)
		if bytesPer > 64 {
			t.Errorf("shards=%d: cache-hit Pread allocates %d B per call, budget 64 B", shards, bytesPer)
		}
		if objects > 4 {
			t.Errorf("shards=%d: cache-hit Pread allocates %.1f objects per call, budget 4", shards, objects)
		}
		if !bytes.Equal(buf, contents[:pcache.PageSize]) {
			t.Errorf("shards=%d: pread bytes diverge", shards)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// TestPreadMissAllocationBudget pins the miss path the same way: a
// page-aligned 4 KiB Pread that misses — of a file larger than the
// cache, read page after page, so once warm every call also evicts —
// fills straight into the caller's buffer and reuses the evicted page's
// frame, so it allocates no page-sized buffer (≈ 3 KB per call when the
// apply allocated the reply it copied from). The tier-1 pin on
// read_cold's alloc_bytes_per_op.
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
		raw, err := s.RawSysOn(h.PID(), 0)
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
		buf := make([]byte, pcache.PageSize)
		next := 0
		miss := func() {
			off := next * pcache.PageSize
			next = (next + 1) % pages
			if n, e := raw.Pread(fd, buf, uint64(off)); e != sys.EOK || n != pcache.PageSize {
				t.Fatalf("shards=%d pread at %d: n=%d %v", shards, off, n, e)
			}
			if !bytes.Equal(buf, contents[off:off+pcache.PageSize]) {
				t.Fatalf("shards=%d: pread at %d: bytes diverge", shards, off)
			}
		}
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
			t.Fatalf("shards=%d: %d reads made %d misses and %d evictions, want one each per read", shards, counted, m, ev)
		}
		bytesPer := allocPerRequest(200, miss)
		objects := testing.AllocsPerRun(200, miss)
		t.Logf("shards=%d: cache-miss 4 KiB Pread allocates %d B in %.1f objects", shards, bytesPer, objects)
		if bytesPer > 512 {
			t.Errorf("shards=%d: cache-miss Pread allocates %d B per call, budget 512 B", shards, bytesPer)
		}
		if objects > 4 {
			t.Errorf("shards=%d: cache-miss Pread allocates %.1f objects per call, budget 4", shards, objects)
		}
	}
}
