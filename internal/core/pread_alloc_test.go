package core

import (
	"bytes"
	"testing"

	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/sys"
)

// TestPreadHitAllocationBudget pins the one-copy read: a page-sized
// cache-hit Pread through the destination crossing allocates a small
// constant in a handful of objects — the encoded request and the
// descriptor resolve — and no page-sized buffer (≈ 9.3 KB in 5 objects
// when the bytes travelled in an encoded reply). Runs under -short too:
// it is the tier-1 pin on read_hot's alloc_bytes_per_op.
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
		if bytesPer > 512 {
			t.Errorf("shards=%d: cache-hit Pread allocates %d B per call, budget 512 B", shards, bytesPer)
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
