package pcache

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

func TestObligationsPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 41})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}

func TestReadAtShapes(t *testing.T) {
	src := newMemFrames(0)
	c := New(src, 0, 0)
	contents := make([]byte, 2*PageSize+100)
	rand.New(rand.NewSource(1)).Read(contents)
	fill := constFill(contents)

	cases := []struct{ off, ln int }{
		{0, 10},                        // inside page 0
		{PageSize - 5, 10},             // straddles pages 0/1
		{PageSize, PageSize},           // exactly page 1
		{0, len(contents)},             // whole file
		{len(contents) - 3, 50},        // tail, short read
		{len(contents), 10},            // at EOF
		{len(contents) + PageSize, 10}, // beyond EOF
		{2 * PageSize, PageSize},       // last partial page
	}
	for _, tc := range cases {
		buf := make([]byte, tc.ln)
		n, e := c.ReadAt(7, uint64(tc.off), buf, fill, 0)
		if e != sys.EOK {
			t.Fatalf("ReadAt(off=%d,len=%d): %v", tc.off, tc.ln, e)
		}
		want := 0
		if tc.off < len(contents) {
			want = len(contents) - tc.off
			if want > tc.ln {
				want = tc.ln
			}
		}
		if n != want {
			t.Fatalf("ReadAt(off=%d,len=%d) = %d bytes, want %d", tc.off, tc.ln, n, want)
		}
		if n > 0 && !bytes.Equal(buf[:n], contents[tc.off:tc.off+n]) {
			t.Fatalf("ReadAt(off=%d,len=%d) bytes diverge", tc.off, tc.ln)
		}
	}
	// Everything above EOF cached as an empty (n=0) page; a repeat read
	// of cached pages must hit, not refill.
	resident, _, _ := c.Stats()
	if resident == 0 {
		t.Fatal("no pages resident after reads")
	}
}

// TestReaderPinnedAcrossInvalidation is the epoch edge case: a reader
// that pinned before an invalidation keeps the dead page's frame alive
// (and readable) until it unpins, even while new readers already see the
// new bytes.
func TestReaderPinnedAcrossInvalidation(t *testing.T) {
	src := newMemFrames(0)
	c := New(src, 0, 0)
	old := bytes.Repeat([]byte{0xAA}, PageSize)
	fresh := bytes.Repeat([]byte{0x55}, PageSize)

	if _, e := c.ReadAt(1, 0, make([]byte, 1), constFill(old), 0); e != sys.EOK {
		t.Fatalf("fill: %v", e)
	}
	var frame mem.PAddr
	if v, ok := c.pages.Load(pageKey{ino: 1, page: 0}); ok {
		frame = v.(*page).frame
	} else {
		t.Fatal("page not resident after fill")
	}

	s := c.Pin(0)
	c.InvalidateIno(1) // write completed; reclaim runs inline
	if src.liveCount() != 1 {
		t.Fatalf("frame freed under pinned reader: %d live", src.liveCount())
	}
	// The pinned reader's view of the frame is still the old snapshot.
	got := make([]byte, PageSize)
	src.ReadFrame(frame, 0, got)
	if !bytes.Equal(got, old) {
		t.Fatal("snapshot corrupted while pinned")
	}
	// A new reader misses (page deleted) and refills with fresh bytes.
	buf := make([]byte, PageSize)
	if n, e := c.ReadAt(1, 0, buf, constFill(fresh), 1); e != sys.EOK || n != PageSize {
		t.Fatalf("refill read: n=%d %v", n, e)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("post-invalidation read served stale bytes")
	}
	c.Unpin(s)
	c.Quiesce()
	if got, want := src.liveCount(), 1; got != want { // only the refilled page remains
		t.Fatalf("after unpin+quiesce: %d live frames, want %d", got, want)
	}
}

// TestEvictionUnderMemoryPressure starves the frame source and checks
// the cache evicts to make room, skips mapped pages, and degrades to
// serving uncached rather than failing.
func TestEvictionUnderMemoryPressure(t *testing.T) {
	const limit = 4
	src := newMemFrames(limit)
	c := New(src, 0, 64) // residency bound above the frame limit: pressure drives eviction
	contents := make([]byte, 32*PageSize)
	rand.New(rand.NewSource(2)).Read(contents)
	fill := constFill(contents)

	// Map one page so eviction must skip it.
	if _, e := c.ReadAt(1, 0, make([]byte, 1), fill, 0); e != sys.EOK {
		t.Fatalf("fill: %v", e)
	}
	frame, _, ok := c.MapPage(1, 0, 0)
	if !ok {
		t.Fatal("MapPage missed")
	}

	// Touch far more pages than there are frames: every read must still
	// return correct bytes.
	for i := 0; i < 32; i++ {
		off := uint64(i) * PageSize
		buf := make([]byte, PageSize)
		n, e := c.ReadAt(1, off, buf, fill, i)
		if e != sys.EOK || n != PageSize {
			t.Fatalf("read page %d under pressure: n=%d %v", i, n, e)
		}
		if !bytes.Equal(buf, contents[off:off+PageSize]) {
			t.Fatalf("page %d bytes diverge under pressure", i)
		}
		if src.liveCount() > limit {
			t.Fatalf("cache exceeded frame limit: %d > %d", src.liveCount(), limit)
		}
	}
	// The mapped page survived every eviction pass.
	if !c.Owns(frame) {
		t.Fatal("mapped page was evicted")
	}
	got := make([]byte, PageSize)
	src.ReadFrame(frame, 0, got)
	if !bytes.Equal(got, contents[:PageSize]) {
		t.Fatal("mapped page corrupted by eviction churn")
	}
	c.UnmapFrame(frame)
	c.InvalidateIno(1)
	c.Quiesce()
	if src.liveCount() != 0 {
		t.Fatalf("%d frames leaked", src.liveCount())
	}
}

// TestMappedReadStress races epoch-pinned reads and page mappings
// against concurrent writers (invalidations modeling WriteAt/Truncate)
// — run under -race this exercises the pin/invalidate/reclaim fences.
func TestMappedReadStress(t *testing.T) {
	src := newMemFrames(0)
	c := New(src, 0, 32)

	// Mutable backing store: writers flip the generation byte, readers
	// must always observe a page that is uniformly one generation.
	var mu sync.Mutex
	backing := make([]byte, 8*PageSize)
	fill := func(_ fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		mu.Lock()
		defer mu.Unlock()
		if off >= uint64(len(backing)) {
			return 0, sys.EOK
		}
		return copy(p, backing[off:]), sys.EOK
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16)

	// Writers: bump a page's generation, then invalidate it — the
	// cache-order a real WriteAt follows (mutation applies, then the
	// invalidator hook runs before the write returns).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for gen := byte(1); ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				pg := uint64(r.Intn(8))
				mu.Lock()
				for i := uint64(0); i < PageSize; i++ {
					backing[pg*PageSize+i] = gen
				}
				mu.Unlock()
				if r.Intn(4) == 0 {
					c.InvalidateIno(1) // truncate-shaped: kill everything
				} else {
					c.InvalidateRange(1, pg*PageSize, (pg+1)*PageSize)
				}
			}
		}(w)
	}
	// Readers: copy out pages and check uniformity (page-wise atomicity:
	// a page is never a torn mix of generations).
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + rd)))
			buf := make([]byte, PageSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg := uint64(r.Intn(8))
				n, e := c.ReadAt(1, pg*PageSize, buf, fill, rd)
				if e != sys.EOK || n != PageSize {
					fail <- "read failed under stress"
					return
				}
				for i := 1; i < n; i++ {
					if buf[i] != buf[0] {
						fail <- "torn page observed"
						return
					}
				}
			}
		}(rd)
	}
	// Mappers: pin pages into "vspaces", verify the snapshot stays
	// uniform even after invalidation, then unpin.
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(300 + m)))
			buf := make([]byte, PageSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg := uint64(r.Intn(8))
				frame, n, ok := c.MapPage(1, pg*PageSize, m)
				if !ok {
					// populate and retry next round
					_, _ = c.ReadAt(1, pg*PageSize, buf[:1], fill, m)
					continue
				}
				src.ReadFrame(frame, 0, buf[:n])
				for i := 1; i < int(n); i++ {
					if buf[i] != buf[0] {
						fail <- "torn mapped snapshot"
						break
					}
				}
				c.UnmapFrame(frame)
			}
		}(m)
	}

	for i := 0; i < 2000; i++ {
		select {
		case msg := <-fail:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
		}
		c.Reclaim()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	c.InvalidateIno(1)
	c.Quiesce()
	if src.liveCount() != 0 {
		t.Fatalf("%d frames leaked after stress", src.liveCount())
	}
}

// TestBeyondEOFPageIsCachedEmpty: a read past EOF caches an n=0 page
// (negative caching) and MapPage hands it out with zero valid bytes.
func TestBeyondEOFPageIsCachedEmpty(t *testing.T) {
	src := newMemFrames(0)
	c := New(src, 0, 0)
	contents := make([]byte, 100)
	fill := constFill(contents)

	buf := make([]byte, 10)
	if n, e := c.ReadAt(1, 4*PageSize, buf, fill, 0); e != sys.EOK || n != 0 {
		t.Fatalf("beyond-EOF read: n=%d %v", n, e)
	}
	frame, n, ok := c.MapPage(1, 4*PageSize, 0)
	if !ok {
		t.Fatal("beyond-EOF page not cached")
	}
	if n != 0 {
		t.Fatalf("beyond-EOF page valid bytes = %d, want 0", n)
	}
	c.UnmapFrame(frame)
	c.InvalidateIno(1)
	c.Quiesce()
	if src.liveCount() != 0 {
		t.Fatalf("%d frames leaked", src.liveCount())
	}
}

// TestInvalidateTouchesOnlyItsInode pins the O(pages touched) claim on
// the count of index entries an invalidation examines, not on a clock:
// a write to a small file next to a large cached one looks at the small
// file's pages only, and a narrow range looks at one entry per page of
// the range.
func TestInvalidateTouchesOnlyItsInode(t *testing.T) {
	const bigPages, smallPages = 200, 8
	c := New(newMemFrames(0), 0, 0)
	contents := make([]byte, bigPages*PageSize)
	fills := 0
	fill := func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		fills++
		return constFill(contents)(ino, off, p)
	}
	buf := make([]byte, PageSize)
	readAll := func(ino fs.Ino, pages int) {
		for pg := 0; pg < pages; pg++ {
			if n, e := c.ReadAt(ino, uint64(pg)*PageSize, buf, fill, 0); e != sys.EOK || n != PageSize {
				t.Fatalf("read ino %d page %d: n=%d %v", ino, pg, n, e)
			}
		}
	}
	const big, small, absent = fs.Ino(1), fs.Ino(2), fs.Ino(3)
	readAll(big, bigPages)
	readAll(small, smallPages)

	visited := func(f func()) uint64 {
		c.mu.Lock()
		v0 := c.visits
		c.mu.Unlock()
		f()
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.visits - v0
	}
	for _, tc := range []struct {
		name string
		f    func()
		want uint64
	}{
		{"one page of the small file", func() { c.InvalidateRange(small, 3*PageSize+10, 3*PageSize+266) }, 1},
		{"three pages of the big file", func() { c.InvalidateRange(big, 10*PageSize, 13*PageSize) }, 3},
		{"a range wider than the small file's resident set", func() { c.InvalidateRange(small, 0, 1<<40) }, smallPages - 1},
		{"an inode with nothing cached", func() { c.InvalidateIno(absent) }, 0},
		{"the small file again, now empty", func() { c.InvalidateIno(small) }, 0},
	} {
		if got := visited(tc.f); got != tc.want {
			t.Errorf("%s: examined %d index entries, want %d (the cache holds %d pages)", tc.name, got, tc.want, bigPages)
		}
	}
	if resident, _, _ := c.Stats(); resident != bigPages-3 {
		t.Errorf("%d pages resident, want %d", resident, bigPages-3)
	}
	// The big file's other pages were not disturbed: only the three
	// killed ones refill.
	fills = 0
	readAll(big, bigPages)
	if fills != 3 {
		t.Errorf("re-reading the big file filled %d pages, want the 3 invalidated", fills)
	}
	if err := c.checkResidency(); err != nil {
		t.Error(err)
	}
}

// TestResidencyChurnStress runs readers over three times the residency
// bound (so inserts evict), range and whole-inode invalidators, and a
// checker of the residency invariant concurrently against the per-inode
// index and the eviction order. Pages stay uniformly one generation and
// every frame comes back at the end. For -race.
func TestResidencyChurnStress(t *testing.T) {
	const inodes, pagesPer, maxPages = 3, 24, 24
	src := newMemFrames(0)
	c := New(src, 0, maxPages)
	var mu sync.Mutex
	backing := make([]byte, inodes*pagesPer*PageSize)
	fill := func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		mu.Lock()
		defer mu.Unlock()
		return copy(p, backing[(uint64(ino)-1)*pagesPer*PageSize+off:][:PageSize]), sys.EOK
	}
	var wg sync.WaitGroup
	var reads atomic.Int64
	stop := make(chan struct{})
	fail := make(chan string, 16)
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(400 + w)))
			for gen := byte(1); running(); gen++ {
				ino, pg := uint64(r.Intn(inodes)), uint64(r.Intn(pagesPer))
				mu.Lock()
				page := backing[(ino*pagesPer+pg)*PageSize:][:PageSize]
				for i := range page {
					page[i] = gen
				}
				mu.Unlock()
				if r.Intn(8) == 0 {
					c.InvalidateIno(fs.Ino(ino + 1))
				} else {
					c.InvalidateRange(fs.Ino(ino+1), pg*PageSize, (pg+1)*PageSize)
				}
			}
		}(w)
	}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(500 + rd)))
			buf := make([]byte, PageSize)
			for running() {
				ino, pg := fs.Ino(1+r.Intn(inodes)), uint64(r.Intn(pagesPer))
				p := buf
				if r.Intn(4) == 0 {
					p = buf[:1+r.Intn(PageSize-1)] // the staged fill
				}
				n, e := c.ReadAt(ino, pg*PageSize, p, fill, rd)
				if e != sys.EOK || n != len(p) {
					fail <- "read failed under churn"
					return
				}
				for i := 1; i < n; i++ {
					if p[i] != p[0] {
						fail <- "torn page observed"
						return
					}
				}
				reads.Add(1)
			}
		}(rd)
	}
	// Progress is counted in reads, not time: a one-CPU box must not
	// finish the checks before the other goroutines ever ran.
	for reads.Load() < 5000 && len(fail) == 0 {
		if err := c.checkResidency(); err != nil {
			fail <- err.Error()
			break
		}
		c.Reclaim()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	for ino := fs.Ino(1); ino <= inodes; ino++ {
		c.InvalidateIno(ino)
	}
	c.Quiesce()
	if src.liveCount() != 0 {
		t.Fatalf("%d frames leaked after churn", src.liveCount())
	}
	if src.allocs <= maxPages {
		t.Fatalf("only %d frames ever allocated: the churn never evicted or refilled", src.allocs)
	}
}
