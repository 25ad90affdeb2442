package pcache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// The page-cache verification conditions check the epoch protocol's two
// halves in isolation (core's read-mapping-refines-copy checks the
// composed system):
//
//   - safety: a pinned reader or a live vspace mapping blocks the free
//     of every frame it could still reach, and a fill racing an
//     invalidation can never install stale bytes;
//   - liveness/conservation: once readers unpin and mappings drop, every
//     retired frame returns to the source — no frame leaks, and
//     residency stays within the configured bound under pressure;
//   - residency: the bound counts live pages only, so a working set that
//     fits stays resident whatever invalidate/refill churn runs over it.

// memFrames is the in-memory FrameSource the obligations and tests run
// against: frames are 1-based indices into a slice of page buffers, and
// the source tracks the live set so conservation is checkable.
type memFrames struct {
	mu    sync.Mutex
	pages []*[PageSize]byte
	live  map[mem.PAddr]bool
	limit int // 0 = unlimited; else max live frames (pressure simulation)

	allocs int
	frees  int
}

func newMemFrames(limit int) *memFrames {
	return &memFrames{live: make(map[mem.PAddr]bool), limit: limit}
}

func (m *memFrames) AllocFrame() (mem.PAddr, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.limit > 0 && len(m.live) >= m.limit {
		return 0, errors.New("memFrames: out of frames")
	}
	m.pages = append(m.pages, new([PageSize]byte))
	f := mem.PAddr(len(m.pages)) // 1-based: 0 is never a valid frame
	m.live[f] = true
	m.allocs++
	return f, nil
}

func (m *memFrames) FreeFrame(f mem.PAddr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.live[f] {
		panic(fmt.Sprintf("memFrames: double free of %d", f))
	}
	delete(m.live, f)
	m.frees++
}

func (m *memFrames) buf(f mem.PAddr) *[PageSize]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.live[f] {
		panic(fmt.Sprintf("memFrames: access to freed frame %d", f))
	}
	return m.pages[int(f)-1]
}

func (m *memFrames) WriteFrame(f mem.PAddr, off uint64, p []byte) {
	copy(m.buf(f)[off:], p)
}

func (m *memFrames) ReadFrame(f mem.PAddr, off uint64, p []byte) {
	copy(p, m.buf(f)[off:])
}

func (m *memFrames) liveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// constFill returns a Filler serving a fixed backing slice as the
// authoritative contents of every inode.
func constFill(contents []byte) Filler {
	return func(_ fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		if off >= uint64(len(contents)) {
			return 0, sys.EOK
		}
		return copy(p, contents[off:]), sys.EOK
	}
}

// RegisterObligations registers the page-cache verification conditions.
func RegisterObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "pcache", Name: "pinned-reader-blocks-reclaim", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error { return pinnedReaderCheck(r) }},
		verifier.Obligation{Module: "pcache", Name: "mapped-frame-survives-invalidation", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error { return mappedFrameCheck(r) }},
		verifier.Obligation{Module: "pcache", Name: "stale-fill-never-installs", Kind: verifier.KindLinearizability,
			Check: func(r *rand.Rand) error { return staleFillCheck(r) }},
		verifier.Obligation{Module: "pcache", Name: "frame-conservation-under-churn", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error { return churnConservationCheck(r) }},
		verifier.Obligation{Module: "pcache", Name: "working-set-stays-resident", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error { return workingSetResidentCheck(r) }},
	)
}

// pinnedReaderCheck: a reader pinned before an invalidation blocks the
// retired frame's free until it unpins; a reader pinned after the
// invalidation does not (its epoch postdates the retirement).
func pinnedReaderCheck(r *rand.Rand) error {
	src := newMemFrames(0)
	c := New(src, 0, 0)
	contents := make([]byte, PageSize)
	r.Read(contents)
	buf := make([]byte, 16)
	if _, e := c.ReadAt(1, 0, buf, constFill(contents), 0); e != sys.EOK {
		return fmt.Errorf("fill read: %v", e)
	}

	s := c.Pin(3) // epoch observed before the invalidation
	c.InvalidateIno(1)
	c.Reclaim()
	if src.liveCount() != 1 {
		c.Unpin(s)
		return fmt.Errorf("frame freed under a pinned reader: %d live frames", src.liveCount())
	}
	// A late reader (post-invalidation epoch) must not block reclamation
	// once the early one leaves.
	late := c.Pin(7)
	c.Unpin(s)
	c.Reclaim()
	if src.liveCount() != 0 {
		c.Unpin(late)
		return fmt.Errorf("late-pinned reader blocked reclaim: %d live frames", src.liveCount())
	}
	c.Unpin(late)
	return nil
}

// mappedFrameCheck: a vspace alias (maps > 0) keeps a retired frame
// alive through invalidation and arbitrary reclaim passes; the last
// UnmapFrame releases it.
func mappedFrameCheck(r *rand.Rand) error {
	src := newMemFrames(0)
	c := New(src, 0, 0)
	contents := make([]byte, PageSize)
	r.Read(contents)
	if _, e := c.ReadAt(1, 0, make([]byte, 1), constFill(contents), 0); e != sys.EOK {
		return fmt.Errorf("fill read: %v", e)
	}
	frame, n, ok := c.MapPage(1, 0, 0)
	if !ok {
		return errors.New("MapPage missed a resident page")
	}
	if n != PageSize {
		return fmt.Errorf("mapped page reports %d valid bytes, want %d", n, PageSize)
	}
	c.InvalidateIno(1)
	for i := 0; i < 3; i++ {
		c.Reclaim()
	}
	if src.liveCount() != 1 {
		return fmt.Errorf("mapped frame freed under invalidation: %d live frames", src.liveCount())
	}
	// The snapshot must still be readable through the frame.
	got := make([]byte, PageSize)
	src.ReadFrame(frame, 0, got)
	for i := range got {
		if got[i] != contents[i] {
			return fmt.Errorf("mapped snapshot corrupted at byte %d", i)
		}
	}
	c.UnmapFrame(frame)
	c.Quiesce()
	if src.liveCount() != 0 {
		return fmt.Errorf("frame leaked after last unmap: %d live frames", src.liveCount())
	}
	if c.Owns(frame) {
		return errors.New("cache still claims ownership of an unmapped frame")
	}
	return nil
}

// staleFillCheck: an invalidation running between a fill's version read
// and its insert must win — the filled page may not enter the map, so
// the next read refills with post-invalidation bytes.
func staleFillCheck(r *rand.Rand) error {
	src := newMemFrames(0)
	c := New(src, 0, 0)
	old := make([]byte, PageSize)
	fresh := make([]byte, PageSize)
	r.Read(old)
	r.Read(fresh)

	// The filler serves the OLD bytes and then (as if a writer completed
	// while the authoritative read was in flight) invalidates the inode
	// before returning — the insert must see the version bump and decline.
	racingFill := func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		n := copy(p, old[off:])
		c.InvalidateRange(ino, 0, PageSize)
		return n, sys.EOK
	}
	buf := make([]byte, 32)
	if _, e := c.ReadAt(1, 0, buf, racingFill, 0); e != sys.EOK {
		return fmt.Errorf("racing read: %v", e)
	}
	if resident, _, _ := c.Stats(); resident != 0 {
		return fmt.Errorf("stale fill installed a page: %d resident", resident)
	}
	// The next read must fill fresh and serve the new bytes.
	got := make([]byte, PageSize)
	n, e := c.ReadAt(1, 0, got, constFill(fresh), 0)
	if e != sys.EOK || n != PageSize {
		return fmt.Errorf("refill read: n=%d %v", n, e)
	}
	for i := range got {
		if got[i] != fresh[i] {
			return fmt.Errorf("refill served stale byte at %d", i)
		}
	}
	return nil
}

// churnConservationCheck drives random reads, invalidations, mappings,
// and unmappings over a frame-limited source, then checks the cache
// respected the residency bound, never leaked a frame, and never
// double-freed (memFrames panics on double free or use-after-free).
func churnConservationCheck(r *rand.Rand) error {
	const maxPages = 8
	src := newMemFrames(maxPages + 4)
	c := New(src, 0, maxPages)
	contents := make([]byte, 64*PageSize)
	r.Read(contents)
	fill := constFill(contents)

	var mappedFrames []mem.PAddr
	for i := 0; i < 2000; i++ {
		ino := fs.Ino(1 + r.Intn(3))
		pageOff := uint64(r.Intn(64)) * PageSize
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			buf := make([]byte, 1+r.Intn(2*PageSize))
			if _, e := c.ReadAt(ino, pageOff+uint64(r.Intn(PageSize)), buf, fill, i); e != sys.EOK {
				return fmt.Errorf("read: %v", e)
			}
		case 6:
			c.InvalidateRange(ino, pageOff, pageOff+uint64(1+r.Intn(PageSize)))
		case 7:
			c.InvalidateIno(ino)
		case 8:
			if f, _, ok := c.MapPage(ino, pageOff, i); ok {
				mappedFrames = append(mappedFrames, f)
			}
		case 9:
			if len(mappedFrames) > 0 {
				j := r.Intn(len(mappedFrames))
				c.UnmapFrame(mappedFrames[j])
				mappedFrames = append(mappedFrames[:j], mappedFrames[j+1:]...)
			}
		}
		if resident, _, _ := c.Stats(); resident > maxPages {
			return fmt.Errorf("residency bound violated: %d > %d", resident, maxPages)
		}
	}
	for _, f := range mappedFrames {
		c.UnmapFrame(f)
	}
	for ino := fs.Ino(1); ino <= 3; ino++ {
		c.InvalidateIno(ino)
	}
	c.Quiesce()
	if n := src.liveCount(); n != 0 {
		return fmt.Errorf("%d frames leaked after full invalidation and quiescence", n)
	}
	return nil
}

// checkResidency is the residency invariant, read off the write-side
// structures under mu: the eviction order, the inode index and the
// lookup map hold the same pages, all of them live, and no more than
// maxPages of them.
func (c *Cache) checkResidency() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resident > c.maxPages {
		return fmt.Errorf("%d pages resident, bound %d", c.resident, c.maxPages)
	}
	ordered := 0
	var prev *page
	for pg := c.oldest; pg != nil; prev, pg = pg, pg.newer {
		ordered++
		if ordered > c.resident {
			break
		}
		if pg.older != prev {
			return fmt.Errorf("eviction order back link of %v is broken", pg.key)
		}
		if pg.dead.Load() {
			return fmt.Errorf("dead page %v is still in the eviction order", pg.key)
		}
		if v, ok := c.pages.Load(pg.key); !ok || v.(*page) != pg {
			return fmt.Errorf("page %v is in the eviction order but not in the lookup map", pg.key)
		}
		if c.index[pg.key.ino][pg.key.page] != pg {
			return fmt.Errorf("page %v is in the eviction order but not in its inode's index", pg.key)
		}
	}
	if ordered != c.resident || prev != c.newest {
		return fmt.Errorf("eviction order holds %d pages, resident count is %d", ordered, c.resident)
	}
	indexed, looked := 0, 0
	for ino, byPage := range c.index {
		if len(byPage) == 0 {
			return fmt.Errorf("inode %d keeps an empty index entry", ino)
		}
		indexed += len(byPage)
	}
	c.pages.Range(func(any, any) bool { looked++; return true })
	if indexed != c.resident || looked != c.resident {
		return fmt.Errorf("index holds %d pages, lookup map %d, resident count is %d", indexed, looked, c.resident)
	}
	return nil
}

// workingSetResidentCheck: a working set W of at most maxPages pages is
// read, invalidated (by range and by inode) and refilled in random
// order. A read may fill only a page that was never read or was
// invalidated since its last read — any other fill means a live page
// of W was evicted, which a bound over live pages never does. After the
// churn one pass makes all of W resident again and a second pass fills
// nothing; the residency invariant holds after every step.
func workingSetResidentCheck(r *rand.Rand) error {
	const maxPages, inodes = 48, 3
	src := newMemFrames(0)
	c := New(src, 0, maxPages)
	w := maxPages/2 + r.Intn(maxPages/2+1)
	contents := make([]byte, (w/inodes+1)*PageSize)
	r.Read(contents)
	fills := 0
	fill := func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		fills++
		return constFill(contents)(ino, off, p)
	}
	keyOf := func(i int) pageKey { return pageKey{ino: fs.Ino(1 + i%inodes), page: uint64(i / inodes)} }
	cached := make(map[pageKey]bool) // the model: pages a read must find resident
	buf := make([]byte, PageSize)
	read := func(i int, whole bool) error {
		k := keyOf(i)
		off, p := k.page*PageSize, buf
		if !whole { // an unaligned slice of the page goes through the staged fill
			in := r.Intn(PageSize - 1)
			off, p = off+uint64(in), buf[:1+r.Intn(PageSize-in-1)]
		}
		before := fills
		n, e := c.ReadAt(k.ino, off, p, fill, i)
		if e != sys.EOK || n != len(p) {
			return fmt.Errorf("read %v: n=%d %v", k, n, e)
		}
		if filled := fills > before; filled == cached[k] {
			return fmt.Errorf("read %v: filled=%v with the page cached=%v in the model (%d of bound %d in W)",
				k, filled, cached[k], w, maxPages)
		}
		cached[k] = true
		return nil
	}
	pass := func() error {
		for _, i := range r.Perm(w) {
			if err := read(i, true); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return err
	}
	for step := 0; step < 4000; step++ {
		switch x := r.Intn(20); {
		case x < 12:
			if err := read(r.Intn(w), x < 8); err != nil {
				return err
			}
		case x < 19:
			k := keyOf(r.Intn(w))
			last := k.page + uint64(r.Intn(3))
			lo := k.page*PageSize + uint64(r.Intn(PageSize))
			c.InvalidateRange(k.ino, lo, max(lo, last*PageSize+uint64(r.Intn(PageSize)))+1)
			for pg := k.page; pg <= last; pg++ {
				delete(cached, pageKey{ino: k.ino, page: pg})
			}
		default:
			ino := fs.Ino(1 + r.Intn(inodes))
			c.InvalidateIno(ino)
			for k := range cached {
				if k.ino == ino {
					delete(cached, k)
				}
			}
		}
		if err := c.checkResidency(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	if err := pass(); err != nil {
		return fmt.Errorf("refill pass: %w", err)
	}
	if resident, _, _ := c.Stats(); resident != w {
		return fmt.Errorf("%d pages resident after the refill pass, working set is %d", resident, w)
	}
	before := fills
	if err := pass(); err != nil {
		return err
	}
	if fills != before {
		return fmt.Errorf("second pass over a resident working set filled %d pages", fills-before)
	}
	c.Quiesce()
	if live := src.liveCount(); live != w {
		return fmt.Errorf("%d frames live with %d pages resident", live, w)
	}
	return nil
}
