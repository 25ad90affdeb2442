// Package pcache is the cache behind PreadMap, the zero-copy read tier:
// one Cache per filesystem shard, holding page-granular copies of file
// contents in frames of the shared physical memory, so that a page can
// be aliased read-only into a vspace. A copying read does not come here:
// the owner fs replica already holds every file's pages, and reads them
// into the caller's buffer (internal/core's handler.pread).
//
// The concurrency discipline, and why it is safe:
//
//   - Readers never take a lock on the hit path. Pin publishes the
//     current epoch into a per-reader slot (one padded word, scanned by
//     reclaimers), the page lookup runs against a lock-free map, the
//     bytes are copied out of the frame (ReadAt) or the page's map count
//     is taken (MapPage), and Unpin clears the slot.
//
//   - Writers invalidate in three ordered steps: bump the inode's
//     version (so in-flight fills can never install stale bytes), mark
//     the dead pages and delete them from the map, then advance the
//     global epoch and retire the frames under that epoch.
//
//   - Reclamation frees a retired frame only once no pinned reader
//     holds an epoch older than the frame's retire epoch and no vspace
//     mapping aliases it — or, for the page an insert evicted to make
//     room, hands the frame to that insert under the same test, so a
//     frame is always either live in the cache or back in the
//     source. All epoch operations are sequentially
//     consistent (sync/atomic), which gives the safety argument its
//     hinge: the map deletion happens-before the epoch advance, so a
//     reader whose pinned epoch is at or past the retire epoch observed
//     the advance — and therefore the deletion — and cannot find the
//     dead page, while a reader that pinned before it is visible to the
//     reclaimer's scan and blocks the free.
//
// Stale-fill prevention is the cache's linearizability obligation: a
// fill records the inode version before performing its authoritative
// read and installs the page only if the version is still unchanged at
// insert. A concurrent writer bumps the version before its data lands,
// so a page can only ever enter the map with bytes at least as new as
// every invalidation that completed before the insert — and a stale
// page can exist only in the window where its write has not yet
// returned, which any linearization may order either way.
//
// The fills are PreadMap's misses (ReadAt of the whole page), and ReadAt
// is also a public, concurrent API that the benchmark's probes drive
// directly. Its hit path reads frame bytes holding no other claim on the
// frame than its pin, which is why the epochs stay: MapPage alone would
// not need them, since its map count, taken before it rechecks dead,
// keeps the frame from reclamation by itself.
//
// Residency is the write side's invariant, kept under mu: the eviction
// order and the per-inode index hold exactly the resident pages — a page
// enters both at insert and leaves both when it dies, whether by
// invalidation or eviction. So maxPages bounds live pages (a working
// set that fits is never evicted, however often writers kill and
// readers refill it), and an invalidation visits only the index entries
// of its own inode inside its range, never the whole cache.
package pcache

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/sys"
)

// PageSize is the cache granule: the base page of the simulated MMU, so
// a cached frame can be mapped into a vspace as-is.
const PageSize = mmu.L1PageSize

// maxReaders is the number of per-reader pin slots. Pins are transient
// (one lock-free read each), so slots are shared by hint hashing rather
// than owned; 128 padded slots keep false sharing away at any core
// count the simulated machine uses.
const maxReaders = 128

// DefaultMaxPages bounds a cache's resident pages before eviction.
const DefaultMaxPages = 1024

// FrameSource allocates and frees the physical frames the cache stores
// pages in. core adapts its shared data-frame allocator; tests use a
// simple in-memory source. AllocFrame may fail under memory pressure —
// the cache then evicts and retries, and finally serves without caching.
type FrameSource interface {
	// AllocFrame returns a frame whose contents are unspecified: the cache
	// writes every byte of it (the page's bytes, then the zeroed tail)
	// before publishing the page.
	AllocFrame() (mem.PAddr, error)
	FreeFrame(f mem.PAddr)
	// WriteFrame / ReadFrame access the frame's backing bytes.
	WriteFrame(f mem.PAddr, off uint64, p []byte)
	ReadFrame(f mem.PAddr, off uint64, p []byte)
}

// Filler performs the authoritative read that backs a cache miss: read
// up to len(p) bytes of ino at off, returning the count. p is always one
// whole page (len(p) == PageSize) — the caller's own page or the cache's
// stage — so a filler may lend it whole to the read. In the kernel it is
// one replica-local NumFsReadAt on the inode's owner shard. Reads beyond
// EOF return 0, not an error, mirroring fs.ReadAt.
type Filler func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno)

// pageKey addresses one cached page.
type pageKey struct {
	ino  fs.Ino
	page uint64 // byte offset / PageSize
}

// page is one resident cache page. Immutable after insertion except for
// the lifecycle fields: dead flips once under invalidation, maps counts
// live vspace aliases of the frame.
type page struct {
	key   pageKey
	frame mem.PAddr
	// n is the number of valid bytes in the frame ([0, PageSize]); the
	// tail of a short (EOF) page is zeroed at fill.
	n    uint32
	dead atomic.Bool
	maps atomic.Int64
	// older and newer link the eviction order while the page is resident
	// (nil once it died). Guarded by Cache.mu.
	older, newer *page
}

// slot is one padded reader-pin slot: 0 when idle, otherwise the epoch
// the reader observed at Pin.
type slot struct {
	epoch atomic.Uint64
	_     [56]byte // pad to a cache line
}

// retired is a frame awaiting epoch quiescence.
type retired struct {
	p     *page
	epoch uint64 // the epoch advanced by the invalidation that killed it
}

// Cache is one shard's page cache.
type Cache struct {
	frames FrameSource
	// shard is the obs slot counters record under (the owning fs
	// shard's slot, or 0 on the monolith).
	shard uint64
	// residentGauge is the shard's pcache.resident gauge.
	residentGauge *obs.Gauge
	// maxPages bounds the resident pages; eviction is FIFO over the
	// insert order of the pages that are still resident.
	maxPages int

	// epoch is the global read epoch. Starts at 1 so a zero slot always
	// means "idle".
	epoch atomic.Uint64

	// readers are the pin slots.
	readers [maxReaders]slot

	// pages is the lock-free lookup: pageKey -> *page.
	pages sync.Map

	// mu guards the write-side bookkeeping below. It is never taken on
	// the read hit path.
	mu sync.Mutex
	// versions is the per-inode fill validation counter.
	versions map[fs.Ino]uint64
	// oldest and newest are the ends of the eviction order: every
	// resident page and nothing else, in insert order (a dying page is
	// unlinked at once, so resident is its length and is what maxPages
	// bounds).
	oldest, newest *page
	resident       int
	// index holds the same pages by inode, so a writer finds the pages of
	// its file without scanning pages; an inode with none has no entry.
	index map[fs.Ino]map[uint64]*page
	// visits counts the index entries invalidations examined — the
	// O(pages touched) claim is pinned on it, not on a clock.
	visits uint64
	// retiredQ holds dead pages whose frames await quiescence.
	retiredQ []retired
	// mapped indexes live vspace aliases: frame -> page, including
	// pages already invalidated (orphans) whose frame must survive
	// until the last PreadUnmap.
	mapped map[mem.PAddr]*page
}

// New creates a cache over the given frame source. shardSlot is the obs
// shard slot its counters record under; maxPages ≤ 0 selects the
// default bound.
func New(frames FrameSource, shardSlot uint64, maxPages int) *Cache {
	if maxPages <= 0 {
		maxPages = DefaultMaxPages
	}
	c := &Cache{
		frames:   frames,
		shard:    shardSlot,
		maxPages: maxPages,
		versions: make(map[fs.Ino]uint64),
		index:    make(map[fs.Ino]map[uint64]*page),
		mapped:   make(map[mem.PAddr]*page),
	}
	c.residentGauge = obs.PCacheResident[obs.FsShardOfSlot(shardSlot)]
	c.epoch.Store(1)
	return c
}

// Pin enters a read-side critical section: it publishes the current
// epoch into a reader slot and returns the slot index for Unpin. hint
// spreads concurrent readers across slots (the caller's core number).
func (c *Cache) Pin(hint int) int {
	e := c.epoch.Load()
	i := hint % maxReaders
	if i < 0 {
		i += maxReaders
	}
	for {
		if c.readers[i].epoch.CompareAndSwap(0, e) {
			return i
		}
		i = (i + 1) % maxReaders
	}
}

// Unpin leaves the read-side critical section entered at slot i.
func (c *Cache) Unpin(i int) { c.readers[i].epoch.Store(0) }

// minPinned returns the smallest epoch any pinned reader holds, or 0
// when no reader is pinned.
func (c *Cache) minPinned() uint64 {
	min := uint64(0)
	for i := range c.readers {
		if e := c.readers[i].epoch.Load(); e != 0 && (min == 0 || e < min) {
			min = e
		}
	}
	return min
}

// ReadAt serves a positioned read of ino through the cache: cache-hit
// pages are copied out lock-free under an epoch pin; missing pages are
// filled from the authoritative read and inserted (version-validated).
// It returns the byte count (0 at EOF), mirroring fs.ReadAt semantics.
// PreadMap fills a missing page with it; no copying pread calls it.
//
// A read spanning multiple pages assembles per-page, so under a racing
// writer it can observe a mix of pre- and post-write pages: each page is
// individually consistent, the read as a whole is not.
func (c *Cache) ReadAt(ino fs.Ino, off uint64, p []byte, fill Filler, hint int) (int, sys.Errno) {
	total, errno := 0, sys.EOK
	for total < len(p) {
		pos := off + uint64(total)
		want := PageSize - pos%PageSize
		if rem := uint64(len(p) - total); rem < want {
			want = rem
		}
		n, e := c.readPage(ino, pos, p[total:total+int(want)], fill, hint)
		total += n
		if e != sys.EOK {
			errno = e
			break
		}
		if uint64(n) < want {
			break // EOF inside this page
		}
	}
	return total, errno
}

// readPage serves the single-page slice of a read starting at pos,
// returning how many bytes it produced (bounded by the page boundary
// and EOF).
func (c *Cache) readPage(ino fs.Ino, pos uint64, p []byte, fill Filler, hint int) (int, sys.Errno) {
	key := pageKey{ino: ino, page: pos / PageSize}
	in := pos % PageSize
	want := PageSize - in
	if uint64(len(p)) < want {
		want = uint64(len(p))
	}

	// Fast path: pin, lock-free lookup, copy, unpin.
	s := c.Pin(hint)
	if v, ok := c.pages.Load(key); ok {
		pg := v.(*page)
		if !pg.dead.Load() {
			n := 0
			if uint64(pg.n) > in {
				avail := uint64(pg.n) - in
				if avail < want {
					n = int(avail)
				} else {
					n = int(want)
				}
				c.frames.ReadFrame(pg.frame, in, p[:n])
			}
			c.Unpin(s)
			obs.PCacheHits.Add(uint32(c.shard), 1)
			return n, sys.EOK
		}
	}
	c.Unpin(s)
	obs.PCacheMisses.Add(uint32(c.shard), 1)

	// Miss: record the inode version, perform the authoritative read of
	// the whole page, then insert only if no invalidation raced us. The
	// authoritative bytes are served whether or not the insert sticks —
	// the fill is correct by construction.
	v0 := c.version(ino)
	pageOff := key.page * PageSize
	if in == 0 && len(p) == PageSize {
		// A whole page into a whole-page destination needs no stage: the
		// fill writes p and the frame is installed from it. The fill
		// writes only the bytes it counts, so nothing past n is touched.
		// This relies on p being the caller's alone until the call
		// returns (the &mut borrow of the paper's read signature).
		n, e := fill(ino, pageOff, p)
		if e != sys.EOK {
			return 0, e
		}
		c.tryInsert(key, v0, p[:n])
		return n, sys.EOK
	}
	var buf [PageSize]byte
	n, e := fill(ino, pageOff, buf[:])
	if e != sys.EOK {
		return 0, e
	}
	c.tryInsert(key, v0, buf[:n])
	if uint64(n) <= in {
		return 0, sys.EOK
	}
	avail := uint64(n) - in
	if avail > want {
		avail = want
	}
	copy(p[:avail], buf[in:in+avail])
	return int(avail), sys.EOK
}

// version returns the inode's current fill-validation version.
func (c *Cache) version(ino fs.Ino) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.versions[ino]
}

// zeroPage is the source of a short page's zeroed tail.
var zeroPage [PageSize]byte

// tryInsert installs a filled page (data is its valid bytes) if no
// invalidation of the inode ran since v0 was read and frameLocked finds
// it a frame; otherwise the page is simply not cached.
func (c *Cache) tryInsert(key pageKey, v0 uint64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.versions[key.ino] != v0 {
		return // an invalidation raced the fill; its bytes may be stale
	}
	if _, ok := c.pages.Load(key); ok {
		return // another fill won
	}
	frame, ok := c.frameLocked()
	if !ok {
		return
	}
	// The frame's old bytes are anyone's (a recycled frame, or the evicted
	// page's): write all of them — the data, then a zeroed tail, so a
	// mapped short page never leaks another file's bytes — then install.
	c.frames.WriteFrame(frame, 0, data)
	if len(data) < PageSize {
		c.frames.WriteFrame(frame, uint64(len(data)), zeroPage[len(data):])
	}
	pg := &page{key: key, frame: frame, n: uint32(len(data))}
	c.pages.Store(key, pg)
	pg.older = c.newest
	if c.newest != nil {
		c.newest.newer = pg
	} else {
		c.oldest = pg
	}
	c.newest = pg
	byPage := c.index[key.ino]
	if byPage == nil {
		byPage = make(map[uint64]*page)
		c.index[key.ino] = byPage
	}
	byPage[key.page] = pg
	c.resident++
	c.residentGauge.Set(uint64(c.resident))
	c.reclaimLocked(nil)
}

// frameLocked finds the frame a page being inserted goes in. At the
// residency bound it evicts first, and when the evicted frame quiesces
// in that eviction's own reclaim pass, the insert takes it: the frame
// passes from the old page to the new without a trip through the
// allocator. Otherwise it allocates; under memory pressure it evicts
// once more (taking that frame the same way) and retries. ok is false
// when nothing can be evicted (every resident page is pinned by a
// mapping) or memory stays tight. Caller holds mu.
func (c *Cache) frameLocked() (frame mem.PAddr, ok bool) {
	if c.resident >= c.maxPages {
		if f, evicted, took := c.evictOneLocked(); !evicted || took {
			return f, evicted
		}
	}
	f, err := c.frames.AllocFrame()
	if err == nil {
		return f, true
	}
	// Memory pressure: evict once more and retry.
	if f, evicted, took := c.evictOneLocked(); !evicted || took {
		return f, evicted
	}
	f, err = c.frames.AllocFrame()
	return f, err == nil
}

// killLocked ends a page's residency: dead first, then out of the
// lookup map, the eviction order and the inode index, and onto the
// retire queue. The caller stamps the queue entry with the epoch it
// advances after its last kill (retireLocked), so the map deletion
// happens-before the advance. Caller holds mu.
func (c *Cache) killLocked(pg *page) {
	pg.dead.Store(true)
	c.pages.Delete(pg.key)
	if pg.older != nil {
		pg.older.newer = pg.newer
	} else {
		c.oldest = pg.newer
	}
	if pg.newer != nil {
		pg.newer.older = pg.older
	} else {
		c.newest = pg.older
	}
	pg.older, pg.newer = nil, nil
	byPage := c.index[pg.key.ino]
	delete(byPage, pg.key.page)
	if len(byPage) == 0 {
		delete(c.index, pg.key.ino)
	}
	c.resident--
	c.retiredQ = append(c.retiredQ, retired{p: pg})
}

// retireLocked advances the epoch once for the pages killed since the
// retire queue was from entries long, stamps them with it and runs a
// reclaim pass (which keeps take's frame for the caller: reclaimLocked).
// One advance covers the whole batch: the map deletions happen-before
// it, so any reader pinning the new epoch misses.
func (c *Cache) retireLocked(from int, take *page) (took bool) {
	e := c.epoch.Add(1)
	for i := from; i < len(c.retiredQ); i++ {
		c.retiredQ[i].epoch = e
	}
	c.residentGauge.Set(uint64(c.resident))
	return c.reclaimLocked(take)
}

// evictOneLocked removes the oldest resident page no mapping aliases,
// retiring its frame under a fresh epoch. Caller holds mu. evicted is
// false when a cache whose every page is pinned by a mapping declines.
// took says the frame quiesced in the retire pass: it was not freed,
// and belongs to the caller from here on; otherwise it waits on the
// retire queue like any other.
func (c *Cache) evictOneLocked() (frame mem.PAddr, evicted, took bool) {
	for pg := c.oldest; pg != nil; pg = pg.newer {
		if pg.maps.Load() > 0 {
			continue // pinned by the alias
		}
		from := len(c.retiredQ)
		c.killLocked(pg)
		obs.PCacheEvictions.Add(uint32(c.shard), 1)
		return pg.frame, true, c.retireLocked(from, pg)
	}
	return 0, false, false
}

// InvalidateRange kills every cached page of ino overlapping
// [lo, hi) and bumps the inode version. Writers call it after the
// authoritative mutation applied (WriteAt with its affected range,
// Truncate with the EOF movement range).
func (c *Cache) InvalidateRange(ino fs.Ino, lo, hi uint64) {
	if hi <= lo {
		// A zero-length mutation still bumps the version: an in-flight
		// fill may have read a pre-mutation snapshot.
		c.mu.Lock()
		c.versions[ino]++
		c.mu.Unlock()
		return
	}
	c.invalidate(ino, lo/PageSize, (hi-1)/PageSize)
}

// InvalidateIno kills every cached page of ino (unlink, rename-replace).
func (c *Cache) InvalidateIno(ino fs.Ino) {
	c.invalidate(ino, 0, ^uint64(0))
}

// invalidate is the write-side protocol: version bump first (fills
// in flight validate against it), then kill pages, then advance the
// epoch and retire. It looks only at the inode's own index entries:
// one lookup per page of a range narrower than the inode's resident
// set, one visit per resident page of the inode otherwise.
func (c *Cache) invalidate(ino fs.Ino, firstPage, lastPage uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[ino]++
	byPage := c.index[ino]
	from := len(c.retiredQ)
	if lastPage-firstPage < uint64(len(byPage)) {
		for n := firstPage; ; n++ {
			c.visits++
			if pg := byPage[n]; pg != nil {
				c.killLocked(pg)
			}
			if n == lastPage {
				break
			}
		}
	} else {
		for n, pg := range byPage {
			c.visits++
			if n >= firstPage && n <= lastPage {
				c.killLocked(pg)
			}
		}
	}
	if dead := len(c.retiredQ) - from; dead > 0 {
		obs.PCacheInvalidations.Add(uint32(c.shard), uint64(dead))
		c.retireLocked(from, nil)
	}
}

// reclaimLocked frees retired frames that reached quiescence: no pinned
// reader holds an epoch older than the retire epoch, and no vspace
// mapping aliases the frame. A reader pinned at exactly the retire
// epoch is safe to ignore: it observed the epoch advance, which
// happens-after the map deletion, so it cannot have found the dead
// page. take's frame, when it quiesces, leaves the queue without being
// freed, and took reports it: the caller reuses it. Caller holds mu.
func (c *Cache) reclaimLocked(take *page) (took bool) {
	if len(c.retiredQ) == 0 {
		return false
	}
	min := c.minPinned()
	kept := c.retiredQ[:0]
	for _, r := range c.retiredQ {
		// min == 0 means no reader is pinned at all.
		quiesced := min == 0 || min >= r.epoch
		if quiesced && r.p.maps.Load() == 0 {
			if r.p == take {
				took = true
			} else {
				c.frames.FreeFrame(r.p.frame)
			}
			continue
		}
		kept = append(kept, r)
	}
	c.retiredQ = kept
	return took
}

// Reclaim runs one reclamation pass (invalidators run it inline; this
// export lets tests and the unmap path drive it).
func (c *Cache) Reclaim() {
	c.mu.Lock()
	c.reclaimLocked(nil)
	c.mu.Unlock()
}

// Quiesce spins until every retired frame has been reclaimed — test
// support for the epoch protocol's liveness half.
func (c *Cache) Quiesce() {
	for {
		c.mu.Lock()
		n := len(c.retiredQ)
		c.reclaimLocked(nil)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		runtime.Gosched()
	}
}

// MapPage pins the resident page covering the page-aligned offset off
// for a vspace mapping, returning its frame and valid byte count. The
// maps count is taken under the epoch pin, so an invalidation that
// races the lookup either kills the page before the pin (miss) or sees
// maps > 0 and keeps the frame alive until UnmapFrame. ok is false on a
// cache miss or when the page died.
func (c *Cache) MapPage(ino fs.Ino, off uint64, hint int) (frame mem.PAddr, n uint32, ok bool) {
	if off%PageSize != 0 {
		return 0, 0, false
	}
	key := pageKey{ino: ino, page: off / PageSize}
	s := c.Pin(hint)
	defer c.Unpin(s)
	v, loaded := c.pages.Load(key)
	if !loaded {
		return 0, 0, false
	}
	pg := v.(*page)
	pg.maps.Add(1)
	if pg.dead.Load() {
		// The invalidation may already have passed its maps check; back
		// out rather than hand out a mapping of a dying frame.
		pg.maps.Add(-1)
		return 0, 0, false
	}
	c.mu.Lock()
	c.mapped[pg.frame] = pg
	c.mu.Unlock()
	obs.PCacheHits.Add(uint32(c.shard), 1)
	return pg.frame, pg.n, true
}

// UnmapFrame releases one vspace alias of frame (from PreadUnmap or
// process exit). When the page was invalidated while mapped, the drop
// to zero maps lets reclamation free the frame.
func (c *Cache) UnmapFrame(frame mem.PAddr) {
	c.mu.Lock()
	pg := c.mapped[frame]
	if pg != nil {
		if pg.maps.Add(-1) == 0 {
			delete(c.mapped, frame)
		}
	}
	c.reclaimLocked(nil)
	c.mu.Unlock()
}

// Owns reports whether frame is a cache-owned frame with live mappings
// — the exit path uses it to route frames to UnmapFrame vs the
// allocator.
func (c *Cache) Owns(frame mem.PAddr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapped[frame] != nil
}

// Stats reports residency for tests and tools.
func (c *Cache) Stats() (resident, retiredN, mappedN int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident, len(c.retiredQ), len(c.mapped)
}
