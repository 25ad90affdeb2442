package fs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/obs"
)

// TestViewIsImmutableSnapshot runs the view-is-immutable-snapshot
// obligation over many seeds, then the concurrent shape the kernel
// gives it: views are taken under a replica's *read* lock, by several
// readers at once, and checked after the lock is released, while the
// writer mutates under the write lock. Run under -race — a write through
// a viewed array is a data race against the reader comparing it.
func TestViewIsImmutableSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		if err := checkViewIsImmutableSnapshot(rand.New(rand.NewSource(seed)), 300); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	var lock sync.RWMutex // stands in for the NR replica lock
	tb := NewFDTable(New())
	fd, err := tb.Open("/hot", OCreate|ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	of, _ := tb.Get(fd)
	if _, err := tb.FS().WriteAt(of.Ino, 0, make([]byte, 4*PageSize)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				lock.RLock()
				var view Pages
				switch (g + i) % 3 {
				case 0:
					view = AbstractFDs(tb).Files[fd].Contents
				case 1:
					f, _ := AbstractFD(tb, fd)
					view = f.Contents
				default:
					view, _ = tb.FS().Contents(of.Ino)
				}
				want := view.Bytes()
				lock.RUnlock()
				// Outside the lock, as Sys evaluates the spec relations.
				if !bytes.Equal(view.Bytes(), want) {
					t.Errorf("reader %d: view changed after the lock was released", g)
					return
				}
			}
		}(g)
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 600; i++ {
		p := make([]byte, 1+r.Intn(128))
		r.Read(p)
		lock.Lock()
		switch i % 50 {
		case 17:
			err = tb.FS().Truncate(of.Ino, PageSize+2048) // mid-page: cuts a page a view may hold
		case 18:
			err = tb.FS().Truncate(of.Ino, 4*PageSize)
		default:
			_, err = tb.FS().WriteAt(of.Ino, pageBiased(r, PageSize+2048-uint64(len(p))), p)
		}
		lock.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestOverwriteAfterViewClonesTouchedPages pins the copy-on-write cost
// where the kstats count it: the first overwrite after a view adds the
// pages it touches — at most two for a write of at most a page — to
// fs.cow_clones / fs.cow_clone_bytes, and nothing else does.
func TestOverwriteAfterViewClonesTouchedPages(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	f := New()
	ino, err := f.Create("/cow")
	if err != nil {
		t.Fatal(err)
	}
	write := func(off uint64, n int) (pages, bytes uint64) {
		t.Helper()
		p0, b0 := obs.FSCowClones.Load(), obs.FSCowCloneBytes.Load()
		if _, err := f.WriteAt(ino, off, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		return obs.FSCowClones.Load() - p0, obs.FSCowCloneBytes.Load() - b0
	}
	if p, _ := write(0, 8*PageSize); p != 0 {
		t.Errorf("populating a never-viewed file cloned %d pages", p)
	}
	for _, c := range []struct {
		off   uint64
		n     int
		pages uint64
	}{
		{100, 512, 1},
		{PageSize - 1, 2, 2},
		{3*PageSize + 1, PageSize, 2},
		{5 * PageSize, PageSize, 1},
		{8 * PageSize, 10, 0}, // growth: a fresh page, nothing to clone
	} {
		f.Contents(ino)
		if p, b := write(c.off, c.n); p != c.pages || b != c.pages*PageSize {
			t.Errorf("write(%d, %d) after a view cloned %d pages, %d bytes; want %d pages", c.off, c.n, p, b, c.pages)
		}
		if p, _ := write(c.off, c.n); p != 0 {
			t.Errorf("write(%d, %d) again, with no view between, cloned %d pages", c.off, c.n, p)
		}
	}
}
