package fs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
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
	if _, err := tb.FS().WriteAt(of.Ino, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				lock.RLock()
				var view []byte
				switch (g + i) % 3 {
				case 0:
					view = AbstractFDs(tb).Files[fd].Contents
				case 1:
					f, _ := AbstractFD(tb, fd)
					view = f.Contents
				default:
					view, _ = tb.FS().Contents(of.Ino)
				}
				want := append([]byte(nil), view...)
				lock.RUnlock()
				// Outside the lock, as Sys evaluates the spec relations.
				if !bytes.Equal(view, want) {
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
			err = tb.FS().Truncate(of.Ino, 2048)
		case 18:
			err = tb.FS().Truncate(of.Ino, 4096)
		default:
			_, err = tb.FS().WriteAt(of.Ino, uint64(r.Intn(2048)), p)
		}
		lock.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
