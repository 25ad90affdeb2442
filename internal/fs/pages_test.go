package fs

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/obs"
)

// flatFile is the file representation the page array replaced — one
// []byte, with the WriteAt, ReadAt and Truncate bodies FS had over it —
// kept as the oracle of the page-boundary differential below.
type flatFile struct{ data []byte }

func (o *flatFile) writeAt(off uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	if end := off + uint64(len(p)); end > uint64(len(o.data)) {
		grown := make([]byte, end)
		copy(grown, o.data)
		o.data = grown
	}
	copy(o.data[off:], p)
}

func (o *flatFile) readAt(off uint64, p []byte) int {
	if off >= uint64(len(o.data)) {
		return 0
	}
	return copy(p, o.data[off:])
}

func (o *flatFile) truncate(size uint64) {
	if size <= uint64(len(o.data)) {
		o.data = o.data[:size:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, o.data)
	o.data = grown
}

// edgy draws a length or offset from the values page arithmetic gets
// wrong: 0, 1, either side of one and two page boundaries.
func edgy(r *rand.Rand) uint64 {
	edges := []uint64{0, 1, PageSize - 1, PageSize, PageSize + 1, 2*PageSize - 1, 2 * PageSize, 2*PageSize + 1}
	if r.Intn(3) == 0 {
		return uint64(r.Intn(3 * PageSize))
	}
	return edges[r.Intn(len(edges))]
}

// TestPagesMatchFlatOracle drives random write / truncate / read / view
// sequences through the filesystem and the flat oracle: every read,
// every Stat.Size and every view not yet given back (against the deep
// copy taken with it) must agree. Views are given back in a seeded order
// between mutations, so the file reuses the pages and arrays they pinned
// while others are still held: a reuse too early shows as a held view
// that changed, a reused page's stale bytes as a read or a view that
// disagrees with the oracle. Views are also taken concurrently under a
// read lock, checked after it is released and then given back, as the
// kernel's readers do — run under -race, a write through a page a view
// holds is a data race.
func TestPagesMatchFlatOracle(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	reused0 := obs.FSCowReused.Load()
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tb := NewFDTable(New())
		fd, err := tb.Open("/f", OCreate|ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		of, _ := tb.Get(fd)
		ino, f := of.Ino, tb.FS()
		var oracle flatFile

		var lock sync.RWMutex // stands in for the NR replica lock
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					lock.RLock()
					var view Pages
					if (g+i)%2 == 0 {
						view, _ = f.Contents(ino)
					} else {
						view = AbstractFDs(tb).Files[fd].Contents
					}
					want := append([]byte(nil), oracle.data...)
					lock.RUnlock()
					if !bytes.Equal(view.Bytes(), want) {
						t.Errorf("seed %d reader %d: view diverges from the oracle after the lock was released", seed, g)
						return
					}
					view.Release()
				}
			}(g)
		}

		type snapshot struct {
			view Pages
			want []byte
		}
		var snaps []snapshot
		for step := 0; step < 400 && !t.Failed(); step++ {
			size := uint64(len(oracle.data))
			lock.Lock()
			switch r.Intn(9) {
			case 0, 1: // write, anywhere up to a hole past EOF
				p := make([]byte, edgy(r))
				r.Read(p)
				off := edgy(r)
				if r.Intn(2) == 0 {
					off += size // at, or a hole past, EOF
				}
				oracle.writeAt(off, p)
				if n, err := f.WriteAt(ino, off, p); err != nil || n != len(p) {
					t.Fatalf("seed %d step %d: WriteAt(%d, %d bytes) = %d, %v", seed, step, off, len(p), n, err)
				}
			case 2: // overwrite inside the file
				if size == 0 {
					break
				}
				off := edgy(r) % size
				p := make([]byte, min(edgy(r), size-off))
				r.Read(p)
				oracle.writeAt(off, p)
				if _, err := f.WriteAt(ino, off, p); err != nil {
					t.Fatal(err)
				}
			case 3: // shrink to mid-page, then grow back over the cut
				cut := size / 2
				if r.Intn(2) == 0 {
					cut = edgy(r) % (size + 1)
				}
				grow := cut + edgy(r)
				oracle.truncate(cut)
				oracle.truncate(grow)
				if err := f.Truncate(ino, cut); err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(ino, grow); err != nil {
					t.Fatal(err)
				}
			case 4: // truncate
				to := edgy(r)
				oracle.truncate(to)
				if err := f.Truncate(ino, to); err != nil {
					t.Fatal(err)
				}
			case 5: // view
				view, _ := f.Contents(ino)
				snaps = append(snaps, snapshot{view, append([]byte(nil), oracle.data...)})
			case 6: // a run of small appends: the last page grows in place, a view now and then holding it
				for k := 0; k < 4; k++ {
					p := make([]byte, 1+r.Intn(64))
					r.Read(p)
					off := uint64(len(oracle.data))
					oracle.writeAt(off, p)
					if _, err := f.WriteAt(ino, off, p); err != nil {
						t.Fatal(err)
					}
					if r.Intn(3) == 0 {
						view, _ := f.Contents(ino)
						snaps = append(snaps, snapshot{view, append([]byte(nil), oracle.data...)})
					}
				}
			default: // read
				off := edgy(r)
				// Into a dirty buffer: what a page does not store must be
				// written as zeroes, not skipped.
				got := bytes.Repeat([]byte{0xaa}, int(edgy(r)))
				want := append([]byte(nil), got...)
				n, err := f.ReadAt(ino, off, got)
				if wn := oracle.readAt(off, want); err != nil || n != wn || !bytes.Equal(got[:n], want[:wn]) {
					t.Fatalf("seed %d step %d: ReadAt(%d, %d bytes) = %d, %v; oracle read %d", seed, step, off, len(got), n, err, wn)
				}
			}
			st, err := f.StatIno(ino)
			lock.Unlock()
			if err != nil || st.Size != uint64(len(oracle.data)) {
				t.Fatalf("seed %d step %d: size %d, %v; oracle %d", seed, step, st.Size, err, len(oracle.data))
			}
			for i, s := range snaps {
				if !bytes.Equal(s.view.Bytes(), s.want) {
					t.Fatalf("seed %d step %d: view %d changed after it was taken", seed, step, i)
				}
			}
			// Give views back in a seeded order: now one, now all.
			for n := r.Intn(3); n > 0 && len(snaps) > 0; n-- {
				if r.Intn(8) == 0 {
					n = len(snaps)
				}
				k := r.Intn(len(snaps))
				snaps[k].view.Release()
				snaps = append(snaps[:k], snaps[k+1:]...)
			}
		}
		close(stop)
		wg.Wait()
		if c, _ := f.Contents(ino); !bytes.Equal(c.Bytes(), oracle.data) {
			t.Fatalf("seed %d: final contents diverge from the oracle", seed)
		}
	}
	t.Logf("%d clones went into pages given back", obs.FSCowReused.Load()-reused0)
	if obs.FSCowReused.Load() == reused0 {
		t.Error("no clone went into a page given back: the reuse path was never exercised")
	}
}

// TestFileSizeIsBounded: offsets and sizes are the caller's word; past
// MaxFileSize — or wrapping — they are ErrFileTooBig with nothing
// changed, never an allocation sized from them.
func TestFileSizeIsBounded(t *testing.T) {
	f := New()
	ino, err := f.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ino, 0, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{1 << 62, MaxFileSize, MaxFileSize - 1, ^uint64(0), ^uint64(0) - 1} {
		if _, err := f.WriteAt(ino, off, []byte("xy")); !errors.Is(err, ErrFileTooBig) {
			t.Errorf("WriteAt(%#x) = %v, want ErrFileTooBig", off, err)
		}
	}
	for _, size := range []uint64{1 << 62, 1 << 40, MaxFileSize + 1} {
		if err := f.Truncate(ino, size); !errors.Is(err, ErrFileTooBig) {
			t.Errorf("Truncate(%#x) = %v, want ErrFileTooBig", size, err)
		}
	}
	if _, next, err := f.WriteCursor(ino, ORdWr, 1<<62, []byte("x")); !errors.Is(err, ErrFileTooBig) || next != 1<<62 {
		t.Errorf("WriteCursor at 1<<62 = cursor %#x, %v", next, err)
	}
	if c, _ := f.Contents(ino); string(c.Bytes()) != "keep" {
		t.Errorf("contents %q after refused writes", c.Bytes())
	}
	// The bound itself is reachable, and costs only the pages written.
	if _, err := f.WriteAt(ino, MaxFileSize-2, []byte("xy")); err != nil {
		t.Errorf("write ending at MaxFileSize: %v", err)
	}
}

// TestPageComparisonsReadBytes: a page stores only up to its highest
// written byte, so the same contents can be held as pages of different
// lengths. Every comparison must see through that: a file built sparsely
// (short pages, holes) against the same bytes stored in full, equal and
// one byte apart — the differing byte as often as not in a stretch one
// side does not store.
func TestPageComparisonsReadBytes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		flat := make([]byte, 1+edgy(r))
		var sparse PageFile
		for k := r.Intn(4); k > 0; k-- {
			off := uint64(r.Intn(len(flat)))
			p := make([]byte, min(uint64(1+r.Intn(100)), uint64(len(flat))-off))
			r.Read(p)
			copy(flat[off:], p)
			if _, err := sparse.WriteAt(off, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := sparse.Truncate(uint64(len(flat))); err != nil {
			t.Fatal(err)
		}
		x := sparse.Peek()
		if full := PagesOf(flat); !x.Equal(full) || !full.Equal(x) || !x.EqualBytes(0, flat) || !bytes.Equal(x.Bytes(), flat) {
			t.Fatalf("round %d: sparse and full forms of the same %d bytes differ", round, len(flat))
		}
		at := uint64(r.Intn(len(flat)))
		other := append([]byte(nil), flat...)
		other[at] ^= 0x40
		y := PagesOf(other)
		if x.Equal(y) || y.Equal(x) || x.EqualBytes(0, other) || x.At(at) == y.At(at) {
			t.Fatalf("round %d: a difference at byte %d of %d went unseen", round, at, len(flat))
		}
		lo := uint64(r.Intn(len(flat)))
		hi := lo + uint64(r.Intn(len(flat)-int(lo)+1))
		if got, want := x.EqualRange(y, lo, hi), at < lo || at >= hi; got != want {
			t.Fatalf("round %d: EqualRange[%d, %d) = %v with the difference at %d", round, lo, hi, got, at)
		}
		if got, want := x.IsZero(lo, hi), bytes.Equal(flat[lo:hi], make([]byte, hi-lo)); got != want {
			t.Fatalf("round %d: IsZero[%d, %d) = %v, want %v", round, lo, hi, got, want)
		}
	}
}

// TestLargestFileSurvivesSaveAndLoad: MaxFileSize is the longest byte
// field the image format holds, so the largest file a process can make
// — for the price of one page, through a hole — saves and loads. (At a
// larger bound the save wrote a length no load accepts, and the whole
// filesystem was lost with it.) The loaded file's pages are slices of
// the decoded image: growing one must not write into its neighbour.
func TestLargestFileSurvivesSaveAndLoad(t *testing.T) {
	tb := NewFDTable(New())
	write := func(fd FD, p string) (uint64, error) {
		t.Helper()
		if err := tb.Lock(fd); err != nil {
			t.Fatal(err)
		}
		defer tb.Unlock(fd)
		return tb.Write(fd, []byte(p))
	}
	small, err := tb.Open("/small", OCreate|ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := write(small, "short"); err != nil {
		t.Fatal(err)
	}
	big, err := tb.Open("/sparse", OCreate|ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Seek(big, MaxFileSize-1, SeekSet); err != nil {
		t.Fatal(err)
	}
	if n, err := write(big, "x"); err != nil || n != 1 {
		t.Fatalf("write ending at MaxFileSize: %d, %v", n, err)
	}
	if _, err := write(big, "y"); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("write past MaxFileSize: %v", err)
	}
	d := NewMemBlockStore(PageSize, 2*(MaxFileSize/PageSize+2)+1)
	if err := SaveStamped(tb.FS(), d, 1); err != nil {
		t.Fatal(err)
	}
	g, _, err := LoadStamped(d)
	if err != nil {
		t.Fatalf("load of an image holding a file of MaxFileSize: %v", err)
	}
	if !Equal(tb.FS(), g) {
		t.Fatal("loaded filesystem differs from the one saved")
	}

	ino, err := g.Lookup("/small")
	if err != nil {
		t.Fatal(err)
	}
	// Far enough past its end to land, in the image, in the next file.
	if _, err := g.WriteAt(ino, 64, []byte("grown")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if n, _ := g.ReadAt(ino, 0, got); string(got[:n]) != "short"+string(make([]byte, 59))+"grown" {
		t.Errorf("short file grown after a load reads %q", got[:n])
	}
	if _, err := tb.FS().WriteAt(ino, 64, []byte("grown")); err != nil {
		t.Fatal(err)
	}
	if !Equal(tb.FS(), g) {
		t.Error("growing a loaded page changed another page of the image")
	}
}
