package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/sys"
)

// seekWriteBudget is what a warm checked seek+write allocates: nothing.
// Both requests are the handle's request buffer, and the write's bytes
// are lent to the log (TestPerCallAllocationBudget; the write's own
// request was the one object until it was). A view that is never given
// back stops its file's reuse for good, and every later checked write
// then clones its pre-image into a fresh page: an object per write.
const seekWriteBudget = 0

// seekWriter returns a checked seek+write of 512 B at 1 KiB through s,
// failing t on an errno.
func seekWriter(t *testing.T, s *sys.Sys, fd fs.FD) func() {
	buf := make([]byte, 512)
	return func() {
		if _, e := s.Seek(fd, 1024, fs.SeekSet); e != sys.EOK {
			t.Errorf("seek: %v", e)
		}
		if _, e := s.Write(fd, buf); e != sys.EOK {
			t.Errorf("write: %v", e)
		}
	}
}

// openWritten opens path on h, 16 KiB written.
func openWritten(t *testing.T, h *sys.Sys, path string) fs.FD {
	t.Helper()
	fd, e := h.Open(path, sys.OCreate|sys.ORdWr)
	if e != sys.EOK {
		t.Fatal(e)
	}
	if _, e := h.Write(fd, make([]byte, 16<<10)); e != sys.EOK {
		t.Fatal(e)
	}
	return fd
}

// TestReplicasGiveViewsBack: on a kernel with two replicas every write
// applies on both, and the replica that did not issue it answers nobody
// — nr applies the entry with no slot, and the kernel then takes no
// witness, so that replica pins no view. So two checked handles on the
// two replicas, taking turns on one descriptor, each allocate per
// seek+write what one handle on a one-replica kernel does: both replicas
// reuse the pages their writes retire. (A replica that took a witness
// nobody reads and kept its views would clone a fresh page per write.)
// Warm means a lap of every log past boot: on two replicas the log
// copies a write's bytes into its slot's store, allocated at the first
// entry the slot carries that lends anything and reused on every later
// lap.
func TestReplicasGiveViewsBack(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 28, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if s.NumReplicas() != 2 {
			t.Fatalf("shards=%d: %d replicas", shards, s.NumReplicas())
		}
		init, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		fd := openWritten(t, init, "/replicas")
		var turns [2]func()
		var hs [2]*sys.Sys
		for i, core := range []int{0, CoresPerNode} {
			if hs[i], err = s.RawSysOn(init.PID(), core); err != nil {
				t.Fatal(err)
			}
			hs[i].EnableContract()
			turns[i] = seekWriter(t, hs[i], fd)
		}
		next := 0
		turn := func() {
			turns[next]()
			next ^= 1
		}
		for range nr.DefaultLogSize {
			turn()
		}
		if objs := testing.AllocsPerRun(200, turn); objs > seekWriteBudget {
			t.Errorf("shards=%d: a checked seek+write on a two-replica kernel allocates %.1f objects, budget %d",
				shards, objs, seekWriteBudget)
		}
		for i, h := range hs {
			if err := h.ContractErr(); err != nil {
				t.Errorf("shards=%d handle %d: %v", shards, i, err)
			}
		}
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// TestCheckedPreadGivesViewsBack: a checked pread's witness is the
// contents view its owner-shard read takes, on both sides, and the check
// gives both back. So preads, alone or racing a writer, leave the file
// reusing: a warm checked seek+write afterwards allocates its request
// frames only.
func TestCheckedPreadGivesViewsBack(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		fd := openWritten(t, h, "/pread")
		seekWrite := seekWriter(t, h, fd)
		page := make([]byte, 4096)
		pread := func() {
			if _, e := h.Pread(fd, page, 4096); e != sys.EOK {
				t.Errorf("shards=%d pread: %v", shards, e)
			}
		}
		warm := func(after string) {
			for range 4 {
				seekWrite()
			}
			if objs := testing.AllocsPerRun(100, seekWrite); objs > seekWriteBudget {
				t.Errorf("shards=%d: after %s a checked seek+write allocates %.1f objects, budget %d",
					shards, after, objs, seekWriteBudget)
			}
		}

		for range 50 {
			pread()
		}
		warm("a checked pread loop")

		// A writer on another handle, unchecked so that it writes as fast
		// as it can, lands writes between and beside the preads.
		w, err := s.RawSysOn(h.PID(), 1)
		if err != nil {
			t.Fatal(err)
		}
		wfd, e := w.Open("/pread", sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]byte, 4096)
			for i := 0; !stop.Load(); i++ {
				data[0] = byte(i)
				if _, e := w.Seek(wfd, 4096, fs.SeekSet); e != sys.EOK {
					t.Errorf("shards=%d writer seek: %v", shards, e)
					return
				}
				if _, e := w.Write(wfd, data); e != sys.EOK {
					t.Errorf("shards=%d writer write: %v", shards, e)
					return
				}
			}
		}()
		for range 300 {
			pread()
		}
		stop.Store(true)
		wg.Wait()
		warm("checked preads racing a writer")
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
