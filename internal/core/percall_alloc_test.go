package core

import (
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// TestPerCallAllocationBudget pins what one per-call crossing allocates,
// in objects, on both kernels: a crossing carries only the fields the
// call has (the masked write tail), a reply of nothing but errno and value
// is the register frame alone, and a combiner pass allocates nothing. So
// an unchecked seek is its encoded request (12 B in a 16-B object: 3
// objects and 168 B when the tail was fixed-width and every reply a
// buffer). A checked call allocates what an unchecked one does: its
// witness comes back by value into slots the handler and the handle
// reuse (a 128-B object per witness before), and once checked its views
// are given back, so a warm checked write clones its pre-image into a
// page an earlier write retired — a seek+write is its two request frames
// (5 040 B in 6 objects before), and so is a seek+read: the read crosses
// with the caller's buffer, which the issuer replica's apply fills, so it
// has no reply buffer and no reply payload (4 objects, 1 104 B, while the
// bytes came back in a reply). A decoded path is one object, its string
// (two when the decoder copied it twice). Counts, not times: deterministic, so it
// runs under -short as the tier-1 pin on syscall_mix's allocs_per_op.
func TestPerCallAllocationBudget(t *testing.T) {
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
		fd, e := h.Open("/percall", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		if _, e := h.Write(fd, make([]byte, 8<<10)); e != sys.EOK {
			t.Fatal(e)
		}
		fail := func(what string, e sys.Errno) {
			if e != sys.EOK {
				t.Fatalf("shards=%d %s: %v", shards, what, e)
			}
		}
		seek := func(s *sys.Sys) func() {
			return func() {
				_, e := s.Seek(fd, 1024, fs.SeekSet)
				fail("seek", e)
			}
		}
		buf, checkedSeek := make([]byte, 512), seek(h)
		seekWrite := func() {
			checkedSeek()
			_, e := h.Write(fd, buf)
			fail("write", e)
		}
		seekRead := func() {
			checkedSeek()
			_, e := h.Read(fd, buf)
			fail("read", e)
		}
		for range 4 { // warm: the first writes after the views allocate
			seekWrite()
		}
		reopen := func() {
			fail("close", h.Close(fd))
			var e sys.Errno
			fd, e = h.Open("/percall", sys.ORdWr)
			fail("open", e)
		}
		stat := func() {
			_, e := h.Stat("/percall")
			fail("stat", e)
		}
		for _, c := range []struct {
			what    string
			f       func()
			objects float64
			bytes   uint64 // 0: objects only
		}{
			{"unchecked seek", seek(raw), 1, 32},
			{"checked seek", checkedSeek, 1, 32},
			{"checked seek+write", seekWrite, 2, 0},
			{"checked seek+read", seekRead, 2, 0},
			{"close+open", reopen, 5, 0},
			{"stat", stat, 4, 0},
		} {
			objs := testing.AllocsPerRun(200, c.f)
			b := allocPerRequest(200, c.f)
			t.Logf("shards=%d: %s allocates %d B in %.1f objects", shards, c.what, b, objs)
			if objs > c.objects {
				t.Errorf("shards=%d: %s allocates %.1f objects, budget %.0f", shards, c.what, objs, c.objects)
			}
			if c.bytes > 0 && b > c.bytes {
				t.Errorf("shards=%d: %s allocates %d B, budget %d B", shards, c.what, b, c.bytes)
			}
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// TestBatchAllocationBudget pins the objects a warm ring_sync-shaped
// batch allocates with the contract on, on both kernels: a seek and
// sixteen 256 B writes, one descriptor run. A batch crosses on its
// reaper, so what it allocates is the crossing — the Batch, the request
// vector, the frames both ways, the completions and the run's check —
// with no goroutine and no doorbell: 16 objects on the monolith and 14
// on Shards 2, where a per-batch drainer goroutine made it 22 and 20.
// SubmitWait is SubmitOpts(...).Wait(), so the two allocate alike.
func TestBatchAllocationBudget(t *testing.T) {
	for shards, budget := range map[int]float64{0: 16, 2: 14} {
		s, err := Boot(Config{Cores: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		fd, e := h.Open("/batch", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		ops := []sys.Op{sys.OpSeek(fd, 0, fs.SeekSet)}
		for range 16 {
			ops = append(ops, sys.OpWrite(fd, make([]byte, 256)))
		}
		check := func(comps []sys.Completion, err error) {
			if err != nil || len(comps) != len(ops) {
				t.Fatalf("shards=%d: batch: %d completions, %v", shards, len(comps), err)
			}
			for _, c := range comps {
				if c.Errno != sys.EOK {
					t.Fatalf("shards=%d: batch entry: %v", shards, c.Errno)
				}
			}
		}
		submitWait := func() {
			comps, e := h.SubmitWait(ops)
			check(comps, e.Err())
		}
		submitOpts := func() { check(h.SubmitOpts(ops, sys.SubmitOptions{}).Wait()) }
		for range 4 { // warm: the first writes after the views allocate
			submitWait()
		}
		sw, so := testing.AllocsPerRun(200, submitWait), testing.AllocsPerRun(200, submitOpts)
		t.Logf("shards=%d: a 17-op batch allocates %.1f objects (SubmitWait), %.1f (SubmitOpts+Wait), %d B",
			shards, sw, so, allocPerRequest(200, submitWait))
		if sw > budget {
			t.Errorf("shards=%d: a 17-op batch allocates %.1f objects, budget %.0f", shards, sw, budget)
		}
		if sw != so {
			t.Errorf("shards=%d: SubmitWait allocates %.1f objects, SubmitOpts(...).Wait() %.1f", shards, sw, so)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
