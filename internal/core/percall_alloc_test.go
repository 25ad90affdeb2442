package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// TestPerCallAllocationBudget pins what one per-call crossing allocates,
// in objects, on both kernels: nothing. A crossing carries only the
// fields the call has (the masked write tail), a reply of nothing but
// errno and value is the register frame alone, and a combiner pass
// allocates nothing. Every call that cannot park encodes its request
// into the handle's request buffer, which it lends to the kernel for the
// call — a write's bytes and an open's or a stat's path too, which the
// decode reads by reference (a write was its own 576-B request, and an
// open or a stat its decoded path, before they were lent), and the log
// copies what an entry borrows where a replica could apply it after the
// call (TestPerCallRequestIsLentForTheCall). A checked call allocates
// what an unchecked one does: its witness comes back by value into slots
// the handler and the handle reuse (a 128-B object per witness before),
// and once checked its views are given back, so a warm checked write
// clones its pre-image into a page an earlier write retired (5 040 B in
// 6 objects before views were given back), and a seek+read crosses with
// the caller's buffer, which the issuer replica's apply fills, so it has
// no reply buffer and no reply payload (4 objects, 1 104 B, while the
// bytes came back in a reply). A close gives its descriptor record to
// the table's free list and the next open takes it (one 32-B object
// inside the combiner pass before); a stat's reply is encoded into the
// handle's reply buffer (sys.ReplyHandler; a 64-B object before); an
// mmap's frames are attached in the handler's frame vector, which the log
// entry borrows (an 8-B vector before), and the munmap answers with the
// frames it freed in its slot's kept vector, which never crosses. Close
// and open were 5 objects and stat 4 while each had a request of its own
// and a split slice, and an mmap+munmap pair 12 objects and 280 B.
// Counts, not times: deterministic, so it runs under -short as the
// tier-1 pin on syscall_mix's allocs_per_op.
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
		m, err := s.SpawnHandle(h, "mapper") // init has no address space
		if err != nil {
			t.Fatal(err)
		}
		mmapPair := func() {
			va, e := m.MMap(mmu.L1PageSize)
			fail("mmap", e)
			fail("munmap", m.MUnmap(va))
		}
		for _, c := range []struct {
			what    string
			f       func()
			objects float64
			bytes   uint64 // 0: objects only
		}{
			{"unchecked seek", seek(raw), 0, 0},
			{"checked seek", checkedSeek, 0, 0},
			{"checked seek+write", seekWrite, 0, 0},
			{"checked seek+read", seekRead, 0, 0},
			{"close+open", reopen, 0, 0},
			{"stat", stat, 0, 0},
			{"mmap+munmap", mmapPair, 0, 0},
		} {
			objs := testing.AllocsPerRun(200, c.f)
			b := allocPerRequest(200, c.f)
			t.Logf("shards=%d: %s allocates %d B in %.1f objects", shards, c.what, b, objs)
			if objs > c.objects {
				t.Errorf("shards=%d: %s allocates %.1f objects, budget %.0f", shards, c.what, objs, c.objects)
			}
			if b > c.bytes {
				t.Errorf("shards=%d: %s allocates %d B, budget %d B", shards, c.what, b, c.bytes)
			}
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// TestBatchAllocationBudget pins what a warm ring_sync-shaped batch
// allocates with the contract on, on both kernels, with one replica and
// with two: a seek and sixteen 256 B writes, one descriptor run. The
// handle reuses its request vector and request buffer, and the handler
// its decode vector, steps, completions and run results, because the
// log keeps its own copy of a run where a replica could apply it after
// the batch returns (nr.Owner): what is left is the Batch, the
// completion queue handed back — its encoding and its decoding — and the
// checked write's copy-on-write page, 6 objects in 5.6 KiB, where
// allocating all of those afresh made it 16 objects in 23 KiB on the
// monolith and 14 in 22 KiB on Shards 2. Warm means a lap of the log
// past boot: with two replicas a slot's store is allocated at the first
// run the slot carries and reused on every later lap. SubmitWait is
// SubmitOpts(...).Wait(), so the two allocate alike; a per-batch
// goroutine or doorbell would show as more objects.
func TestBatchAllocationBudget(t *testing.T) {
	const objects, bytes = 6, 6 << 10
	for _, cfg := range []Config{
		{Cores: 2}, {Cores: 2, Shards: 2},
		{Cores: 2 * CoresPerNode}, {Cores: 2 * CoresPerNode, Shards: 2},
	} {
		s, err := Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mode := fmt.Sprintf("shards=%d, %d replicas", cfg.Shards, s.NumReplicas())
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
				t.Fatalf("%s: batch: %d completions, %v", mode, len(comps), err)
			}
			for _, c := range comps {
				if c.Errno != sys.EOK {
					t.Fatalf("%s: batch entry: %v", mode, c.Errno)
				}
			}
		}
		submitWait := func() {
			comps, e := h.SubmitWait(ops)
			check(comps, e.Err())
		}
		submitOpts := func() { check(h.SubmitOpts(ops, sys.SubmitOptions{}).Wait()) }
		for range nr.DefaultLogSize {
			submitWait()
		}
		sw, so := testing.AllocsPerRun(200, submitWait), testing.AllocsPerRun(200, submitOpts)
		b := allocPerRequest(200, submitWait)
		t.Logf("%s: a 17-op batch allocates %.1f objects (SubmitWait), %.1f (SubmitOpts+Wait), %d B",
			mode, sw, so, b)
		if sw > objects {
			t.Errorf("%s: a 17-op batch allocates %.1f objects, budget %d", mode, sw, objects)
		}
		if b > bytes {
			t.Errorf("%s: a 17-op batch allocates %d B, budget %d B", mode, b, bytes)
		}
		if sw != so {
			t.Errorf("%s: SubmitWait allocates %.1f objects, SubmitOpts(...).Wait() %.1f", mode, sw, so)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

// TestBatchKeepsBoundedBuffers: the buffers a handler reuses from one
// batch to the next keep nothing of the batch they served — not the
// handle's payload, not the read results, not witness views — and none
// keeps more than nr.SlotBytes, on both kernels. A batch of a hundred
// 1 KiB writes leaves no decode vector behind it, and a small batch
// with reads in its run after it leaves every buffer empty.
func TestBatchKeepsBoundedBuffers(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		hd, err := s.pinnedHandler(0)
		if err != nil {
			t.Fatal(err)
		}
		h := sys.NewSys(proc.InitPID, hd)
		h.EnableContract()
		fd, e := h.Open("/batch", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		submit := func(ops []sys.Op) {
			comps, e := h.SubmitWait(ops)
			if e != sys.EOK || len(comps) != len(ops) {
				t.Fatalf("shards=%d: batch: %d completions, %v", shards, len(comps), e)
			}
			for _, c := range comps {
				if c.Errno != sys.EOK {
					t.Fatalf("shards=%d: batch entry: %v", shards, c.Errno)
				}
			}
		}
		var big []sys.Op
		for range 100 {
			big = append(big, sys.OpWrite(fd, make([]byte, 1<<10)))
		}
		submit(big)
		if hd.batchOps != nil {
			t.Errorf("shards=%d: after a %d-op batch the handler keeps a %d-op decode vector", shards, len(big), cap(hd.batchOps))
		}
		submit([]sys.Op{sys.OpSeek(fd, 0, fs.SeekSet), sys.OpRead(fd, 512),
			sys.OpWrite(fd, make([]byte, 256)), sys.OpRead(fd, 512)})
		for name, held := range map[string]bool{
			"decode vector": heldSomething(hd.batchOps),
			"steps":         heldSomething(hd.batchSteps.Ops) || heldSomething(hd.batchSteps.At),
			"completions":   heldSomething(hd.batchComps),
		} {
			if held {
				t.Errorf("shards=%d: the handler's %s keeps what its last batch held", shards, name)
			}
		}
		kept := cap(hd.batchResps) * int(unsafe.Sizeof(sys.Resp{}))
		for _, r := range hd.batchResps[:cap(hd.batchResps)] {
			kept += cap(r.Run) * int(unsafe.Sizeof(sys.RunResult{}))
			run := r.Run
			r.Run = nil
			if heldSomething(run) || !reflect.ValueOf(r).IsZero() {
				t.Errorf("shards=%d: the handler's answers keep what its last batch held", shards)
			}
		}
		if kept > nr.SlotBytes {
			t.Errorf("shards=%d: the handler's answers keep %d B, over %d", shards, kept, nr.SlotBytes)
		}
		if err := h.ContractErr(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// heldSomething reports whether any element of v's storage, past its
// length too, is not its zero value.
func heldSomething[T any](v []T) bool {
	for _, e := range v[:cap(v)] {
		if !reflect.ValueOf(e).IsZero() {
			return true
		}
	}
	return false
}
