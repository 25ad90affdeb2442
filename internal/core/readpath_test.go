package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/sys"
)

// TestPreadServesFromCache checks the perf claim behind the read path:
// the first pread of a page misses and fills, repeats hit — visible in
// both the cache's residency and the pcache.hit counter.
func TestPreadServesFromCache(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := Boot(Config{Cores: 2, Shards: shards, MemBytes: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			initSys, err := s.Init()
			if err != nil {
				t.Fatal(err)
			}
			contents := bytes.Repeat([]byte{7}, 2*pcache.PageSize)
			fd, e := initSys.Open("/hot.dat", fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				t.Fatalf("open: %v", e)
			}
			if _, e := initSys.Write(fd, contents); e != sys.EOK {
				t.Fatalf("write: %v", e)
			}

			obs.Enable()
			defer obs.Disable()
			hits0 := obs.PCacheHits.Load()
			misses0 := obs.PCacheMisses.Load()
			buf := make([]byte, pcache.PageSize)
			for i := 0; i < 8; i++ {
				if n, e := initSys.Pread(fd, buf, 0); e != sys.EOK || n != uint64(len(buf)) {
					t.Fatalf("pread %d: n=%d %v", i, n, e)
				}
				if !bytes.Equal(buf, contents[:len(buf)]) {
					t.Fatalf("pread %d bytes diverge", i)
				}
			}
			if hits := obs.PCacheHits.Load() - hits0; hits < 7 {
				t.Errorf("pcache.hit = %d after 8 preads of one page, want >= 7", hits)
			}
			if misses := obs.PCacheMisses.Load() - misses0; misses < 1 {
				t.Errorf("pcache.miss = %d, want >= 1 (first read fills)", misses)
			}

			// A write through the logged path invalidates; the next pread
			// misses and refills with the new bytes.
			if _, e := initSys.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
				t.Fatalf("seek: %v", e)
			}
			fresh := bytes.Repeat([]byte{9}, pcache.PageSize)
			if _, e := initSys.Write(fd, fresh); e != sys.EOK {
				t.Fatalf("overwrite: %v", e)
			}
			misses1 := obs.PCacheMisses.Load()
			if n, e := initSys.Pread(fd, buf, 0); e != sys.EOK || n != uint64(len(buf)) {
				t.Fatalf("pread after write: n=%d %v", n, e)
			}
			if !bytes.Equal(buf, fresh) {
				t.Fatal("pread after write served stale bytes")
			}
			if obs.PCacheMisses.Load() == misses1 {
				t.Error("pread after invalidation did not miss")
			}
			if e := initSys.Close(fd); e != sys.EOK {
				t.Fatalf("close: %v", e)
			}
			if err := initSys.ContractErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPreadErrnos covers the error surface: bad descriptor, write-only
// descriptor, misaligned map offset, and unmap of a non-mapping VA.
func TestPreadErrnos(t *testing.T) {
	s, err := Boot(Config{Cores: 2, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	if _, e := initSys.Pread(9999, make([]byte, 4), 0); e != sys.EBADF {
		t.Errorf("pread bad fd: %v, want EBADF", e)
	}
	fd, e := initSys.Open("/wr.dat", fs.OCreate|fs.OWrOnly)
	if e != sys.EOK {
		t.Fatalf("open: %v", e)
	}
	if _, e := initSys.Pread(fd, make([]byte, 4), 0); e != sys.EPERM {
		t.Errorf("pread write-only fd: %v, want EPERM", e)
	}
	if _, _, e := initSys.PreadMap(fd, 0); e != sys.EPERM {
		t.Errorf("pread_map write-only fd: %v, want EPERM", e)
	}
	if e := initSys.Close(fd); e != sys.EOK {
		t.Fatalf("close: %v", e)
	}
	fd, e = initSys.Open("/rd.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		t.Fatalf("open rd: %v", e)
	}
	if _, e := initSys.Write(fd, []byte("hello")); e != sys.EOK {
		t.Fatalf("write: %v", e)
	}
	// An empty buffer reads nothing, successfully — but still checks the
	// descriptor (the bad-fd case above never looks at the buffer).
	if n, e := initSys.Pread(fd, nil, 0); n != 0 || e != sys.EOK {
		t.Errorf("pread into an empty buffer: n=%d %v, want 0 EOK", n, e)
	}
	if _, e := initSys.Pread(9999, nil, 0); e != sys.EBADF {
		t.Errorf("pread bad fd into an empty buffer: %v, want EBADF", e)
	}
	if _, _, e := initSys.PreadMap(fd, 13); e != sys.EINVAL {
		t.Errorf("pread_map misaligned: %v, want EINVAL", e)
	}
	// Unmap of a VA that is not a pread mapping needs a process with a
	// vspace (init has none — that path is ESRCH before the VA check).
	errs := make(chan error, 1)
	if _, err := s.Run(initSys, "unmapper", func(p *Process) int {
		if e := p.Sys.PreadUnmap(0xdead000); e != sys.EINVAL {
			errs <- fmt.Errorf("pread_unmap of unmapped VA: %v, want EINVAL", e)
		} else {
			errs <- nil
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Error(err)
	}
	s.WaitAll()
	if _, e := initSys.Wait(); e != sys.EOK {
		t.Fatalf("wait: %v", e)
	}
}

// TestBatchPreadObservesBatchWrites checks the ring contract: a pread
// submitted in a batch is served after the whole logged run, so it
// observes writes later in the same batch.
func TestBatchPreadObservesBatchWrites(t *testing.T) {
	s, err := Boot(Config{Cores: 2, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	fd, e := initSys.Open("/b.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		t.Fatalf("open: %v", e)
	}
	payload := []byte("batched-bytes")
	comps, e := initSys.SubmitWait([]sys.Op{
		sys.OpWrite(fd, payload),
		sys.OpPread(fd, uint64(len(payload)), 0),
	})
	if e != sys.EOK {
		t.Fatalf("batch: %v", e)
	}
	if comps[1].Errno != sys.EOK {
		t.Fatalf("batched pread: %v", comps[1].Errno)
	}
	if !bytes.Equal(comps[1].Data, payload) {
		t.Fatalf("batched pread = %q, want %q (must observe the batch's write)", comps[1].Data, payload)
	}
}

// TestHostileReadLengthIsClamped: the length of a read is the caller's
// word, carried in a frame anyone can hand-roll. A frame saying
// Len: 1<<62 used to reach make([]byte, op.Len) — in handler.pread and,
// for NumRead, inside the replicated apply — and kill the kernel with
// "makeslice: len out of range". Every reply-form read now clamps to the
// bytes the file can supply from the offset before allocating, so the
// hostile frame reads to EOF like an honest oversized buffer would. The
// destination forms allocate nothing and are bounded by the destination:
// a Pread by the caller's buffer (below), and the cache fill's
// NumFsReadAt by the page it lends the apply in ReadOp.Dst
// (sys.TestFsReadAtIntoPageClampsHostileLengths sends that one these
// lengths and more).
// NumMemRead took the same word to make() before any mapping check; its
// range is now checked against the caller's mappings first, so the
// hostile frame is the EFAULT an honest read off the end of a mapping is.
func TestHostileReadLengthIsClamped(t *testing.T) {
	const hostile = uint64(1) << 62
	contents := []byte("the file is this long and no longer")
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := Boot(Config{Cores: 2, Shards: shards, MemBytes: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			initSys, err := s.Init()
			if err != nil {
				t.Fatal(err)
			}
			fd, e := initSys.Open("/victim", fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				t.Fatalf("open: %v", e)
			}
			if _, e := initSys.Write(fd, contents); e != sys.EOK {
				t.Fatalf("write: %v", e)
			}
			h, err := s.newHandler(s.pickCore())
			if err != nil {
				t.Fatal(err)
			}
			pid := initSys.PID()
			rewind := func() {
				if _, e := initSys.Seek(fd, 7, fs.SeekSet); e != sys.EOK {
					t.Fatalf("seek: %v", e)
				}
			}
			want := func(what string, errno sys.Errno, val uint64, data []byte, from int) {
				t.Helper()
				if errno != sys.EOK || val != uint64(len(contents)-from) || !bytes.Equal(data, contents[from:]) {
					t.Errorf("%s with Len 1<<62: errno=%v n=%d data=%q, want the %d bytes from offset %d",
						what, errno, val, data, len(contents)-from, from)
				}
			}

			// Per call: pread in the reply form, read at the descriptor offset.
			frame, payload := sys.EncodeRead(sys.ReadOp{Num: sys.NumPread, PID: pid, FD: fd, Len: hostile, Off: 4})
			r, err := sys.DecodeResp(h.Syscall(frame, payload))
			if err != nil {
				t.Fatal(err)
			}
			want("pread", r.Errno, r.Val, r.Data, 4)

			rewind()
			frame, payload = sys.EncodeWrite(sys.WriteOp{Num: sys.NumRead, PID: pid, FD: fd, Len: hostile})
			if r, err = sys.DecodeResp(h.Syscall(frame, payload)); err != nil {
				t.Fatal(err)
			}
			want("read", r.Errno, r.Val, r.Data, 7)

			// The destination form is bounded by the buffer, whatever the
			// frame says.
			dst := bytes.Repeat([]byte{0xee}, 8)
			frame, payload = sys.EncodeRead(sys.ReadOp{Num: sys.NumPread, PID: pid, FD: fd, Len: hostile, Off: 4})
			if ret := h.SyscallInto(frame, payload, dst[:5]); sys.Errno(ret.Errno) != sys.EOK || ret.Value != 5 ||
				!bytes.Equal(dst, append(append([]byte{}, contents[4:9]...), 0xee, 0xee, 0xee)) {
				t.Errorf("pread into a 5-byte buffer with Len 1<<62: errno=%v n=%d buffer=%q", sys.Errno(ret.Errno), ret.Value, dst)
			}

			// Batched: both ops in one NumBatch frame.
			rewind()
			frame, payload = sys.EncodeBatch(pid, []sys.WriteOp{
				{Num: sys.NumRead, FD: fd, Len: hostile},
				{Num: sys.NumPread, FD: fd, Len: hostile, Off: 4},
			})
			comps, errno, err := sys.DecodeBatchResp(h.Syscall(frame, payload))
			if err != nil || errno != sys.EOK || len(comps) != 2 {
				t.Fatalf("batch: %v %v, %d completions", err, errno, len(comps))
			}
			want("batched read", comps[0].Errno, comps[0].Val, comps[0].Data, 7)
			want("batched pread", comps[1].Errno, comps[1].Val, comps[1].Data, 4)

			// Raw user memory: a process with one two-page mapping.
			child, e := initSys.Spawn("mapper")
			if e != sys.EOK {
				t.Fatalf("spawn: %v", e)
			}
			cs, err := s.RawSysOn(child, 0)
			if err != nil {
				t.Fatal(err)
			}
			base, e := cs.MMap(2 * 4096)
			if e != sys.EOK {
				t.Fatalf("mmap: %v", e)
			}
			if e := cs.MemWrite(base+4090, []byte("straddles pages")); e != sys.EOK {
				t.Fatalf("mem write: %v", e)
			}
			memRead := func(va mmu.VAddr, n uint64) sys.Resp {
				frame, payload := sys.EncodeWrite(sys.WriteOp{Num: sys.NumMemRead, PID: child, VA: va, Len: n})
				r, err := sys.DecodeResp(h.Syscall(frame, payload))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			if r := memRead(base+4090, 15); r.Errno != sys.EOK || string(r.Data) != "straddles pages" {
				t.Errorf("honest mem read: errno=%v data=%q", r.Errno, r.Data)
			}
			if r := memRead(base, 2*4096); r.Errno != sys.EOK || len(r.Data) != 2*4096 {
				t.Errorf("mem read of the whole mapping: errno=%v, %d bytes", r.Errno, len(r.Data))
			}
			for _, n := range []uint64{2*4096 + 1, hostile, ^uint64(0)} {
				if r := memRead(base, n); r.Errno != sys.EFAULT || len(r.Data) != 0 {
					t.Errorf("mem read of %d bytes from a two-page mapping: errno=%v, %d bytes, want EFAULT", n, r.Errno, len(r.Data))
				}
			}

			if err := s.CheckReplicaAgreement(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestWorkingSetStaysResident is the composed residency check: 512 pages
// over 32 files on the two-shard kernel (two caches of 1024 pages), read
// round and round while writes invalidate 5 % of the pages between
// passes. A pass may miss exactly the pages invalidated since the last
// one — for as many rounds as it takes the dead pages to outnumber the
// cache bound several times over, which is where a bound that counted
// them began evicting live pages (read_hot's 0.75 hit ratio).
func TestWorkingSetStaysResident(t *testing.T) {
	const files, filePages, rounds = 32, 16, 96
	s, err := Boot(Config{Cores: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.RawSysOn(initSys.PID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fds := make([]fs.FD, files)
	content := make([]byte, filePages*pcache.PageSize)
	for f := range fds {
		for i := range content {
			content[i] = byte(f + i/pcache.PageSize)
		}
		var e sys.Errno
		if fds[f], e = h.Open(fmt.Sprintf("/ws%d", f), fs.OCreate|fs.ORdWr); e != sys.EOK {
			t.Fatalf("open: %v", e)
		}
		if _, e := h.Write(fds[f], content); e != sys.EOK {
			t.Fatalf("write: %v", e)
		}
	}
	obs.Enable()
	defer obs.Disable()
	buf := make([]byte, pcache.PageSize)
	pass := func() (misses uint64) {
		m0 := obs.PCacheMisses.Load()
		for f := range fds {
			for p := 0; p < filePages; p++ {
				if n, e := h.Pread(fds[f], buf, uint64(p)*pcache.PageSize); e != sys.EOK || n != pcache.PageSize {
					t.Fatalf("pread file %d page %d: n=%d %v", f, p, n, e)
				}
				if buf[0] != byte(f+p) || buf[pcache.PageSize-1] != byte(f+p) {
					t.Fatalf("file %d page %d: wrong bytes", f, p)
				}
			}
		}
		return obs.PCacheMisses.Load() - m0
	}
	if m := pass(); m != files*filePages {
		t.Fatalf("first pass missed %d pages, want all %d", m, files*filePages)
	}
	r := rand.New(rand.NewSource(16))
	e0 := obs.PCacheEvictions.Load()
	killed := 0
	for round := 0; round < rounds; round++ {
		dirty := make(map[int]bool)
		for len(dirty) < files*filePages/20 { // 5 % of the pages
			dirty[r.Intn(files*filePages)] = true
		}
		for pg := range dirty {
			f, p := pg/filePages, pg%filePages
			if _, e := h.Seek(fds[f], int64(p*pcache.PageSize+r.Intn(pcache.PageSize-256)), fs.SeekSet); e != sys.EOK {
				t.Fatalf("seek: %v", e)
			}
			// The page's own byte again: contents never change.
			if _, e := h.Write(fds[f], bytes.Repeat([]byte{byte(f + p)}, 256)); e != sys.EOK {
				t.Fatalf("write: %v", e)
			}
		}
		killed += len(dirty)
		if m := pass(); m != uint64(len(dirty)) {
			t.Fatalf("round %d (%d pages invalidated so far): the pass missed %d pages, want the %d invalidated since the last pass",
				round, killed, m, len(dirty))
		}
	}
	if ev := obs.PCacheEvictions.Load() - e0; ev != 0 {
		t.Errorf("%d evictions with a 512-page working set in 2 x 1024 pages", ev)
	}
	resident := 0
	for i := 0; i < s.NumShards(); i++ {
		n, _, _ := s.PCache(i).Stats()
		resident += n
	}
	if resident != files*filePages {
		t.Errorf("%d pages resident, want %d", resident, files*filePages)
	}
	if got := obs.PCacheResident[0].Load() + obs.PCacheResident[1].Load(); got != files*filePages {
		t.Errorf("pcache.resident gauges sum to %d, want %d", got, files*filePages)
	}
}
