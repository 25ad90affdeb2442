package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/sys"
)

// TestPreadServesFromCache checks what the page cache is for: the
// zero-copy tier. The first PreadMap of a page misses and fills, repeats
// hit — visible in the cache's residency and in the pcache.hit counter —
// and a write invalidates, so the next mapping misses and shows the new
// bytes. A copying Pread beside them agrees and never enters the cache.
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
			// A mapping needs an address space, which init has not.
			c, err := s.SpawnHandle(initSys, "mapper")
			if err != nil {
				t.Fatal(err)
			}
			c.EnableContract()
			contents := bytes.Repeat([]byte{7}, 2*pcache.PageSize)
			fd, e := c.Open("/hot.dat", fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				t.Fatalf("open: %v", e)
			}
			if _, e := c.Write(fd, contents); e != sys.EOK {
				t.Fatalf("write: %v", e)
			}

			obs.Enable()
			defer obs.Disable()
			hits0 := obs.PCacheHits.Load()
			misses0 := obs.PCacheMisses.Load()
			buf := make([]byte, pcache.PageSize)
			mapped := func(what string, want []byte) {
				t.Helper()
				va, n, e := c.PreadMap(fd, 0)
				if e != sys.EOK || n != pcache.PageSize {
					t.Fatalf("%s: pread_map: n=%d %v", what, n, e)
				}
				if e := c.MemRead(va, buf); e != sys.EOK || !bytes.Equal(buf, want) {
					t.Fatalf("%s: mapped bytes diverge (%v)", what, e)
				}
				if e := c.PreadUnmap(va); e != sys.EOK {
					t.Fatalf("%s: pread_unmap: %v", what, e)
				}
			}
			for i := 0; i < 8; i++ {
				mapped(fmt.Sprintf("map %d", i), contents[:len(buf)])
			}
			if hits := obs.PCacheHits.Load() - hits0; hits < 7 {
				t.Errorf("pcache.hit = %d after 8 maps of one page, want >= 7", hits)
			}
			if misses := obs.PCacheMisses.Load() - misses0; misses != 1 {
				t.Errorf("pcache.miss = %d, want 1 (the first map fills)", misses)
			}
			resident := 0
			for i := 0; i < s.NumShards(); i++ {
				n, _, _ := s.PCache(i).Stats()
				resident += n
			}
			if resident != 1 {
				t.Errorf("%d pages resident after mapping one, want 1", resident)
			}

			// A copying read is served by the owner replica: the cache sees
			// neither a hit nor a miss.
			hits1, misses1 := obs.PCacheHits.Load(), obs.PCacheMisses.Load()
			if n, e := c.Pread(fd, buf, pcache.PageSize); e != sys.EOK || n != uint64(len(buf)) {
				t.Fatalf("pread: n=%d %v", n, e)
			}
			if !bytes.Equal(buf, contents[pcache.PageSize:]) {
				t.Fatal("pread bytes diverge")
			}
			if obs.PCacheHits.Load() != hits1 || obs.PCacheMisses.Load() != misses1 {
				t.Error("a copying pread went through the page cache")
			}

			// A write through the logged path invalidates; the next mapping
			// misses and refills with the new bytes.
			if _, e := c.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
				t.Fatalf("seek: %v", e)
			}
			fresh := bytes.Repeat([]byte{9}, pcache.PageSize)
			if _, e := c.Write(fd, fresh); e != sys.EOK {
				t.Fatalf("overwrite: %v", e)
			}
			mapped("map after write", fresh)
			if obs.PCacheMisses.Load() == misses1 {
				t.Error("pread_map after invalidation did not miss")
			}
			if e := c.Close(fd); e != sys.EOK {
				t.Fatalf("close: %v", e)
			}
			if err := c.ContractErr(); err != nil {
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
// a Pread by the caller's buffer (below), which its NumFsReadAt lends
// the apply in ReadOp.Dst (sys.TestFsReadAtIntoPageClampsHostileLengths
// sends that one these lengths and more).
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
// over 32 files on the two-shard kernel (two caches of 1024 pages),
// mapped and unmapped round and round through PreadMap while writes
// invalidate 5 % of the pages between passes. A pass may miss exactly the
// pages invalidated since the last one — for as many rounds as it takes
// the dead pages to outnumber the cache bound several times over, which
// is where a bound that counted them began evicting live pages
// (read_hot's 0.75 hit ratio, when copying reads still filled the cache).
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
	// A mapping needs an address space, which init has not.
	child, e := initSys.Spawn("mapper")
	if e != sys.EOK {
		t.Fatal(e)
	}
	h, err := s.RawSysOn(child, 0)
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
				va, n, e := h.PreadMap(fds[f], uint64(p)*pcache.PageSize)
				if e != sys.EOK || n != pcache.PageSize {
					t.Fatalf("pread_map file %d page %d: n=%d %v", f, p, n, e)
				}
				if e := h.MemRead(va, buf); e != sys.EOK {
					t.Fatalf("mapped read file %d page %d: %v", f, p, e)
				}
				if buf[0] != byte(f+p) || buf[pcache.PageSize-1] != byte(f+p) {
					t.Fatalf("file %d page %d: wrong bytes", f, p)
				}
				if e := h.PreadUnmap(va); e != sys.EOK {
					t.Fatalf("pread_unmap file %d page %d: %v", f, p, e)
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

// witnessedReply is replyOnly that still witnesses: a checked Sys over it
// crosses with encoded replies and checks them.
type witnessedReply struct{ h *handler }

func (p witnessedReply) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	return p.h.Syscall(frame, payload)
}

func (p witnessedReply) TakeWitness(into []sys.Witness) []sys.Witness { return p.h.TakeWitness(into) }

// TestPreadIsOneFileState: a Pread spanning pages returns the file as of
// one point, never pages of two states. A writer overwrites a 4-page file
// with all-0xAA, then all-0x55, one Write each, while 16 KiB Preads race
// it — into the caller's buffer and in an encoded reply, through checked
// and raw handles — and each must come back uniform.
func TestPreadIsOneFileState(t *testing.T) {
	const size, reads = 4 * pcache.PageSize, 200
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := Boot(Config{Cores: 2, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			initSys, err := s.Init()
			if err != nil {
				t.Fatal(err)
			}
			pid := initSys.PID()
			fd, e := initSys.Open("/flip", fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				t.Fatal(e)
			}
			states := [2][]byte{bytes.Repeat([]byte{0xaa}, size), bytes.Repeat([]byte{0x55}, size)}
			if _, e := initSys.Write(fd, states[0]); e != sys.EOK {
				t.Fatal(e)
			}
			rawDest, err := s.RawSysOn(pid, 0)
			if err != nil {
				t.Fatal(err)
			}
			writer, err := s.RawSysOn(pid, 1)
			if err != nil {
				t.Fatal(err)
			}
			var replies [2]*sys.Sys
			for i := range replies {
				h, err := s.newHandler(s.pickCore())
				if err != nil {
					t.Fatal(err)
				}
				replies[i] = sys.NewSys(pid, witnessedReply{h})
			}
			replies[0].EnableContract()
			readers := map[string]*sys.Sys{
				"checked destination": initSys, "raw destination": rawDest,
				"checked reply": replies[0], "raw reply": replies[1],
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				wfd, e := writer.Open("/flip", sys.ORdWr)
				if e != sys.EOK {
					t.Errorf("writer open: %v", e)
					return
				}
				for i := 1; !stop.Load(); i++ {
					if _, e := writer.Seek(wfd, 0, fs.SeekSet); e != sys.EOK {
						t.Errorf("writer seek: %v", e)
						return
					}
					if _, e := writer.Write(wfd, states[i%2]); e != sys.EOK {
						t.Errorf("writer write: %v", e)
						return
					}
				}
			}()
			var rg sync.WaitGroup
			for name, r := range readers {
				rg.Add(1)
				go func() {
					defer rg.Done()
					buf := make([]byte, size)
					for i := 0; i < reads; i++ {
						n, e := r.Pread(fd, buf, 0)
						if e != sys.EOK || n != size {
							t.Errorf("%s pread %d: n=%d %v", name, i, n, e)
							return
						}
						if !bytes.Equal(buf, states[0]) && !bytes.Equal(buf, states[1]) {
							t.Errorf("%s pread %d: bytes of two file states (%d of 0xaa, %d of 0x55)",
								name, i, bytes.Count(buf, states[0][:1]), bytes.Count(buf, states[1][:1]))
							return
						}
					}
				}()
			}
			rg.Wait()
			stop.Store(true)
			wg.Wait()
			for name, r := range readers {
				if err := r.ContractErr(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}
