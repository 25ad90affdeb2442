package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// The tests of the one kernel wiring: every Config.Shards × Config.WAL
// boot goes through the same Boot, handler, durability and restore code,
// and only the router's rule 0 tells a co-located kernel from a
// partitioned one.

// wiringConfig is a small machine: the disk is kept short so freezing it
// stays cheap.
func wiringConfig(shards int, wal bool) Config {
	return Config{Cores: 2, Shards: shards, WAL: wal, MemBytes: 256 << 20, DiskBlocks: 8192}
}

// freezeDisk copies the machine's disk as it stands ("power loss"), after
// the journal group's background checkpoint workers have settled.
func freezeDisk(t *testing.T, s *System) *fs.MemBlockStore {
	t.Helper()
	if s.walGroup != nil {
		s.walGroup.Drain()
	}
	img := fs.NewMemBlockStore(s.BlockDev.BlockSize(), s.BlockDev.NumBlocks())
	buf := make([]byte, s.BlockDev.BlockSize())
	for i := uint64(0); i < s.BlockDev.NumBlocks(); i++ {
		if err := s.BlockDev.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
		if err := img.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// readAll reads a whole file through a fresh descriptor.
func readAll(h *sys.Sys, path string) ([]byte, sys.Errno) {
	fd, e := h.Open(path, fs.ORdOnly)
	if e != sys.EOK {
		return nil, e
	}
	defer h.Close(fd)
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, e := h.Read(fd, buf)
		if e != sys.EOK {
			return nil, e
		}
		if n == 0 {
			return out, sys.EOK
		}
		out = append(out, buf[:n]...)
	}
}

// wiringFiles is every file the script leaves behind.
var wiringFiles = []string{"/d/a", "/d/b2", "/c", "/child"}

// wiringScript drives one scripted workload across the syscall surface
// and returns what it observed — every completion, value and byte that
// is the kernel's to decide — one line per step. The batch's sync
// completion is returned apart: it is the one result that legitimately
// depends on the wiring (ENOSYS on a partitioned kernel with no journal).
func wiringScript(t *testing.T, s *System, h *sys.Sys) (trace []string, batchSync sys.Errno) {
	t.Helper()
	say := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }

	// Files: namespace ops, cursor reads and writes, a reopen with append.
	say("mkdir /d: %v", h.Mkdir("/d"))
	a, e := h.Open("/d/a", fs.OCreate|fs.ORdWr)
	say("open a: %d %v", a, e)
	b, e := h.Open("/d/b", fs.OCreate|fs.ORdWr)
	say("open b: %d %v", b, e)
	n, e := h.Write(a, bytes.Repeat([]byte("alpha-"), 900)) // spans two pages
	say("write a: %d %v", n, e)
	n, e = h.Write(b, []byte("bravo bravo bravo"))
	say("write b: %d %v", n, e)
	off, e := h.Seek(a, -10, fs.SeekEnd)
	say("seek a end-10: %d %v", off, e)
	buf := make([]byte, 32)
	n, e = h.Read(a, buf)
	say("read a tail: %q %v", buf[:n], e)
	say("close a: %v", h.Close(a))
	a, e = h.Open("/d/a", fs.ORdWr|fs.OAppend)
	say("reopen a append: %d %v", a, e)
	n, e = h.Write(a, []byte("|appended"))
	say("append a: %d %v", n, e)
	st, e := h.Stat("/d/a")
	say("stat a: size %d kind %v %v", st.Size, st.Kind, e)

	// Failed data ops, per call and as a batch of two-entry runs: the errno
	// each kernel picks, and witnesses that show the descriptor untouched.
	wo, e := h.Open("/d/a", fs.OWrOnly)
	say("open a write-only: %d %v", wo, e)
	ro, e := h.Open("/d/a", fs.ORdOnly)
	say("open a read-only: %d %v", ro, e)
	shut, e := h.Open("/d/a", fs.ORdOnly)
	say("open and close a: %d %v %v", shut, e, h.Close(shut))
	_, e = h.Read(wo, buf)
	say("read write-only: %v", e)
	_, e = h.Write(ro, []byte("x"))
	say("write read-only: %v", e)
	for _, sk := range []struct {
		off    int64
		whence int
	}{{-1, fs.SeekSet}, {0, 7}, {-100, fs.SeekEnd}} {
		_, e = h.Seek(b, sk.off, sk.whence)
		say("seek b %d whence %d: %v", sk.off, sk.whence, e)
	}
	_, e = h.Read(shut, buf)
	say("read closed: %v", e)
	_, e = h.Write(shut, []byte("x"))
	say("write closed: %v", e)
	_, e = h.Seek(shut, 0, fs.SeekSet)
	say("seek closed: %v", e)
	_, e = h.Seek(shut, 0, fs.SeekEnd)
	say("seek closed end: %v", e)
	comps, e := h.SubmitWait([]sys.Op{
		sys.OpRead(wo, 4), sys.OpRead(wo, 4),
		sys.OpWrite(ro, []byte("x")), sys.OpWrite(ro, []byte("y")),
		sys.OpSeek(b, -1, fs.SeekSet), sys.OpSeek(b, 0, 7),
		sys.OpRead(shut, 4), sys.OpWrite(shut, []byte("z")),
		sys.OpSeek(b, -100, fs.SeekEnd), sys.OpSeek(b, 0, fs.SeekCur),
		sys.OpSeek(shut, 0, fs.SeekSet), sys.OpSeek(shut, 0, fs.SeekEnd),
	})
	say("failing batch: %d completions %v", len(comps), e)
	for i, c := range comps {
		say("failing batch[%d] %s: %v %d", i, sys.OpName(c.Op), c.Errno, c.Val)
	}
	say("close write-only, read-only: %v %v", h.Close(wo), h.Close(ro))

	// An mmap pair with a store and a load between, from a process that
	// has an address space (init has none).
	m, err := s.SpawnHandle(h, "mapper")
	if err != nil {
		t.Fatal(err)
	}
	va, e := m.MMap(mmu.L1PageSize)
	say("mmap: %#x %v", uint64(va), e)
	say("mem_write: %v", m.MemWrite(va, []byte("mapped")))
	got := make([]byte, 6)
	say("mem_read: %v %q", m.MemRead(va, got), got)
	say("munmap: %v", m.MUnmap(va))

	// The pread family: a fill, a hit, the zero-copy tier.
	page := make([]byte, 64)
	for i := 0; i < 2; i++ {
		n, e = h.Pread(a, page, 4090) // crosses a page boundary
		say("pread a: %q %v", page[:n], e)
	}
	ma, e := m.Open("/d/a", fs.ORdOnly)
	say("mapper open a: %d %v", ma, e)
	mva, valid, e := m.PreadMap(ma, 4096)
	say("pread_map a: %#x %d %v", uint64(mva), valid, e)
	say("mapped read: %v %q", m.MemRead(mva, got), got)
	say("pread_unmap: %v", m.PreadUnmap(mva))
	mva, _, e = m.PreadMap(ma, 0) // left mapped: the exit must unpin it
	say("pread_map a again: %#x %v", uint64(mva), e)
	say("mapper exit: %v", m.Exit(3))
	w, e := h.Wait()
	say("wait: pid %d (spawned %d) code %d %v", w.PID, m.PID(), w.ExitCode, e)

	// A 12-op batch: two descriptor runs, a positioned read of what the
	// batch itself wrote, namespace ops, and a sync marker.
	comps, e = h.SubmitWait([]sys.Op{
		sys.OpWrite(b, []byte(" one")),
		sys.OpWrite(b, []byte(" two")),
		sys.OpSeek(b, 0, fs.SeekSet),
		sys.OpRead(b, 11),
		sys.OpWrite(a, []byte("|batched")),
		sys.OpSeek(a, 0, fs.SeekEnd),
		sys.OpPread(b, 8, 17),
		sys.OpMkdir("/d/sub"),
		sys.OpRename("/d/b", "/d/b2"),
		sys.OpTruncate(b, 21),
		sys.OpSync(),
		sys.OpRead(b, 64),
	})
	say("batch: %d completions %v", len(comps), e)
	for i, c := range comps {
		if c.Op == sys.NumSync {
			batchSync = c.Errno
			continue
		}
		say("batch[%d] %s: %v %d %q", i, sys.OpName(c.Op), c.Errno, c.Val, c.Data)
	}

	// Sockets: bind, send, an empty receive, close, a stale close, and the
	// port is free again.
	sock, e := h.SockBind(7000)
	say("sock_bind 7000: %d %v", sock, e)
	_, e = h.SockBind(7000)
	say("sock_bind 7000 again: %v", e)
	n, e = h.SockSend(sock, 0xB, 9, []byte("datagram"))
	say("sock_send: %d %v", n, e)
	_, _, _, e = h.SockRecv(sock)
	say("sock_recv: %v", e)
	say("sock_close: %v", h.SockClose(sock))
	say("sock_close again: %v", h.SockClose(sock))
	sock, e = h.SockBind(7000)
	say("sock_bind 7000 after close: %d %v", sock, e)
	say("sock_close: %v", h.SockClose(sock))

	// Processes: a child writes a file, holds a socket and exits with it.
	p, err := s.Run(h, "child", func(p *Process) int {
		fd, e := p.Sys.Open("/child", fs.OCreate|fs.OWrOnly)
		if e != sys.EOK {
			return 1
		}
		if _, e := p.Sys.Write(fd, []byte("from the child")); e != sys.EOK {
			return 2
		}
		if _, e := p.Sys.SockBind(7001); e != sys.EOK {
			return 3
		}
		if p.Sys.ContractErr() != nil {
			return 4
		}
		return 7
	})
	if err != nil {
		t.Fatal(err)
	}
	s.WaitAll()
	w, e = h.Wait()
	say("wait: pid %d (spawned %d) code %d %v", w.PID, p.PID, w.ExitCode, e)
	// The exit released the child's port.
	sock, e = h.SockBind(7001)
	say("sock_bind 7001 after exit: %d %v", sock, e)
	say("sock_close: %v", h.SockClose(sock))

	say("open c: %v", writeFile(h, "/c", []byte("charlie")))
	say("close a, b: %v %v", h.Close(a), h.Close(b))
	for _, dir := range []string{"/", "/d"} {
		ents, e := h.ReadDir(dir)
		say("readdir %s: %v %v", dir, ents, e)
	}
	for _, path := range wiringFiles {
		data, e := readAll(h, path)
		say("contents %s: %d bytes %x %v", path, len(data), marshal.Fletcher64(data), e)
	}
	if err := h.ContractErr(); err != nil {
		t.Errorf("contract: %v", err)
	}
	return trace, batchSync
}

func writeFile(h *sys.Sys, path string, data []byte) sys.Errno {
	fd, e := h.Open(path, fs.OCreate|fs.OWrOnly)
	if e != sys.EOK {
		return e
	}
	if _, e := h.Write(fd, data); e != sys.EOK {
		return e
	}
	return h.Close(fd)
}

// TestWiringParity runs the same script over Shards ∈ {0, 1, 2} × WAL ∈
// {off, on}: identical completions and final contents, the consistency
// checks, durability, and a restore boot from the frozen disk that reads
// everything back. Shards 0 and 1 are the same boot — one NR instance.
func TestWiringParity(t *testing.T) {
	var want []string
	for _, shards := range []int{0, 1, 2} {
		for _, wal := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d wal=%v", shards, wal)
			before := nr.Instances()
			s, err := Boot(wiringConfig(shards, wal))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			booted := nr.Instances() - before
			partitioned := shards > 1
			if partitioned {
				if booted != uint64(2*shards) || s.NumShards() != shards || !s.Sharded() {
					t.Errorf("%s: %d NR instances, NumShards %d, Sharded %v", name, booted, s.NumShards(), s.Sharded())
				}
			} else if booted != 1 || s.NumShards() != 1 || s.Sharded() {
				t.Errorf("%s: %d NR instances, NumShards %d, Sharded %v; want the one-instance group",
					name, booted, s.NumShards(), s.Sharded())
			}
			h, err := s.Init()
			if err != nil {
				t.Fatal(err)
			}
			trace, batchSync := wiringScript(t, s, h)
			if want == nil {
				want = trace
			}
			if len(trace) != len(want) {
				t.Errorf("%s: %d steps, want %d", name, len(trace), len(want))
			}
			for i := range min(len(want), len(trace)) {
				if trace[i] != want[i] {
					t.Errorf("%s: step %d\n got  %s\n want %s", name, i, trace[i], want[i])
				}
			}
			if err := s.CheckReplicaAgreement(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := s.CheckKernelInvariants(); err != nil {
				t.Errorf("%s: %v", name, err)
			}

			// Durability: only a partitioned kernel without a journal has
			// none, and says so.
			restore := wiringConfig(shards, wal)
			restore.RestoreFS = true
			if partitioned && !wal {
				if e := h.Sync(); e != sys.ENOSYS || batchSync != sys.ENOSYS {
					t.Errorf("%s: sync %v, batch sync %v; want ENOSYS", name, e, batchSync)
				}
				if err := s.SaveFS(); err == nil {
					t.Errorf("%s: SaveFS succeeded", name)
				}
				restore.BootDisk = freezeDisk(t, s)
				if _, err := Boot(restore); err == nil {
					t.Errorf("%s: restore boot accepted", name)
				}
				continue
			}
			if e := h.Sync(); e != sys.EOK || batchSync != sys.EOK {
				t.Errorf("%s: sync %v, batch sync %v", name, e, batchSync)
			}
			if err := s.SaveFS(); err != nil {
				t.Errorf("%s: SaveFS: %v", name, err)
			}
			restore.BootDisk = freezeDisk(t, s)
			s2, err := Boot(restore)
			if err != nil {
				t.Fatalf("%s: restore boot: %v", name, err)
			}
			h2, err := s2.Init()
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range wiringFiles {
				before, e1 := readAll(h, path)
				after, e2 := readAll(h2, path)
				if e1 != sys.EOK || e2 != sys.EOK || !bytes.Equal(before, after) {
					t.Errorf("%s: %s across restore: %d bytes %v, then %d bytes %v", name, path, len(before), e1, len(after), e2)
				}
			}
			if err := s2.CheckReplicaAgreement(); err != nil {
				t.Errorf("%s: restored: %v", name, err)
			}
		}
	}
}

// TestJournaledMonolithOutgrowsRecordArea: on a co-located kernel a burst
// larger than the journal's whole record area between two durability
// points still becomes durable — Sync and SaveFS escalate to a checkpoint
// of the live filesystem, which absorbs any amount of pending records —
// and the journal keeps committing ordinary rounds afterwards.
func TestJournaledMonolithOutgrowsRecordArea(t *testing.T) {
	cfg := wiringConfig(0, true)
	s, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	area := int(s.walGroup.Journal(0).RecordBlocks()) * s.BlockDev.BlockSize()
	burst := func(path string, fill byte) []byte {
		data := bytes.Repeat([]byte{fill}, area+area/8)
		fd, e := h.Open(path, fs.OCreate|fs.OWrOnly)
		if e != sys.EOK {
			t.Fatalf("open %s: %v", path, e)
		}
		for off := 0; off < len(data); off += 8192 {
			if _, e := h.Write(fd, data[off:min(off+8192, len(data))]); e != sys.EOK {
				t.Fatalf("write %s at %d: %v", path, off, e)
			}
		}
		h.Close(fd)
		return data
	}
	want := map[string][]byte{"/big1": burst("/big1", 'x')}
	if e := h.Sync(); e != sys.EOK {
		t.Fatalf("Sync with %d bytes pending over a %d-byte record area: %v", len(want["/big1"]), area, e)
	}
	want["/big2"] = burst("/big2", 'y')
	if err := s.SaveFS(); err != nil {
		t.Fatalf("SaveFS with more pending than the record area: %v", err)
	}
	want["/small"] = []byte("an ordinary round after the escalations")
	if e := writeFile(h, "/small", want["/small"]); e != sys.EOK {
		t.Fatal(e)
	}
	if e := h.Sync(); e != sys.EOK {
		t.Fatalf("Sync after the escalations: %v", e)
	}
	if err := h.ContractErr(); err != nil {
		t.Errorf("contract: %v", err)
	}

	cfg.RestoreFS, cfg.BootDisk = true, freezeDisk(t, s)
	s2, err := Boot(cfg)
	if err != nil {
		t.Fatalf("restore boot: %v", err)
	}
	h2, err := s2.Init()
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range want {
		if got, e := readAll(h2, path); e != sys.EOK || !bytes.Equal(got, data) {
			t.Errorf("%s across restore: %d bytes %v, want %d", path, len(got), e, len(data))
		}
	}
}

// corruptLiveSnapshot flips one payload byte of the first filesystem
// snapshot on the disk (wherever the layout put it: it is found by its
// header magic), which must be the slot-0 image a first SaveFS writes.
func corruptLiveSnapshot(t *testing.T, d fs.BlockStore) {
	t.Helper()
	const snapshotMagic = 0x76_6e_72_6f_73_66_73_31 // fs/persist.go
	blk := make([]byte, d.BlockSize())
	for i := uint64(0); i+1 < d.NumBlocks(); i++ {
		if err := d.ReadBlock(i, blk); err != nil {
			t.Fatal(err)
		}
		hd := marshal.NewDecoder(blk[:24])
		if magic, slot, length := hd.U64(), hd.U64(), hd.U64(); magic != snapshotMagic || slot != 0 || length == 0 {
			continue
		}
		if err := d.ReadBlock(i+1, blk); err != nil {
			t.Fatal(err)
		}
		blk[0] ^= 0x40
		if err := d.WriteBlock(i+1, blk); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no snapshot header on the disk")
}

// TestRestoreBootReportsRecoveryErrors: a restore boot over a corrupt
// image fails with the image's error instead of coming up with an empty
// root (whose next checkpoint would overwrite the only copy), on every
// durability mode, and so does one onto a disk of another size than the
// image; a disk that was never written is not an error.
func TestRestoreBootReportsRecoveryErrors(t *testing.T) {
	for _, mode := range []struct {
		shards int
		wal    bool
	}{{0, false}, {0, true}, {2, true}} {
		name := fmt.Sprintf("shards=%d wal=%v", mode.shards, mode.wal)
		cfg := wiringConfig(mode.shards, mode.wal)
		s, err := Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if e := writeFile(h, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte('a' + i)}, 700)); e != sys.EOK {
				t.Fatalf("%s: write: %v", name, e)
			}
		}
		if err := s.SaveFS(); err != nil {
			t.Fatalf("%s: SaveFS: %v", name, err)
		}
		img := freezeDisk(t, s)
		cfg.RestoreFS, cfg.BootDisk = true, img
		if _, err := Boot(cfg); err != nil {
			t.Fatalf("%s: restore boot of the intact image: %v", name, err)
		}
		// A disk of another size, either way: both on-disk layouts follow
		// the block count, so the boot fails naming the two geometries
		// rather than finding no commit stamp where it looks and coming up
		// empty (journal), or reading a B-slot snapshot as corrupt.
		for _, blocks := range []uint64{img.NumBlocks() / 2, 2 * img.NumBlocks()} {
			odd := cfg
			odd.DiskBlocks = blocks
			_, err := Boot(odd)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d blocks", blocks)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("%d blocks", img.NumBlocks())) {
				t.Errorf("%s: restore boot of a %d-block image on a %d-block disk: %v, want an error naming both",
					name, img.NumBlocks(), blocks, err)
			}
		}
		corruptLiveSnapshot(t, img)
		if _, err := Boot(cfg); !errors.Is(err, fs.ErrBadImage) {
			t.Errorf("%s: restore boot of a corrupt image: %v, want fs.ErrBadImage", name, err)
		}

		cfg.BootDisk = fs.NewMemBlockStore(img.BlockSize(), img.NumBlocks())
		blank, err := Boot(cfg)
		if err != nil {
			t.Fatalf("%s: restore boot of a never-written disk: %v", name, err)
		}
		hb, err := blank.Init()
		if err != nil {
			t.Fatal(err)
		}
		if ents, e := hb.ReadDir("/"); e != sys.EOK || len(ents) != 0 {
			t.Errorf("%s: never-written disk booted with %v %v", name, ents, e)
		}
	}
}

// TestRawSysOnPinsItsOwnCore: RawSysOn pins the handle to the core it
// was asked for whatever else is placing handlers at the time, and does
// not move the round-robin cursor Run and Init place processes by.
func TestRawSysOnPinsItsOwnCore(t *testing.T) {
	const cores = 4
	s, initSys := bootTest(t, cores) // Init took core 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				want := (g + i) % cores
				h, err := s.pinnedHandler(want) // RawSysOn's kernel half
				if err != nil {
					t.Error(err)
					return
				}
				if h.core != want {
					t.Errorf("RawSysOn(%d) pinned the handler to core %d", want, h.core)
				}
			}
		}(g)
	}
	for k := 1; k <= 12; k++ {
		p, err := s.Run(initSys, "placed", func(*Process) int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if p.Core != k%cores {
			t.Errorf("Run #%d placed on core %d, round-robin wants %d", k, p.Core, k%cores)
		}
	}
	wg.Wait()
	s.WaitAll()
	if _, err := s.RawSysOn(proc.InitPID, cores); err == nil {
		t.Error("RawSysOn accepted a core out of range")
	}
}
