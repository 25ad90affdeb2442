package sys

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/verifier"
)

func newSysPair(t *testing.T) (*Kernel, *Sys) {
	t.Helper()
	k, s, _ := newSysPairFrames(t)
	return k, s
}

func newSysPairFrames(t *testing.T) (*Kernel, *Sys, *frameBump) {
	t.Helper()
	k, frames := newTestKernelFrames()
	s := NewSys(proc.InitPID, &directHandler{k: k})
	s.EnableContract()
	return k, s, frames
}

func TestFileSyscallFlow(t *testing.T) {
	_, s := newSysPair(t)
	if e := s.Mkdir("/home"); e != EOK {
		t.Fatal(e)
	}
	fd, e := s.Open("/home/notes.txt", fs.OCreate|fs.ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	n, e := s.Write(fd, []byte("hello vnros"))
	if e != EOK || n != 11 {
		t.Fatalf("write = %d, %v", n, e)
	}
	if _, e := s.Seek(fd, 0, fs.SeekSet); e != EOK {
		t.Fatal(e)
	}
	buf := make([]byte, 5)
	n, e = s.Read(fd, buf)
	if e != EOK || n != 5 || string(buf) != "hello" {
		t.Fatalf("read = %d %q %v", n, buf, e)
	}
	st, e := s.Stat("/home/notes.txt")
	if e != EOK || st.Size != 11 || st.Kind != fs.KindFile {
		t.Fatalf("stat = %+v, %v", st, e)
	}
	ents, e := s.ReadDir("/home")
	if e != EOK || len(ents) != 1 || ents[0].Name != "notes.txt" {
		t.Fatalf("readdir = %+v, %v", ents, e)
	}
	if e := s.Close(fd); e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Read(fd, buf); e != EBADF {
		t.Fatalf("read closed fd: %v", e)
	}
	if e := s.ContractErr(); e != nil {
		t.Fatalf("contract violation: %v", e)
	}
}

func TestFileErrnos(t *testing.T) {
	_, s := newSysPair(t)
	if _, e := s.Open("/missing", 0); e != ENOENT {
		t.Errorf("open missing: %v", e)
	}
	if e := s.Mkdir("/d"); e != EOK {
		t.Fatal(e)
	}
	if e := s.Mkdir("/d"); e != EEXIST {
		t.Errorf("mkdir dup: %v", e)
	}
	if e := s.Unlink("/d"); e != EISDIR {
		t.Errorf("unlink dir: %v", e)
	}
	if e := s.Rmdir("/missing"); e != ENOENT {
		t.Errorf("rmdir missing: %v", e)
	}
	if _, e := s.Stat("relative"); e != EINVAL {
		t.Errorf("relative path: %v", e)
	}
}

func TestRenameAndLink(t *testing.T) {
	_, s := newSysPair(t)
	fd, _ := s.Open("/a", fs.OCreate|fs.ORdWr)
	if _, e := s.Write(fd, []byte("x")); e != EOK {
		t.Fatal(e)
	}
	if e := s.Link("/a", "/b"); e != EOK {
		t.Fatal(e)
	}
	if e := s.Rename("/a", "/c"); e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Stat("/a"); e != ENOENT {
		t.Errorf("old name: %v", e)
	}
	st, e := s.Stat("/b")
	if e != EOK || st.Nlink != 2 {
		t.Errorf("link stat = %+v, %v", st, e)
	}
}

func TestProcessSyscalls(t *testing.T) {
	_, s := newSysPair(t)
	pid, e := s.Spawn("child")
	if e != EOK {
		t.Fatal(e)
	}
	child := NewSys(pid, s.h)
	gotPID, e := child.GetPID()
	if e != EOK || gotPID != pid {
		t.Fatalf("getpid = %d, %v", gotPID, e)
	}
	if e := s.Kill(pid, proc.SIGUSR1); e != EOK {
		t.Fatal(e)
	}
	sig, got, e := child.TakeSignal()
	if e != EOK || !got || sig != proc.SIGUSR1 {
		t.Fatalf("take = %v %t %v", sig, got, e)
	}
	if e := child.Exit(7); e != EOK {
		t.Fatal(e)
	}
	res, e := s.Wait()
	if e != EOK || res.PID != pid || res.ExitCode != 7 {
		t.Fatalf("wait = %+v, %v", res, e)
	}
	if _, e := s.Wait(); e != ECHILD {
		t.Errorf("wait with no children: %v", e)
	}
}

func TestKillSIGKILLTearsDown(t *testing.T) {
	k, s, dataFrames := newSysPairFrames(t)
	pid, _ := s.Spawn("victim")
	frames := dataFrames.take(2)
	resp := k.DispatchWrite(WriteOp{Num: NumMMap, PID: pid, Size: 2 * mmu.L1PageSize, Frames: frames})
	if resp.Errno != EOK {
		t.Fatal(resp.Errno)
	}
	if e := s.Kill(pid, proc.SIGKILL); e != EOK {
		t.Fatal(e)
	}
	p, err := k.Procs().Get(pid)
	if err != nil || p.State != proc.StateZombie || p.ExitCode != 128+int(proc.SIGKILL) {
		t.Fatalf("after SIGKILL: %+v, %v", p, err)
	}
	if _, ok := k.Root(pid); ok {
		t.Error("address space survived SIGKILL")
	}
}

func TestMMapThroughSys(t *testing.T) {
	k, s, dataFrames := newSysPairFrames(t)
	pid, _ := s.Spawn("mapper")
	su := NewSys(pid, s.h)
	// Sys.MMap without frames fails EINVAL (core provides frames); the
	// kernel-level path is exercised in the obligations. Here: the
	// direct op with frames.
	if _, e := su.MMap(mmu.L1PageSize); e != EINVAL {
		t.Fatalf("frameless mmap: %v", e)
	}
	frames := dataFrames.take(1)
	resp := k.DispatchWrite(WriteOp{Num: NumMMap, PID: pid, Size: mmu.L1PageSize, Frames: frames})
	if resp.Errno != EOK {
		t.Fatal(resp.Errno)
	}
	base := mmu.VAddr(resp.Val)
	if base < UserVABase {
		t.Fatalf("base = %v", base)
	}
	if e := k.UserWrite(pid, base+42, []byte("mapped")); e != EOK {
		t.Fatal(e)
	}
	got := make([]byte, 6)
	if e := su.MemRead(base+42, got); e != EOK || string(got) != "mapped" {
		t.Fatalf("read back %q, %v", got, e)
	}
	if e := su.MUnmap(base); e != EOK {
		t.Fatal(e)
	}
	if e := su.MemRead(base, got); e != EFAULT {
		t.Fatalf("read after munmap: %v", e)
	}
}

func TestUserMemoryIsolation(t *testing.T) {
	k, s, dataFrames := newSysPairFrames(t)
	p1, _ := s.Spawn("a")
	p2, _ := s.Spawn("b")
	f1 := dataFrames.take(1)
	f2 := dataFrames.take(1)
	r1 := k.DispatchWrite(WriteOp{Num: NumMMap, PID: p1, Size: mmu.L1PageSize, Frames: f1})
	r2 := k.DispatchWrite(WriteOp{Num: NumMMap, PID: p2, Size: mmu.L1PageSize, Frames: f2})
	if r1.Errno != EOK || r2.Errno != EOK {
		t.Fatal(r1.Errno, r2.Errno)
	}
	// Same virtual base in both (first-fit from identical layouts) yet
	// distinct physical frames: writes do not leak across.
	if e := k.UserWrite(p1, mmu.VAddr(r1.Val), []byte("AAAA")); e != EOK {
		t.Fatal(e)
	}
	if e := k.UserWrite(p2, mmu.VAddr(r2.Val), []byte("BBBB")); e != EOK {
		t.Fatal(e)
	}
	b1 := make([]byte, 4)
	b2 := make([]byte, 4)
	if e := k.UserRead(p1, mmu.VAddr(r1.Val), b1); e != EOK {
		t.Fatal(e)
	}
	if e := k.UserRead(p2, mmu.VAddr(r2.Val), b2); e != EOK {
		t.Fatal(e)
	}
	if string(b1) != "AAAA" || string(b2) != "BBBB" {
		t.Fatalf("isolation broken: %q %q", b1, b2)
	}
}

func TestUnknownSyscall(t *testing.T) {
	k, _ := newSysPair(t)
	if r := k.DispatchWrite(WriteOp{Num: 9999}); r.Errno != ENOSYS {
		t.Fatalf("unknown write: %v", r.Errno)
	}
	if r := k.DispatchRead(ReadOp{Num: 9999}); r.Errno != ENOSYS {
		t.Fatalf("unknown read: %v", r.Errno)
	}
}

// TestFsReadAtIntoPageClampsHostileLengths: a NumFsReadAt that lends a
// page reads at most that page, whatever its Len says — 0, 1, 2^31,
// 2^62 or 2^64-1 — at offsets on either side of EOF: the count is at
// most a page and at most what the file holds from the offset, the page
// holds the file's bytes up to the count and nothing is written past it.
func TestFsReadAtIntoPageClampsHostileLengths(t *testing.T) {
	k, s := newSysPair(t)
	const size = mmu.L1PageSize + mmu.L1PageSize/2
	contents := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(contents)
	fd, e := s.Open("/f", fs.OCreate|fs.ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Write(fd, contents); e != EOK {
		t.Fatal(e)
	}
	st, e := s.Stat("/f")
	if e != EOK {
		t.Fatal(e)
	}
	var page [mmu.L1PageSize]byte
	for _, off := range []uint64{0, size - mmu.L1PageSize - 1, size - mmu.L1PageSize, size - 1, size, size + 1, 1 << 63, ^uint64(0)} {
		for _, ln := range []uint64{0, 1, 1 << 31, 1 << 62, ^uint64(0)} {
			for i := range page {
				page[i] = 0xee
			}
			r := k.DispatchRead(ReadOp{Num: NumFsReadAt, Ino: st.Ino, Off: off, Len: ln, Dst: page[:]})
			want := min(ln, mmu.L1PageSize, ClampReadLen(ln, off, size))
			if r.Errno != EOK || r.Val != want || uint64(len(r.Data)) != want {
				t.Errorf("off %d, Len %d: errno=%v n=%d (%d bytes of data), want %d", off, ln, r.Errno, r.Val, len(r.Data), want)
				continue
			}
			if want > 0 && !bytes.Equal(page[:want], contents[off:off+want]) {
				t.Errorf("off %d, Len %d: the page's bytes diverge from the file's", off, ln)
			}
			if !bytes.Equal(page[want:], bytes.Repeat([]byte{0xee}, int(mmu.L1PageSize-want))) {
				t.Errorf("off %d, Len %d: the read wrote past its count %d", off, ln, want)
			}
		}
	}
}

func TestTruncateThroughSys(t *testing.T) {
	_, s := newSysPair(t)
	fd, _ := s.Open("/t", fs.OCreate|fs.ORdWr)
	if _, e := s.Write(fd, bytes.Repeat([]byte("x"), 100)); e != EOK {
		t.Fatal(e)
	}
	if e := s.Truncate(fd, 10); e != EOK {
		t.Fatal(e)
	}
	st, _ := s.Stat("/t")
	if st.Size != 10 {
		t.Fatalf("size = %d", st.Size)
	}
}

// TestFsRunCursorOverflowIsEFBIG: the owner shard's data ops take the
// cursor and the size from the op. The router only sends what a
// descriptor holds, but the apply must not depend on that: a cursor so
// large that cursor+len wraps, as a single entry and inside a run, and
// an out-of-range NumFsTruncate, are EFBIG with the cursor where it was.
func TestFsRunCursorOverflowIsEFBIG(t *testing.T) {
	k := newTestKernel()
	ino, err := k.FS().Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	const cur = ^uint64(0) - 1
	run := WriteOp{Num: NumFsRun, Ino: ino, Flags: fs.ORdWr, Size: cur}
	one := run
	one.Code, one.Data = int(NumWrite), []byte("xyz")
	if r := k.DispatchWrite(one); r.Errno != EFBIG || r.Off != cur {
		t.Errorf("single-entry run: %v, cursor %#x; want EFBIG at %#x", r.Errno, r.Off, cur)
	}
	run.Run = &FsRun{
		{Num: NumWrite, Data: []byte("xyz")},
		{Num: NumSeek, Off: 0, Whence: fs.SeekSet},
		{Num: NumWrite, Data: []byte("ok")},
	}
	r := k.DispatchWrite(run)
	if r.Errno != EOK || len(r.Run) != 3 || r.Run[0].Errno != EFBIG || r.Run[2].Errno != EOK || r.Off != 2 {
		t.Errorf("run: %v, results %+v, cursor %d", r.Errno, r.Run, r.Off)
	}
	if r := k.DispatchWrite(WriteOp{Num: NumFsTruncate, Ino: ino, Len: ^uint64(0)}); r.Errno != EFBIG {
		t.Errorf("fs_truncate to 2^64-1: %v, want EFBIG", r.Errno)
	}
	if st, _ := k.FS().StatIno(ino); st.Size != 2 {
		t.Errorf("size %d after the refused ops, want 2", st.Size)
	}
}

func TestErrnoStrings(t *testing.T) {
	if EOK.String() != "OK" || ENOENT.String() != "ENOENT" || EFBIG.String() != "EFBIG" {
		t.Fatal("errno strings broken")
	}
	if Errno(77).String() != "errno(77)" {
		t.Fatalf("unknown errno = %q", Errno(77).String())
	}
	if ENOENT.Error() == "" {
		t.Fatal("Error() empty")
	}
}

// TestObligationsAllPass discharges module sys on four verifier workers,
// a few times over. The mmap VCs used to bump a package-level map keyed
// by kernel from their checks — a concurrent map write as soon as two of
// them land on different workers — so CI also runs this under -race.
func TestObligationsAllPass(t *testing.T) {
	for seed := int64(61); seed < 69; seed++ {
		g := &verifier.Registry{}
		RegisterObligations(g)
		rep := g.Run(verifier.Options{Seed: seed, Jobs: 4})
		for _, f := range rep.Failed() {
			t.Errorf("seed %d: VC %s failed: %v", seed, f.Obligation.ID(), f.Err)
		}
	}
}

// TestEncodersArePresized: a request or a reply is one allocation of
// exactly its encoded size, whatever it carries — the size arithmetic in
// writeTail and EncodeResp must track the field lists, the write
// tail's presence mask included — and a reply of nothing but errno and
// value is no allocation at all.
func TestEncodersArePresized(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		resp := randomResp(r)
		if _, out := EncodeResp(resp); len(out) != cap(out) {
			t.Fatalf("EncodeResp: %d bytes in a buffer of %d (%d data, %d entries, %d freed)",
				len(out), cap(out), len(resp.Data), len(resp.Entries), len(resp.Freed))
		}
		if _, out := EncodeRead(ReadOp{Num: NumStat, Path: randPath(r), Off: r.Uint64()}); len(out) != cap(out) {
			t.Fatalf("EncodeRead: %d bytes in a buffer of %d", len(out), cap(out))
		}
		op := randomWriteOp(r)
		if _, out := EncodeWrite(op); len(out) != cap(out) {
			m, size := writeTail(&op)
			t.Fatalf("EncodeWrite: %d bytes in a buffer of %d (mask %#x, size %d)", len(out), cap(out), m, size)
		}
		ops := []WriteOp{op, randomWriteOp(r), {Num: NumSync}}
		if _, out := EncodeBatch(1, ops); len(out) != cap(out) {
			t.Fatalf("EncodeBatch: %d bytes in a buffer of %d", len(out), cap(out))
		}
	}
	if n := testing.AllocsPerRun(100, func() { EncodeResp(Resp{Errno: EOK, Val: 7}) }); n != 0 {
		t.Errorf("a data-less reply takes %.0f allocations, want none: it is the register frame alone", n)
	}
	seek := WriteOp{Num: NumSeek, PID: 1, FD: 3, Off: 4096}
	if _, out := EncodeWrite(seek); len(out) != 12 {
		t.Errorf("a seek's request is %d bytes, want 12: the mask and its offset", len(out))
	}
}

// TestWriteOpDoesNotGrow: every slot of every NR log embeds a WriteOp and
// every logged op is copied into one — and out again at each replica — so
// a field in a word of its own is paid for on every append. (It is no
// longer paid in boot memory to speak of: a log is 2 048 slots, sized to
// one combiner pass, where it was 65 536; core.TestBootAllocationBudget
// pins that.) The same holds for a Resp, which every slot answers into.
// New sub-word fields go beside Port/Witness/Sig/Word; anything larger
// goes behind a pointer, as Run does.
func TestWriteOpDoesNotGrow(t *testing.T) {
	for _, c := range []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		{"WriteOp", unsafe.Sizeof(WriteOp{}), 224},
		{"Resp", unsafe.Sizeof(Resp{}), 352},
	} {
		if c.size > c.budget {
			t.Errorf("sys.%s is %d bytes, budget %d", c.name, c.size, c.budget)
		}
	}
}
