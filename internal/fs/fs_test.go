package fs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/verifier"
)

func TestCreateLookupUnlink(t *testing.T) {
	f := New()
	ino, err := f.Create("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Lookup("/hello.txt")
	if err != nil || got != ino {
		t.Fatalf("Lookup = %d, %v", got, err)
	}
	if _, err := f.Create("/hello.txt"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := f.Unlink("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup("/hello.txt"); !errors.Is(err, ErrNotExist) {
		t.Errorf("lookup after unlink: %v", err)
	}
	if f.NumInodes() != 1 {
		t.Errorf("inodes = %d, want 1 (root)", f.NumInodes())
	}
}

func TestMkdirTree(t *testing.T) {
	f := New()
	if _, err := f.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("/a/b/c.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mkdir("/missing/x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("mkdir under missing: %v", err)
	}
	if _, err := f.Create("/a/b/c.txt/d"); !errors.Is(err, ErrNotDir) {
		t.Errorf("create under file: %v", err)
	}
	st, err := f.StatPath("/a/b")
	if err != nil || st.Kind != KindDir {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPathNormalization(t *testing.T) {
	f := New()
	if _, err := f.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	ino, err := f.Create("/a/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/f", "//a//f", "/a/./f", "/a/b/../f", "/../a/f"} {
		got, err := f.Lookup(p)
		if err != nil || got != ino {
			t.Errorf("Lookup(%q) = %d, %v", p, got, err)
		}
	}
	if _, err := f.Lookup("relative"); !errors.Is(err, ErrInval) {
		t.Errorf("relative path: %v", err)
	}
}

// TestSplitPathAllocatesOnce: every path lookup splits its path, so the
// split is one presized slice, not a split list and a grown result.
func TestSplitPathAllocatesOnce(t *testing.T) {
	for _, p := range []string{"/", "/a", "/a/b/c/d", "//a/./b/../c//"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = SplitPath(p) }); n != 1 {
			t.Errorf("SplitPath(%q) allocates %.0f times, want 1", p, n)
		}
	}
}

func TestRmdir(t *testing.T) {
	f := New()
	if _, err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("rmdir non-empty: %v", err)
	}
	if err := f.Unlink("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("unlink dir: %v", err)
	}
	if err := f.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestHardLinks(t *testing.T) {
	f := New()
	ino, err := f.Create("/orig")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ino, 0, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := f.Link("/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	st, _ := f.StatPath("/alias")
	if st.Ino != ino || st.Nlink != 2 {
		t.Fatalf("alias stat = %+v", st)
	}
	if err := f.Unlink("/orig"); err != nil {
		t.Fatal(err)
	}
	// Data still reachable through the alias.
	buf := make([]byte, 6)
	if _, err := f.ReadAt(ino, 0, buf); err != nil || string(buf) != "shared" {
		t.Fatalf("read after unlink = %q, %v", buf, err)
	}
	if err := f.Unlink("/alias"); err != nil {
		t.Fatal(err)
	}
	if f.NumInodes() != 1 {
		t.Errorf("inode leaked: %d", f.NumInodes())
	}
}

func TestRename(t *testing.T) {
	f := New()
	if _, err := f.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup("/a"); !errors.Is(err, ErrNotExist) {
		t.Error("old name survived rename")
	}
	if _, err := f.Lookup("/d/b"); err != nil {
		t.Error("new name missing")
	}
	// Replacing an existing file.
	ino, _ := f.Create("/victim")
	_, _ = f.WriteAt(ino, 0, []byte("bye"))
	if err := f.Rename("/d/b", "/victim"); err != nil {
		t.Fatal(err)
	}
	if f.NumInodes() != 3 { // root, /d, the renamed file
		t.Errorf("inodes = %d", f.NumInodes())
	}
	// Directory cycle rejected.
	if _, err := f.Mkdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/d", "/d/sub/evil"); !errors.Is(err, ErrInval) {
		t.Errorf("cycle rename: %v", err)
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteAt(t *testing.T) {
	f := New()
	ino, _ := f.Create("/f")
	if _, err := f.WriteAt(ino, 5, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	st, _ := f.StatIno(ino)
	if st.Size != 8 {
		t.Fatalf("size = %d", st.Size)
	}
	buf := make([]byte, 8)
	n, err := f.ReadAt(ino, 0, buf)
	if err != nil || n != 8 {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0, 0, 'a', 'b', 'c'}) {
		t.Fatalf("sparse gap not zero-filled: %v", buf)
	}
	if n, _ := f.ReadAt(ino, 100, buf); n != 0 {
		t.Errorf("read past EOF = %d", n)
	}
	if err := f.Truncate(ino, 2); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.StatIno(ino); st.Size != 2 {
		t.Errorf("size after truncate = %d", st.Size)
	}
	if err := f.Truncate(ino, 10); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 10)
	_, _ = f.ReadAt(ino, 0, buf)
	for i := 2; i < 10; i++ {
		if buf[i] != 0 {
			t.Fatalf("truncate-extend byte %d = %#x", i, buf[i])
		}
	}
}

func TestReadDirSorted(t *testing.T) {
	f := New()
	for _, name := range []string{"/zeta", "/alpha", "/mid"} {
		if _, err := f.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := f.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "alpha" || ents[2].Name != "zeta" {
		t.Fatalf("entries = %+v", ents)
	}
	if _, err := f.ReadDir("/alpha"); !errors.Is(err, ErrNotDir) {
		t.Errorf("readdir of file: %v", err)
	}
}

func TestFDLifecycle(t *testing.T) {
	tb := NewFDTable(New())
	fd, err := tb.Open("/f", OCreate|ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Lock(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Write(fd, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Seek(fd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	n, err := tb.Read(fd, buf)
	if err != nil || n != 5 || string(buf) != "hello" {
		t.Fatalf("read = %d %q %v", n, buf, err)
	}
	if err := tb.Unlock(fd); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Errorf("double close: %v", err)
	}
}

func TestFDModes(t *testing.T) {
	tb := NewFDTable(New())
	ro, err := tb.Open("/f", OCreate)
	if err != nil {
		t.Fatal(err)
	}
	_ = tb.Lock(ro)
	if _, err := tb.Write(ro, []byte("x")); !errors.Is(err, ErrPermission) {
		t.Errorf("write on ro fd: %v", err)
	}
	wo, _ := tb.Open("/f", OWrOnly)
	_ = tb.Lock(wo)
	if _, err := tb.Read(wo, make([]byte, 1)); !errors.Is(err, ErrPermission) {
		t.Errorf("read on wo fd: %v", err)
	}
	// Append mode always writes at EOF.
	ap, _ := tb.Open("/f", OWrOnly|OAppend)
	_ = tb.Lock(ap)
	if _, err := tb.Write(ap, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Write(ap, []byte("def")); err != nil {
		t.Fatal(err)
	}
	st, _ := tb.FS().StatPath("/f")
	if st.Size != 6 {
		t.Fatalf("append size = %d", st.Size)
	}
}

func TestReadSpecHoldsOnImplementation(t *testing.T) {
	tb := NewFDTable(New())
	fd, _ := tb.Open("/f", OCreate|ORdWr)
	_ = tb.Lock(fd)
	_, _ = tb.Write(fd, []byte("The quick brown fox"))
	_, _ = tb.Seek(fd, 4, SeekSet)

	pre := AbstractFDs(tb).Files[fd]
	buf := make([]byte, 5)
	n, err := tb.Read(fd, buf)
	if err != nil {
		t.Fatal(err)
	}
	read := StepOp{Kind: StepRead, Len: uint64(len(buf))}
	if err := StepHolds(pre, read, true, n, buf[:n], AbstractFDs(tb).Files[fd]); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "quick" {
		t.Fatalf("buf = %q", buf)
	}
	// Short read at EOF: spec still must hold.
	_, _ = tb.Seek(fd, -3, SeekEnd)
	pre = AbstractFDs(tb).Files[fd]
	buf = make([]byte, 10)
	n, _ = tb.Read(fd, buf)
	if n != 3 {
		t.Fatalf("short read = %d", n)
	}
	read.Len = 10
	if err := StepHolds(pre, read, true, n, buf[:n], AbstractFDs(tb).Files[fd]); err != nil {
		t.Fatal(err)
	}
}

// sinkCounter counts journal records and invalidations.
type sinkCounter struct{ records, invals int }

func (c *sinkCounter) Record(Mutation)                     { c.records++ }
func (c *sinkCounter) InvalidateRange(Ino, uint64, uint64) { c.invals++ }
func (c *sinkCounter) InvalidateIno(Ino)                   { c.invals++ }

// A zero-length write past EOF is a no-op (POSIX write(2)): the file
// does not grow to the offset, nothing is journaled or invalidated, an
// OAppend descriptor is not repositioned, and StepHolds rejects a post
// state that grew.
func TestZeroLengthWriteIsNoOp(t *testing.T) {
	f := New()
	tb := NewFDTable(f)
	fd, _ := tb.Open("/f", OCreate|ORdWr)
	_ = tb.Lock(fd)
	_, _ = tb.Write(fd, []byte("0123456789"))
	_, _ = tb.Seek(fd, 88, SeekSet)
	afd, _ := tb.Open("/f", OWrOnly|OAppend)
	_ = tb.Lock(afd)
	var sink sinkCounter
	f.SetJournal(&sink)
	f.SetInvalidator(&sink)

	write := StepOp{Kind: StepWrite}
	for _, d := range []FD{fd, afd} {
		pre := AbstractFDs(tb).Files[d]
		n, err := tb.Write(d, nil)
		if err != nil || n != 0 {
			t.Fatalf("fd %d: write(nil) = %d, %v", d, n, err)
		}
		post := AbstractFDs(tb).Files[d]
		if err := StepHolds(pre, write, true, n, nil, post); err != nil {
			t.Fatal(err)
		}
		if post.Size() != 10 || post.Offset != pre.Offset {
			t.Fatalf("fd %d: size %d offset %d after a zero-length write", d, post.Size(), post.Offset)
		}
		grown := post
		grown.Contents = PagesOf(make([]byte, 88))
		if err := StepHolds(pre, write, true, n, nil, grown); err == nil {
			t.Errorf("fd %d: StepHolds accepted a zero-length write that grew the file", d)
		}
	}
	if sink.records != 0 || sink.invals != 0 {
		t.Fatalf("zero-length writes journaled %d records, invalidated %d times", sink.records, sink.invals)
	}
	_, _ = tb.Seek(fd, 34, SeekSet)
	if n, _ := tb.Read(fd, make([]byte, 25)); n != 0 {
		t.Fatalf("read at 34 of a 10-byte file = %d bytes, want EOF", n)
	}
}

func TestReadSpecRejectsWrongBehavior(t *testing.T) {
	pre := SpecFile{Contents: PagesOf([]byte("abcdef")), Offset: 2, Locked: true}
	post := pre
	post.Offset = 4
	read := StepOp{Kind: StepRead, Len: 2}
	// Correct: read 2 bytes "cd".
	if err := StepHolds(pre, read, true, 2, []byte("cd"), post); err != nil {
		t.Fatal(err)
	}
	// Wrong data.
	if err := StepHolds(pre, read, true, 2, []byte("xx"), post); err == nil {
		t.Error("wrong buffer accepted")
	}
	// Wrong length.
	if err := StepHolds(pre, read, true, 1, []byte("cd"), post); err == nil {
		t.Error("wrong read_len accepted")
	}
	// Unlocked precondition.
	unlocked := pre
	unlocked.Locked = false
	if err := StepHolds(unlocked, read, true, 2, []byte("cd"), post); err == nil {
		t.Error("unlocked pre accepted")
	}
	// Stale post offset.
	if err := StepHolds(pre, read, true, 2, []byte("cd"), pre); err == nil {
		t.Error("unadvanced offset accepted")
	}
}

// TestStepEdgeCases runs each edge of the descriptor transition three
// ways: Step must give the expected value and cursor (or refuse), the
// implementation's transition from the same state must satisfy
// StepHolds (and refuse what Step refuses), and StepHolds must reject a
// wrong report or post state next to it. Every case starts from the
// 6-byte file "abcdef" with the cursor at off.
func TestStepEdgeCases(t *testing.T) {
	const maxOff = 1<<63 - 1
	for _, c := range []struct {
		name      string
		append    bool
		off       uint64
		op        StepOp
		val, next uint64
		refused   bool
	}{
		{name: "read inside", off: 2, op: StepOp{Kind: StepRead, Len: 2}, val: 2, next: 4},
		{name: "short read", off: 4, op: StepOp{Kind: StepRead, Len: 10}, val: 2, next: 6},
		{name: "read at EOF", off: 6, op: StepOp{Kind: StepRead, Len: 4}, val: 0, next: 6},
		{name: "read past EOF", off: 34, op: StepOp{Kind: StepRead, Len: 25}, val: 0, next: 34},
		{name: "write inside", off: 1, op: StepOp{Kind: StepWrite, Data: []byte("XY")}, val: 2, next: 3},
		{name: "write past EOF", off: 9, op: StepOp{Kind: StepWrite, Data: []byte("Z")}, val: 1, next: 10},
		{name: "append write", append: true, off: 2, op: StepOp{Kind: StepWrite, Data: []byte("gh")}, val: 2, next: 8},
		{name: "zero-length write past EOF", off: 88, op: StepOp{Kind: StepWrite}, val: 0, next: 88},
		{name: "zero-length append write past EOF", append: true, off: 88, op: StepOp{Kind: StepWrite}, val: 0, next: 88},
		{name: "SeekEnd back", off: 1, op: StepOp{Kind: StepSeek, Off: -2, Whence: SeekEnd}, val: 4, next: 4},
		{name: "SeekEnd before the start", off: 1, op: StepOp{Kind: StepSeek, Off: -7, Whence: SeekEnd}, refused: true},
		{name: "SeekCur forward", off: 3, op: StepOp{Kind: StepSeek, Off: 5, Whence: SeekCur}, val: 8, next: 8},
		{name: "SeekCur to 2^63", off: 1, op: StepOp{Kind: StepSeek, Off: maxOff, Whence: SeekCur}, refused: true},
		{name: "SeekCur past 2^63", off: 6, op: StepOp{Kind: StepSeek, Off: maxOff, Whence: SeekCur}, refused: true},
		{name: "SeekSet negative", off: 3, op: StepOp{Kind: StepSeek, Off: -1}, refused: true},
		{name: "bad whence", off: 3, op: StepOp{Kind: StepSeek, Whence: 3}, refused: true},
		{name: "pread inside", off: 5, op: StepOp{Kind: StepPread, Off: 1, Len: 3}, val: 3, next: 5},
		{name: "pread past EOF", off: 5, op: StepOp{Kind: StepPread, Off: 9, Len: 3}, val: 0, next: 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := New()
			tb := NewFDTable(f)
			flags := OCreate | ORdWr
			if c.append {
				flags |= OAppend
			}
			fd, _ := tb.Open("/f", flags)
			_ = tb.Lock(fd)
			_, _ = tb.Write(fd, []byte("abcdef"))
			if _, err := tb.Seek(fd, int64(c.off), SeekSet); err != nil {
				t.Fatal(err)
			}
			var sink sinkCounter
			f.SetJournal(&sink)
			f.SetInvalidator(&sink)
			pre := AbstractFDs(tb).Files[fd]

			val, _, next, err := pre.Step(c.op)
			if (err != nil) != c.refused || err == nil && (val != c.val || next != c.next) {
				t.Fatalf("Step = %d, cursor %d, %v; want %d, cursor %d, refused %v", val, next, err, c.val, c.next, c.refused)
			}

			var got []byte
			switch c.op.Kind {
			case StepRead:
				got = make([]byte, c.op.Len)
				val, err = tb.Read(fd, got)
				got = got[:val]
			case StepWrite:
				val, err = tb.Write(fd, c.op.Data)
			case StepSeek:
				val, err = tb.Seek(fd, c.op.Off, c.op.Whence)
			case StepPread:
				of, _ := tb.Get(fd)
				got = make([]byte, c.op.Len)
				var n int
				n, err = f.ReadAt(of.Ino, uint64(c.op.Off), got)
				val, got = uint64(n), got[:n]
			}
			if (err != nil) != c.refused {
				t.Fatalf("implementation: %d, %v; want refused %v", val, err, c.refused)
			}
			post := AbstractFDs(tb).Files[fd]
			if err := StepHolds(pre, c.op, !c.refused, val, got, post); err != nil {
				t.Fatalf("implementation: %v", err)
			}
			if len(c.op.Data) == 0 && (sink.records != 0 || sink.invals != 0) {
				t.Fatalf("journaled %d records, invalidated %d times", sink.records, sink.invals)
			}

			// Each of these must be rejected.
			moved, grown := post, post
			moved.Offset++
			grown.Contents = PagesOf(append(post.Contents.Bytes(), 0))
			wrong := map[string]error{
				"moved cursor":  StepHolds(pre, c.op, !c.refused, val, got, moved),
				"grown file":    StepHolds(pre, c.op, !c.refused, val, got, grown),
				"success claim": StepHolds(pre, c.op, true, val+1, got, post),
			}
			if len(got) > 0 {
				bad := append([]byte(nil), got...)
				bad[0] ^= 0xff
				wrong["wrong bytes"] = StepHolds(pre, c.op, true, val, bad, post)
				wrong["short delivery"] = StepHolds(pre, c.op, true, val, got[1:], post)
			}
			if k := c.op.Kind; k == StepRead || k == StepWrite {
				unlocked := pre
				unlocked.Locked = false
				wrong["unlocked pre"] = StepHolds(unlocked, c.op, true, val, got, post)
			}
			for what, err := range wrong {
				if err == nil {
					t.Errorf("%s accepted", what)
				}
			}
		})
	}
}

func TestPersistRoundTrip(t *testing.T) {
	f := randomFS(rand.New(rand.NewSource(3)), 150)
	d := NewMemBlockStore(512, 65536)
	if err := Save(f, d); err != nil {
		t.Fatal(err)
	}
	g, err := Load(d)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(f, g) {
		t.Fatal("round trip mismatch")
	}
	if err := g.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistAlternatesSlots(t *testing.T) {
	d := NewMemBlockStore(512, 65536)
	f1 := New()
	if _, err := f1.Create("/gen1"); err != nil {
		t.Fatal(err)
	}
	if err := Save(f1, d); err != nil {
		t.Fatal(err)
	}
	f2 := New()
	if _, err := f2.Create("/gen2"); err != nil {
		t.Fatal(err)
	}
	if err := Save(f2, d); err != nil {
		t.Fatal(err)
	}
	got, err := Load(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Lookup("/gen2"); err != nil {
		t.Fatal("latest snapshot not loaded")
	}
	h, err := readHeader(d)
	if err != nil || h.slot != 1 {
		t.Fatalf("second save should land in slot 1: %+v, %v", h, err)
	}
}

func TestLoadEmptyDevice(t *testing.T) {
	d := NewMemBlockStore(512, 128)
	if _, err := Load(d); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v", err)
	}
}

func TestSaveTooBig(t *testing.T) {
	f := New()
	ino, _ := f.Create("/big")
	if _, err := f.WriteAt(ino, 0, make([]byte, 200_000)); err != nil {
		t.Fatal(err)
	}
	d := NewMemBlockStore(512, 64)
	if err := Save(f, d); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v", err)
	}
}

// Property: WriteAt then ReadAt at the same offset round-trips.
func TestQuickWriteReadAt(t *testing.T) {
	f := New()
	ino, _ := f.Create("/q")
	prop := func(off uint16, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		if _, err := f.WriteAt(ino, uint64(off), data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		n, err := f.ReadAt(ino, uint64(off), got)
		return err == nil && n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 17})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
