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

	pre := AbstractFDs(tb)
	buf := make([]byte, 5)
	n, err := tb.Read(fd, buf)
	if err != nil {
		t.Fatal(err)
	}
	post := AbstractFDs(tb)
	if err := ReadSpec(pre, post, fd, uint64(len(buf)), buf, n); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "quick" {
		t.Fatalf("buf = %q", buf)
	}
	// Short read at EOF: spec still must hold.
	_, _ = tb.Seek(fd, -3, SeekEnd)
	pre = AbstractFDs(tb)
	buf = make([]byte, 10)
	n, _ = tb.Read(fd, buf)
	post = AbstractFDs(tb)
	if n != 3 {
		t.Fatalf("short read = %d", n)
	}
	if err := ReadSpec(pre, post, fd, 10, buf, n); err != nil {
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
// OAppend descriptor is not repositioned, and WriteSpec rejects a post
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

	for _, d := range []FD{fd, afd} {
		pre := AbstractFDs(tb)
		n, err := tb.Write(d, nil)
		if err != nil || n != 0 {
			t.Fatalf("fd %d: write(nil) = %d, %v", d, n, err)
		}
		post := AbstractFDs(tb)
		if err := WriteSpec(pre, post, d, nil, n); err != nil {
			t.Fatal(err)
		}
		if got := post.Files[d]; got.Size() != 10 || got.Offset != pre.Files[d].Offset {
			t.Fatalf("fd %d: size %d offset %d after a zero-length write", d, got.Size(), got.Offset)
		}
		grown := post.Files[d]
		grown.Contents = PagesOf(make([]byte, 88))
		post.Files[d] = grown
		if err := WriteSpec(pre, post, d, nil, n); err == nil {
			t.Errorf("fd %d: WriteSpec accepted a zero-length write that grew the file", d)
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
	pre := SpecState{Files: map[FD]SpecFile{3: {Contents: PagesOf([]byte("abcdef")), Offset: 2, Locked: true}}}
	post := pre.CloneSpec()
	f := post.Files[3]
	f.Offset = 4
	post.Files[3] = f
	// Correct: read 2 bytes "cd".
	if err := ReadSpec(pre, post, 3, 2, []byte("cd"), 2); err != nil {
		t.Fatal(err)
	}
	// Wrong data.
	if err := ReadSpec(pre, post, 3, 2, []byte("xx"), 2); err == nil {
		t.Error("wrong buffer accepted")
	}
	// Wrong length.
	if err := ReadSpec(pre, post, 3, 2, []byte("cd"), 1); err == nil {
		t.Error("wrong read_len accepted")
	}
	// Unlocked precondition.
	pre2 := pre.CloneSpec()
	f2 := pre2.Files[3]
	f2.Locked = false
	pre2.Files[3] = f2
	if err := ReadSpec(pre2, post, 3, 2, []byte("cd"), 2); err == nil {
		t.Error("unlocked pre accepted")
	}
	// Stale post offset.
	post2 := pre.CloneSpec()
	if err := ReadSpec(pre, post2, 3, 2, []byte("cd"), 2); err == nil {
		t.Error("unadvanced offset accepted")
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
