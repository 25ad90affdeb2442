package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/verifier"
)

func TestAlignmentHelpers(t *testing.T) {
	cases := []struct {
		addr      PAddr
		base      PAddr
		off       uint64
		pageAlign bool
		wordAlign bool
	}{
		{0, 0, 0, true, true},
		{1, 0, 1, false, false},
		{8, 0, 8, false, true},
		{4095, 0, 4095, false, false},
		{4096, 4096, 0, true, true},
		{0x12345, 0x12000, 0x345, false, false},
	}
	for _, c := range cases {
		if got := c.addr.FrameBase(); got != c.base {
			t.Errorf("FrameBase(%v) = %v, want %v", c.addr, got, c.base)
		}
		if got := c.addr.FrameOffset(); got != c.off {
			t.Errorf("FrameOffset(%v) = %d, want %d", c.addr, got, c.off)
		}
		if got := c.addr.IsPageAligned(); got != c.pageAlign {
			t.Errorf("IsPageAligned(%v) = %v, want %v", c.addr, got, c.pageAlign)
		}
		if got := c.addr.IsWordAligned(); got != c.wordAlign {
			t.Errorf("IsWordAligned(%v) = %v, want %v", c.addr, got, c.wordAlign)
		}
	}
}

func TestReadsAsZeroBeforeWrite(t *testing.T) {
	m := New(1 << 20)
	v, err := m.Read64(0x1000)
	if err != nil {
		t.Fatalf("Read64: %v", err)
	}
	if v != 0 {
		t.Fatalf("untouched memory read %#x, want 0", v)
	}
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xff
	}
	if err := m.Read(0x2fff, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWrite64ReadBack(t *testing.T) {
	m := New(1 << 20)
	if err := m.Write64(0x3008, 0xdeadbeefcafef00d); err != nil {
		t.Fatalf("Write64: %v", err)
	}
	v, err := m.Read64(0x3008)
	if err != nil {
		t.Fatalf("Read64: %v", err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Fatalf("read back %#x", v)
	}
	// Little-endian byte view.
	b := make([]byte, 8)
	if err := m.Read(0x3008, b); err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := []byte{0x0d, 0xf0, 0xfe, 0xca, 0xef, 0xbe, 0xad, 0xde}
	if !bytes.Equal(b, want) {
		t.Fatalf("bytes = %x, want %x", b, want)
	}
}

func TestUnalignedAccessRejected(t *testing.T) {
	m := New(1 << 20)
	if _, err := m.Read64(3); err == nil {
		t.Error("unaligned Read64 succeeded")
	}
	if err := m.Write64(4, 1); err == nil {
		t.Error("word write at 4-byte alignment succeeded (must be 8)")
	}
	var ae *AccessError
	_, err := m.Read64(1)
	if !errors.As(err, &ae) {
		t.Fatalf("error type = %T, want *AccessError", err)
	}
	if ae.Reason != "unaligned" {
		t.Errorf("reason = %q", ae.Reason)
	}
	if _, err := m.CompareAndSwap64(4, 0, 1); !errors.As(err, &ae) {
		t.Errorf("CompareAndSwap64 at 4-byte alignment: %v, want *AccessError", err)
	}
	var words [FrameWords]uint64
	if _, err := m.ReadFrame(PageSize+8, &words); !errors.As(err, &ae) {
		t.Errorf("ReadFrame at a word inside a frame: %v, want *AccessError", err)
	}
}

func TestOutOfBoundsRejected(t *testing.T) {
	m := New(1 << 16) // 64 KiB
	if err := m.Write64(1<<16, 1); err == nil {
		t.Error("write past end succeeded")
	}
	if err := m.Write64((1<<16)-8, 1); err != nil {
		t.Errorf("last word write failed: %v", err)
	}
	if _, err := m.CompareAndSwap64(1<<16, 0, 1); err == nil {
		t.Error("compare-and-swap past end succeeded")
	}
	var words [FrameWords]uint64
	if _, err := m.ReadFrame(1<<16, &words); err == nil {
		t.Error("frame read past end succeeded")
	}
	if touched, err := m.ReadFrame((1<<16)-PageSize, &words); err != nil || !touched || words[FrameWords-1] != 1 {
		t.Errorf("last frame: touched=%t, last word %#x, %v", touched, words[FrameWords-1], err)
	}
	// Overflowing length.
	if err := m.Read((1<<16)-4, make([]byte, 8)); err == nil {
		t.Error("read straddling end succeeded")
	}
	// Address wraparound.
	if err := m.Read(PAddr(^uint64(0))-4, make([]byte, 16)); err == nil {
		t.Error("wraparound read succeeded")
	}
}

// A Read or Write that spans frames is atomic per frame, not as a whole:
// it takes each frame's stripe lock in turn. Single-threaded, the round
// trip is exact either way.
func TestCrossFrameReadWrite(t *testing.T) {
	m := New(1 << 20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	// Start mid-frame so the write straddles four frames.
	start := PAddr(PageSize/2 + PageSize)
	if err := m.Write(start, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := m.Read(start, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-frame round trip mismatch")
	}
}

func TestZeroFrame(t *testing.T) {
	m := New(1 << 20)
	if err := m.Write64(0x5000, 42); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(0x5000); err != nil {
		t.Fatalf("ZeroFrame: %v", err)
	}
	v, err := m.Read64(0x5000)
	if err != nil || v != 0 {
		t.Fatalf("after ZeroFrame read %#x, err %v", v, err)
	}
	if err := m.ZeroFrame(0x5004); err == nil {
		t.Error("unaligned ZeroFrame succeeded")
	}
	if m.TouchedFrames() != 0 {
		t.Errorf("TouchedFrames = %d, want 0 (zeroed frame should be reclaimed)", m.TouchedFrames())
	}
}

func TestStatsCount(t *testing.T) {
	m := New(1 << 20)
	before := m.Stats()
	_ = m.Write64(0, 7)
	_, _ = m.Read64(0)
	_, _ = m.Read64(8)
	after := m.Stats()
	if after.Writes-before.Writes != 1 {
		t.Errorf("writes delta = %d, want 1", after.Writes-before.Writes)
	}
	if after.Reads-before.Reads != 2 {
		t.Errorf("reads delta = %d, want 2", after.Reads-before.Reads)
	}
	// A frame read is one access, like a bulk Read: not 512.
	var words [FrameWords]uint64
	_, _ = m.ReadFrame(0, &words)
	if got := m.Stats(); got.Reads != after.Reads+1 || got.Writes != after.Writes {
		t.Errorf("a frame read counted %d reads, %d writes; want 1, 0", got.Reads-after.Reads, got.Writes-after.Writes)
	}
}

func TestCompareAndSwap64(t *testing.T) {
	m := New(1 << 20)
	const a = PAddr(0x3008)
	// Untouched RAM holds zero, so a swap from zero wins.
	if ok, err := m.CompareAndSwap64(a, 0, 7); err != nil || !ok {
		t.Fatalf("swap 0 -> 7 on untouched RAM: %t, %v", ok, err)
	}
	before := m.Stats()
	if ok, err := m.CompareAndSwap64(a, 0, 9); err != nil || ok {
		t.Fatalf("swap with a stale old value: %t, %v", ok, err)
	}
	if got := m.Stats(); got.Writes != before.Writes {
		t.Errorf("a lost swap counted %d writes", got.Writes-before.Writes)
	}
	if v, _ := m.Read64(a); v != 7 {
		t.Fatalf("a lost swap stored: word reads %d, want 7", v)
	}
	if ok, err := m.CompareAndSwap64(a, 7, 9); err != nil || !ok {
		t.Fatalf("swap 7 -> 9: %t, %v", ok, err)
	}
	if v, _ := m.Read64(a); v != 9 {
		t.Fatalf("word reads %d after a won swap, want 9", v)
	}
	if v, _ := m.Read64(a + 8); v != 0 {
		t.Errorf("the neighbouring word reads %d", v)
	}
}

// A frame read is one snapshot of the frame. The writer rewrites a table
// in slot order, round after round, storing the round number in every
// slot; a snapshot taken at any moment is then a prefix of round k+1 over
// the rest of round k: non-increasing in slot order and at most two
// consecutive rounds. 512 independent word reads guarantee neither. Run
// with -race -cpu 2.
func TestReadFrameIsOneSnapshot(t *testing.T) {
	m := New(1 << 20)
	const table = PAddr(0x7000)
	const rounds = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(1); k <= rounds; k++ {
			for slot := PAddr(0); slot < FrameWords; slot++ {
				if err := m.Write64(table+slot*WordSize, k); err != nil {
					t.Errorf("Write64: %v", err)
					return
				}
			}
		}
	}()
	scans, mixed := 0, 0
	for running := true; running; scans++ {
		select {
		case <-done:
			running = false // one more scan, of the finished table
		default:
		}
		var words [FrameWords]uint64
		if _, err := m.ReadFrame(table, &words); err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		for i := 1; i < FrameWords; i++ {
			if words[i] > words[i-1] {
				t.Fatalf("scan %d: slot %d holds round %d after slot %d's round %d: not a snapshot",
					scans, i, words[i], i-1, words[i-1])
			}
		}
		if words[0]-words[FrameWords-1] > 1 {
			t.Fatalf("scan %d spans rounds %d..%d", scans, words[FrameWords-1], words[0])
		}
		if words[0] != words[FrameWords-1] {
			mixed++
		}
		if !running && words[FrameWords-1] != rounds {
			t.Fatalf("the finished table reads round %d in its last slot, want %d", words[FrameWords-1], rounds)
		}
	}
	t.Logf("%d scans, %d of them across a round boundary", scans, mixed)
}

func TestSizeRounding(t *testing.T) {
	m := New(PageSize + 1)
	if m.Size() != 2*PageSize {
		t.Errorf("Size = %d, want %d", m.Size(), 2*PageSize)
	}
}

// Property: any word written at any aligned in-bounds address reads back
// identically, and neighbours are unaffected.
func TestQuickWordRoundTrip(t *testing.T) {
	m := New(1 << 24) // 16 MiB
	f := func(slot uint32, v, sentinel uint64) bool {
		addr := PAddr(slot%((1<<24)/8-2)+1) * 8
		if err := m.Write64(addr-8, sentinel); err != nil {
			return false
		}
		if err := m.Write64(addr, v); err != nil {
			return false
		}
		got, err := m.Read64(addr)
		if err != nil || got != v {
			return false
		}
		prev, err := m.Read64(addr - 8)
		return err == nil && prev == sentinel
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: byte-level Write/Read round-trips arbitrary payloads at
// arbitrary in-bounds offsets.
func TestQuickBufferRoundTrip(t *testing.T) {
	m := New(1 << 22)
	f := func(off uint32, payload []byte) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		addr := PAddr(off % (1<<22 - 1<<16 - 1))
		if err := m.Write(addr, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := m.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	m := New(1 << 20)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			base := PAddr(g * PageSize)
			for i := 0; i < 200; i++ {
				_ = m.Write64(base, uint64(i))
				_, _ = m.Read64(base)
				_, _ = m.Read64(0)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// Goroutines read, write, compare-and-swap and zero frames at once, in
// the same stripes and in different ones, with frame-spanning Reads and
// Writes among them. Each goroutine owns a set of 64-byte cells spread
// over frames every goroutine touches (two goroutines' cells share
// frames, and frames f and f+Stripes share a stripe), the cells straddling
// each frame boundary (its spanning reads and writes), and two adjacent
// frames of its own (whole-frame reads, spanning writes and zeroing). It
// checks its own bytes as it goes; at the end every frame must equal the
// sequential model all of them kept, and Stats must count exactly the
// calls made. Concurrent ReadFrames of shared frames read every cell, so
// an access that stores outside its stripe's lock is a race. Run with
// -race -cpu 2.
func TestStripedAccessMatchesSequentialModel(t *testing.T) {
	const (
		workers = 8
		shared  = 2 * Stripes // frames every worker touches
		frames  = shared + 2*workers
		cell    = 64
		perF    = PageSize / cell
		iters   = 1500
	)
	m := New(frames * PageSize)
	model := make([]byte, frames*PageSize)
	// owner of a shared cell: the cells either side of boundary f+1 belong
	// to worker f%workers, the rest round-robin.
	owner := func(c int) int {
		f, i := c/perF, c%perF
		switch {
		case i == perF-1 && f < shared-1:
			return f % workers
		case i == 0 && f > 0:
			return (f - 1) % workers
		}
		return c % workers
	}
	var reads, writes [workers]uint64
	done := make(chan struct{})
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(g)))
			var cells, bounds []int // own cells; own boundaries (frame index f+1)
			for c := 0; c < shared*perF; c++ {
				if owner(c) == g {
					cells = append(cells, c)
				}
			}
			for f := 1; f < shared; f++ {
				if (f-1)%workers == g {
					bounds = append(bounds, f)
				}
			}
			own := PAddr(shared+2*g) * PageSize // two frames of its own
			word := func() PAddr {
				return PAddr(cells[rng.Intn(len(cells))]*cell + rng.Intn(cell/WordSize)*WordSize)
			}
			fail := func(format string, args ...any) {
				t.Errorf("worker %d: "+format, append([]any{g}, args...)...)
			}
			for i := 0; i < iters; i++ {
				switch op := rng.Intn(9); op {
				case 0: // Write64 to an own word of a shared frame
					a, v := word(), rng.Uint64()
					if err := m.Write64(a, v); err != nil {
						fail("Write64: %v", err)
						return
					}
					binary.LittleEndian.PutUint64(model[a:], v)
					writes[g]++
				case 1: // Read64 of an own word
					a := word()
					v, err := m.Read64(a)
					reads[g]++
					if err != nil || v != binary.LittleEndian.Uint64(model[a:]) {
						fail("Read64(%v) = %#x, %v; model %#x", a, v, err, binary.LittleEndian.Uint64(model[a:]))
						return
					}
				case 2: // compare-and-swap: a stale old value loses, the model's wins
					a := word()
					cur := binary.LittleEndian.Uint64(model[a:])
					if ok, err := m.CompareAndSwap64(a, cur^1, 7); err != nil || ok {
						fail("CAS(%v) with a stale old value: %t, %v", a, ok, err)
						return
					}
					reads[g]++
					v := rng.Uint64()
					if ok, err := m.CompareAndSwap64(a, cur, v); err != nil || !ok {
						fail("CAS(%v) with the current value: %t, %v", a, ok, err)
						return
					}
					binary.LittleEndian.PutUint64(model[a:], v)
					writes[g]++
				case 3, 4: // spanning Write / Read across an own boundary
					a := PAddr(bounds[rng.Intn(len(bounds))])*PageSize - cell
					if op == 3 {
						p := make([]byte, 2*cell)
						rng.Read(p)
						if err := m.Write(a, p); err != nil {
							fail("Write: %v", err)
							return
						}
						copy(model[a:], p)
						writes[g]++
						break
					}
					p := make([]byte, 2*cell)
					if err := m.Read(a, p); err != nil || !bytes.Equal(p, model[a:a+2*cell]) {
						fail("spanning Read(%v) differs from the model (%v)", a, err)
						return
					}
					reads[g]++
				case 5: // frame read of a shared frame: own cells must match
					f := rng.Intn(shared)
					var words [FrameWords]uint64
					if _, err := m.ReadFrame(PAddr(f)*PageSize, &words); err != nil {
						fail("ReadFrame: %v", err)
						return
					}
					reads[g]++
					for i, w := range &words {
						a := f*PageSize + i*WordSize
						if owner(a/cell) == g && w != binary.LittleEndian.Uint64(model[a:]) {
							fail("ReadFrame word %#x = %#x, model %#x", a, w, binary.LittleEndian.Uint64(model[a:]))
							return
						}
					}
				case 6: // spanning Write across the own frames' boundary
					a := own + PAddr(rng.Intn(PageSize))
					p := make([]byte, 1+rng.Intn(PageSize))
					rng.Read(p)
					if err := m.Write(a, p); err != nil {
						fail("Write: %v", err)
						return
					}
					copy(model[a:], p)
					writes[g]++
				case 7: // ZeroFrame of an own frame
					f := own + PAddr(rng.Intn(2))*PageSize
					if err := m.ZeroFrame(f); err != nil {
						fail("ZeroFrame: %v", err)
						return
					}
					clear(model[f : f+PageSize])
					writes[g]++
				case 8: // spanning Read of both own frames
					p := make([]byte, 2*PageSize)
					if err := m.Read(own, p); err != nil || !bytes.Equal(p, model[own:own+2*PageSize]) {
						fail("Read of the own frames differs from the model (%v)", err)
						return
					}
					reads[g]++
				}
			}
		}(g)
	}
	for g := 0; g < workers; g++ {
		<-done
	}
	if t.Failed() {
		return
	}
	var want Stats
	for g := 0; g < workers; g++ {
		want.Reads += reads[g]
		want.Writes += writes[g]
	}
	if got := m.Stats(); got != want {
		t.Fatalf("Stats = %+v, the workers made %+v", got, want)
	}
	for f := 0; f < frames; f++ {
		var words [FrameWords]uint64
		if _, err := m.ReadFrame(PAddr(f)*PageSize, &words); err != nil {
			t.Fatal(err)
		}
		for i, w := range &words {
			if a := f*PageSize + i*WordSize; w != binary.LittleEndian.Uint64(model[a:]) {
				t.Fatalf("frame %d word %d = %#x, model %#x", f, i, w, binary.LittleEndian.Uint64(model[a:]))
			}
		}
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 89})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
