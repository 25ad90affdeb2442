package marshal

import (
	"math/rand"
	"testing"
)

// referenceFletcher64 is the checksum as every on-disk image written
// before Fletcher64 existed computed it: one byte at a time, both sums
// reduced after every byte. Images in the field carry this value, so
// Fletcher64 must equal it on every input.
func referenceFletcher64(p []byte) uint64 {
	var a, b uint64 = 1, 0
	for _, c := range p {
		a = (a + uint64(c)) % 0xffffffff
		b = (b + a) % 0xffffffff
	}
	return b<<32 | a
}

func TestFletcher64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	buf := make([]byte, 1<<20)
	rng.Read(buf)
	lengths := []int{0, 1, 2, 255, fletcherBlock - 1, fletcherBlock, fletcherBlock + 1,
		2*fletcherBlock - 1, 2 * fletcherBlock, 1 << 20}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, rng.Intn(1<<20+1))
	}
	for _, n := range lengths {
		off := 0
		if n < len(buf) {
			off = rng.Intn(len(buf) - n)
		}
		p := buf[off : off+n]
		if got, want := Fletcher64(p), referenceFletcher64(p); got != want {
			t.Fatalf("len %d: Fletcher64 = %#x, reference = %#x", n, got, want)
		}
	}
	// The worst case for the deferred reduction: every byte 0xff.
	for i := range buf {
		buf[i] = 0xff
	}
	if got, want := Fletcher64(buf), referenceFletcher64(buf); got != want {
		t.Fatalf("all-0xff MiB: Fletcher64 = %#x, reference = %#x", got, want)
	}
}

// byteLoopFletcher64 is Fletcher64 one byte per step: the same
// recurrence and the same per-block reduction, without the eight-byte
// closed form. Fletcher64 must return its value bit for bit.
func byteLoopFletcher64(p []byte) uint64 {
	var a, b uint64 = 1, 0
	for len(p) > 0 {
		blk := p[:min(len(p), fletcherBlock)]
		p = p[len(blk):]
		for _, c := range blk {
			a += uint64(c)
			b += a
		}
		a %= 0xffffffff
		b %= 0xffffffff
	}
	return b<<32 | a
}

// TestFletcher64MatchesByteLoop is the differential test of the
// eight-byte step: random contents and offsets (so loads straddle every
// alignment), every length up to 130 KiB drawn at random, every length
// within 16 of the reduction block and its double, and byte values at
// the extremes.
func TestFletcher64MatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const most = 130 << 10
	buf := make([]byte, most+8)
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, most}
	for d := -16; d <= 16; d++ {
		lengths = append(lengths, fletcherBlock+d, 2*fletcherBlock+d)
	}
	for range 200 {
		lengths = append(lengths, rng.Intn(most+1))
	}
	for _, fill := range []func(){
		func() { rng.Read(buf) },
		func() {
			for i := range buf {
				buf[i] = 0xff
			}
		},
		func() {
			for i := range buf {
				buf[i] = byte(rng.Intn(2)) * 0xff
			}
		},
	} {
		fill()
		for _, n := range lengths {
			off := rng.Intn(8)
			p := buf[off : off+n]
			if got, want := Fletcher64(p), byteLoopFletcher64(p); got != want {
				t.Fatalf("len %d at offset %d: Fletcher64 = %#x, byte loop = %#x", n, off, got, want)
			}
		}
	}
}

func BenchmarkFletcher64(b *testing.B) {
	p := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(p)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		Fletcher64(p)
	}
}

func BenchmarkFletcher64ByteLoop(b *testing.B) {
	p := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(p)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		byteLoopFletcher64(p)
	}
}
