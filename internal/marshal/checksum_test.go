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
