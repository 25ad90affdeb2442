package marshal

import "encoding/binary"

// Fletcher64 is the position-dependent checksum every on-disk structure
// carries — fs snapshots, wal chunks and headers, walshard commit stamps
// (not cryptographic; the threat model is torn writes). It is the
// Fletcher recurrence a = a+c, b = b+a from (1, 0), both modulo 2^32-1,
// packed as b<<32 | a.
//
// The sums are accumulated unreduced over blocks of fletcherBlock bytes
// and reduced once per block. That is bit-identical to reducing after
// every byte — residues are canonical either way — and cannot overflow:
// entering a block with a, b < 2^32, after n bytes a < 2^32 + 255n and
// b < 2^32 + n(2^32 + 255n), which for n = 2^16 is below 2^49.
//
// Inside a block the sums advance eight bytes per step, by the closed
// form of eight byte steps: a gains c0+…+c7 and b gains 8a + 8c0 + 7c1 +
// … + 1c7. The step yields the same integers as the byte loop, so the
// bound above holds unchanged, and each step is a few independent
// multiplies beside two dependent adds instead of a chain of sixteen.
func Fletcher64(p []byte) uint64 {
	const mod = 0xffffffff
	var a, b uint64 = 1, 0
	for len(p) > 0 {
		blk := p
		if len(blk) > fletcherBlock {
			blk = blk[:fletcherBlock]
		}
		p = p[len(blk):]
		for ; len(blk) >= 8; blk = blk[8:] {
			s, w := sums8(binary.LittleEndian.Uint64(blk))
			b += 8*a + w
			a += s
		}
		for _, c := range blk {
			a += uint64(c)
			b += a
		}
		a %= mod
		b %= mod
	}
	return b<<32 | a
}

// sums8 returns, for the eight bytes c0…c7 of x (c0 the lowest), their
// sum and the weighted sum 8c0 + 7c1 + … + 1c7. Even and odd bytes are
// spread into four 16-bit lanes each, and a multiply gathers a lane
// combination into the top lane: by ones for a plain sum, by 4, 3, 2, 1
// from the lowest lane up for a weighted one. No lane can carry into the
// next, since a lane holds at most 255·10. The even bytes weigh
// 2(4c0 + 3c2 + 2c4 + c6); the odd ones 7c1 + 5c3 + 3c5 + c7, which is
// 2(4c1 + 3c3 + 2c5 + c7) less their plain sum.
func sums8(x uint64) (sum, weighted uint64) {
	const (
		lanes = 0x00ff00ff00ff00ff
		ones  = 0x0001000100010001
		ramp  = 0x0004000300020001
	)
	even, odd := x&lanes, x>>8&lanes
	oddSum := odd * ones >> 48
	sum = (even + odd) * ones >> 48
	weighted = 2*(even*ramp>>48) + 2*(odd*ramp>>48) - oddSum
	return sum, weighted
}

// fletcherBlock is how many bytes Fletcher64 sums between reductions.
const fletcherBlock = 64 << 10
