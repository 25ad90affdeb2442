package marshal

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
func Fletcher64(p []byte) uint64 {
	const mod = 0xffffffff
	var a, b uint64 = 1, 0
	for len(p) > 0 {
		blk := p
		if len(blk) > fletcherBlock {
			blk = blk[:fletcherBlock]
		}
		p = p[len(blk):]
		for _, c := range blk {
			a += uint64(c)
			b += a
		}
		a %= mod
		b %= mod
	}
	return b<<32 | a
}

// fletcherBlock is how many bytes Fletcher64 sums between reductions.
const fletcherBlock = 64 << 10
