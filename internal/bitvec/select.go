// Package bitvec provides the word-level bit machinery that the vector
// quotient filter's mini-filter metadata and the quotient filter's
// rank-and-select blocks are built on: constant-time select and rank in 64-
// and 128-bit words, and the shift-insert / shift-remove operations that the
// paper implements with the x86 PDEP and PEXT instructions.
//
// Bit order convention: the paper indexes metadata bits "from the left,
// starting at 0". Throughout this package, bit i of the paper's bitvector is
// the bit of weight 1<<i (LSB-first). Select, rank, insert and remove are all
// defined in that order.
package bitvec

import "math/bits"

// selectInByte[b][k] is the position (0-7) of the k-th set bit of byte b, or
// 8 if byte b has at most k set bits. It makes select-in-word a table lookup
// once the containing byte is known, mirroring the lookup-table-assisted
// select of "A fast x86 implementation of select" (Pandey et al.).
var selectInByte [256][8]uint8

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				selectInByte[b][k] = uint8(i)
				k++
			}
		}
		for ; k < 8; k++ {
			selectInByte[b][k] = 8
		}
	}
}

// Select64 returns the index of the k-th set bit of x (k counted from 0,
// bits counted LSB-first). If x has k or fewer set bits it returns 64.
//
// This is the software stand-in for the PDEP-based select trick: a SWAR
// byte-wise popcount prefix scan locates the containing byte, then a table
// lookup finds the bit within it. The instruction count is a small constant
// independent of x. It is the portable path only: on amd64 with BMI2 every
// mini-filter probe, insert and remove selects with PDEP+TZCNT in
// internal/minifilter's assembly kernels, so this body serves the other
// builds (purego, other GOARCHes, the assembly switched off), the
// differential reference those kernels are tested against, the blocks'
// BucketCount accessor, and the rsqf comparator's block select.
func Select64(x uint64, k uint) uint {
	// Byte-wise popcounts via SWAR: spread popcount of each byte into that
	// byte lane, then prefix-sum the lanes with a multiply.
	const (
		ones = 0x0101010101010101
		m1   = 0x5555555555555555
		m2   = 0x3333333333333333
		m4   = 0x0f0f0f0f0f0f0f0f
	)
	s := x - (x>>1)&m1
	s = s&m2 + (s>>2)&m2
	s = (s + s>>4) & m4
	// prefix[i] = popcount of bytes 0..i, in byte lane i.
	prefix := s * ones
	total := prefix >> 56
	if uint(total) <= k {
		return 64
	}
	// Find the first byte lane whose prefix popcount exceeds k. SWAR
	// comparison: lane i gets its high bit set iff prefix[i] > k.
	spread := uint64(k+1) * ones
	gt := ((prefix | 0x8080808080808080) - spread) & 0x8080808080808080
	// All lanes >= the found one have their high bit clear... Actually gt has
	// high bit set in lane i iff prefix[i] >= k+1, i.e. the k-th bit lies in
	// or before byte i. The first such lane is the containing byte.
	byteIdx := uint(bits.TrailingZeros64(gt)) >> 3
	var before uint
	if byteIdx > 0 {
		before = uint((prefix >> (8 * (byteIdx - 1))) & 0xff)
	}
	b := uint8(x >> (8 * byteIdx))
	return 8*byteIdx + uint(selectInByte[b][k-before])
}

// Rank64 returns the number of set bits of x strictly below position i.
// i may be up to 64, in which case it returns the full popcount.
func Rank64(x uint64, i uint) uint {
	if i >= 64 {
		return uint(bits.OnesCount64(x))
	}
	return uint(bits.OnesCount64(x & (1<<i - 1)))
}

// Select128 returns the index of the k-th set bit of the 128-bit word
// (hi<<64)|lo, or 128 if there is no such bit.
func Select128(lo, hi uint64, k uint) uint {
	pc := uint(bits.OnesCount64(lo))
	if k < pc {
		return Select64(lo, k)
	}
	s := Select64(hi, k-pc)
	if s == 64 {
		return 128
	}
	return 64 + s
}

// Rank128 returns the number of set bits of (hi<<64)|lo strictly below
// position i (i up to 128).
func Rank128(lo, hi uint64, i uint) uint {
	if i <= 64 {
		return Rank64(lo, i)
	}
	return uint(bits.OnesCount64(lo)) + Rank64(hi, i-64)
}
