package core

import (
	"math/bits"

	"vqf/internal/hashing"
)

// CountOf returns the number of stored instances of the pre-hashed key h's
// fingerprint across its two candidate blocks: the VQF analog of the
// counting quotient filter's membership counting, using one SWAR match mask
// per block.
func (f *Filter8) CountOf(h uint64) uint64 {
	b1, bucket, fp, tag := split8(h, f.mask)
	n := uint64(bits.OnesCount64(f.blocks[b1].FindSlots(bucket, fp)))
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 != b1 {
		n += uint64(bits.OnesCount64(f.blocks[b2].FindSlots(bucket, fp)))
	}
	return n
}
