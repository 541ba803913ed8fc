package minifilter

import (
	"math/bits"
	"sync/atomic"

	"vqf/internal/swar"
)

// Slot iteration. A block's metadata interleaves one terminator bit per
// bucket with one zero bit per stored fingerprint, in bucket order, so the
// occupied slots can be enumerated by a single pass over the metadata: a
// zero bit at position p is an occupied slot exactly when the number of one
// bits below p is smaller than the bucket count (zeros above the final
// terminator are dead space, not slots), its bucket index is that one-bit
// count, and its slot index is the running zero count. The rule holds
// uniformly for the plain and locked metadata conventions as long as the
// locked words are read in their logical form (top bit forced to 1): when
// the block is not full the forced bit lies above the final terminator and
// is never reached, and when it is full the forced bit IS the final
// terminator. Iteration is a maintenance-path primitive (compaction,
// serialization audits, the oracle's rebuild property), not a hot-path one,
// so it favours clarity over peak speed — though the zero-skipping loop
// still visits only occupied slots, not all 128 bits.

// IterSlots128 enumerates the occupied slots of a Block8 metadata image in
// slot order, yielding each slot's bucket index and fingerprint. It returns
// false if yield stopped the walk early. The metadata must be in logical
// form: plain-mode words as stored, locked-mode words with the top bit
// forced to 1.
func IterSlots128(lo, hi uint64, fps *[swar.Words8]uint64, yield func(bucket uint, fp byte) bool) bool {
	slot := 0
	// Low word: ones below a position are counted within lo alone.
	for inv := ^lo; inv != 0; inv &= inv - 1 {
		p := uint(bits.TrailingZeros64(inv))
		bucket := uint(bits.OnesCount64(lo & (uint64(1)<<p - 1)))
		if bucket >= B8Buckets || slot >= B8Slots {
			return true
		}
		if !yield(bucket, swar.Lane8(fps, slot)) {
			return false
		}
		slot++
	}
	onesLo := uint(bits.OnesCount64(lo))
	for inv := ^hi; inv != 0; inv &= inv - 1 {
		p := uint(bits.TrailingZeros64(inv))
		bucket := onesLo + uint(bits.OnesCount64(hi&(uint64(1)<<p-1)))
		if bucket >= B8Buckets || slot >= B8Slots {
			return true
		}
		if !yield(bucket, swar.Lane8(fps, slot)) {
			return false
		}
		slot++
	}
	return true
}

// IterSlots64 enumerates the occupied slots of a Block16 metadata image in
// slot order; see IterSlots128.
func IterSlots64(meta uint64, fps *[swar.Words16]uint64, yield func(bucket uint, fp uint16) bool) bool {
	slot := 0
	for inv := ^meta; inv != 0; inv &= inv - 1 {
		p := uint(bits.TrailingZeros64(inv))
		bucket := uint(bits.OnesCount64(meta & (uint64(1)<<p - 1)))
		if bucket >= B16Buckets || slot >= B16Slots {
			return true
		}
		if !yield(bucket, swar.Lane16(fps, slot)) {
			return false
		}
		slot++
	}
	return true
}

// Iterate walks the block's occupied slots in slot order under the plain
// (single-threaded) metadata convention, yielding (bucket, fingerprint)
// pairs. It returns false if yield stopped the walk early.
func (b *Block8) Iterate(yield func(bucket uint, fp byte) bool) bool {
	return IterSlots128(b.MetaLo, b.MetaHi, &b.Fps, yield)
}

// Iterate walks the block's occupied slots under the plain metadata
// convention; see Block8.Iterate.
func (b *Block16) Iterate(yield func(bucket uint, fp uint16) bool) bool {
	return IterSlots64(b.Meta, &b.Fps, yield)
}

// SnapshotIterate walks the occupied slots of a locked-mode block from a
// consistent point-in-time copy (Block8.Snapshot), yielding (bucket,
// fingerprint) pairs. The copy is taken with the optimistic seqlock protocol
// or, after repeated conflicts, under the block lock — either way yield
// always observes one internally consistent block state, never a torn mix,
// and runs on the private copy so it may take arbitrarily long without
// blocking writers. Blocks mutated after the copy are not re-read; callers
// that need cross-block agreement with concurrent writers must provide it
// externally (compaction quiesces inserts and logs removals). It returns
// false if yield stopped the walk early.
func (b *Block8) SnapshotIterate(seq *atomic.Uint64, yield func(bucket uint, fp byte) bool) bool {
	var s Snap8
	b.Snapshot(seq, &s)
	return IterSlots128(s.lo, s.hi, &s.fps, yield)
}

// SnapshotIterate walks a locked-mode block from a consistent copy; see
// Block8.SnapshotIterate.
func (b *Block16) SnapshotIterate(seq *atomic.Uint64, yield func(bucket uint, fp uint16) bool) bool {
	var s Snap16
	b.Snapshot(seq, &s)
	return IterSlots64(s.meta, &s.fps, yield)
}
