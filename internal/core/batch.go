package core

import (
	"math/bits"

	"vqf/internal/minifilter"
)

// Batch operations. A write batch is sorted only to split it between
// workers: a concurrent filter counting-sorts a batch large enough to fan
// out by primary-block prefix (blockDigit), and a sharded filter with more
// than one shard sorts by shard (shardDigit), both with the one counting
// sort below (radixSort), and the buckets fan out over the one
// atomic-cursor claim loop (claim, concurrent_batch.go). Every other batch
// write runs in caller order, the sequential InsertBatch and RemoveBatch
// among them, as loops over Insert and Remove. Each operation touches at
// most two cache lines (§3 of the VQF paper), so a batch of random keys
// gains no locality from a block sort unless it is about as large as the
// block array; measured, the sort cost more than it saved (DESIGN.md
// §Kernel fusion, "Sequential batch writes"). Lookups answer in caller
// order through a branch-free batch kernel: the sequential filters through
// ProbeBatch8/16 (see Filter8.ContainsBatch), the concurrent and sharded
// ones through the seqlock-validated ProbeLocked8/16 in contiguous
// caller-order chunks (see cfilter.containsRange).

const (
	batchRadixBits = 8
	batchShards    = 1 << batchRadixBits
)

// digit selects a radix sort's bucket from a key hash: (h>>shift)&mask,
// with mask below batchShards.
type digit struct {
	shift uint
	mask  uint64
}

// of returns h's bucket. The uint8 result lets the compiler prove the
// bucket-array indexing in bounds.
func (d digit) of(h uint64) uint8 { return uint8(h >> d.shift & d.mask) }

// blockDigit buckets keys by the top batchRadixBits bits of their primary
// block index (h>>blockShift)&mask, so keys sharing a block-index prefix
// sort together.
func blockDigit(mask uint64, blockShift uint) digit {
	drop := uint(max(bits.Len64(mask)-batchRadixBits, 0))
	return digit{blockShift + drop, mask >> drop}
}

// shardDigit buckets keys by shard: the top shardBits bits (see shardOf).
func shardDigit(shardBits uint) digit { return digit{64 - shardBits, 1<<shardBits - 1} }

// radixSort stably counting-sorts hs into dst (len(dst) >= len(hs)) by d
// and returns the bucket bounds: bucket b occupies dst[bounds[b]:bounds[b+1]].
func radixSort(hs, dst []uint64, d digit) (sorted []uint64, bounds [batchShards + 1]int) {
	var next [batchShards]int
	for _, h := range hs {
		next[d.of(h)]++
	}
	sum := 0
	for b, c := range next {
		bounds[b], next[b] = sum, sum
		sum += c
	}
	bounds[batchShards] = sum
	sorted = dst[:len(hs)]
	for _, h := range hs {
		b := d.of(h)
		sorted[next[b]] = h
		next[b]++
	}
	return sorted, bounds
}

// InsertBatch inserts the keys of hs in caller order, returning the number
// successfully inserted. Every key is attempted, even after an insert
// fails: when the filter approaches capacity the successes can come from
// anywhere in hs, not a prefix of it. Duplicates are stored like repeated
// Insert calls. The filter ends as a loop of Insert over hs leaves it.
func (f *Filter8) InsertBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	n := 0
	for _, h := range hs {
		if f.Insert(h) {
			n++
		}
	}
	return n
}

// ContainsBatch reports membership for every key of hs in input order:
// result[i] corresponds to hs[i]. The result reuses dst if it has
// sufficient capacity (dst may be nil). The batch kernel
// (minifilter.ProbeBatch8) compares every key's fingerprint with both
// blocks' lanes, then selects bucket ranges only in blocks that hold a
// match; neither pass branches on data, so the CPU overlaps independent
// keys. Where the kernel is unavailable, keys are probed one Contains at a
// time.
func (f *Filter8) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	out := resizeBools(dst, len(hs))
	if minifilter.ProbeBatch8(f.blocks, hs, out) {
		f.st.Lookups(len(hs))
		return out
	}
	for i, h := range hs {
		out[i] = f.Contains(h)
	}
	return out
}

// RemoveBatch removes one previously inserted instance of each key of hs,
// in caller order, returning the number found and removed.
func (f *Filter8) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	n := 0
	for _, h := range hs {
		if f.Remove(h) {
			n++
		}
	}
	return n
}

// InsertBatch inserts the keys of hs; see Filter8.InsertBatch.
func (f *Filter16) InsertBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	n := 0
	for _, h := range hs {
		if f.Insert(h) {
			n++
		}
	}
	return n
}

// ContainsBatch reports membership for every key of hs in input order; see
// Filter8.ContainsBatch.
func (f *Filter16) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	out := resizeBools(dst, len(hs))
	if minifilter.ProbeBatch16(f.blocks, hs, out) {
		f.st.Lookups(len(hs))
		return out
	}
	for i, h := range hs {
		out[i] = f.Contains(h)
	}
	return out
}

// RemoveBatch removes one instance of each key of hs; see
// Filter8.RemoveBatch.
func (f *Filter16) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	n := 0
	for _, h := range hs {
		if f.Remove(h) {
			n++
		}
	}
	return n
}
