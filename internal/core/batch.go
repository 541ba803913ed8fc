package core

import (
	"math/bits"

	"vqf/internal/minifilter"
)

// Batch operations. The Morton filter paper (and §7.1 of the VQF paper)
// highlights bulk workloads: when many keys arrive at once, sorting them by
// primary block turns the filter's random cache-line walk into a
// mostly-sequential sweep. Batch inserts and removes — sequential,
// concurrent and sharded — share the one counting sort below (radixSort);
// the concurrent and sharded writers fan its buckets out over the one
// atomic-cursor claim loop (claim, concurrent_batch.go). Lookups write
// nothing and need no block order, so every ContainsBatch answers in caller
// order through a branch-free batch kernel: the sequential filters through
// ProbeBatch8/16 (see Filter8.ContainsBatch), the concurrent and sharded
// ones through the seqlock-validated ProbeLocked8/16 in contiguous
// caller-order chunks (see cfilter.containsRange).

const (
	batchRadixBits = 8
	batchShards    = 1 << batchRadixBits

	// minBatchPartition is the batch size below which radix-grouping
	// overhead isn't worth it and keys are processed in caller order.
	minBatchPartition = 256
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

// shardDigit buckets keys by shard: the top shardBits bits (see ShardOf).
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

// applyCount applies op to every key and returns the number of successes.
func applyCount(hs []uint64, op func(uint64) bool) int {
	n := 0
	for _, h := range hs {
		if op(h) {
			n++
		}
	}
	return n
}

// batchPrefetchDist is how many keys ahead of the sweep cursor a block's
// first metadata word is demand-loaded. Go has no prefetch intrinsic, so the
// pipeline issues a real load for the upcoming block and folds it into a
// sink the filter keeps; by the time the sweep reaches that key its cache
// line is (usually) resident. Eight keys ≈ one partition stride of
// out-of-order window on current cores.
const batchPrefetchDist = 8

// batchScratch holds the reusable buffers of the sequential batch pipeline,
// owned by a filter so steady-state batch calls allocate nothing. The
// sequential filters are single-goroutine by contract, which is what makes
// a per-filter scratch sound. sink accumulates the prefetch loads so the
// compiler cannot eliminate them.
type batchScratch struct {
	sorted []uint64
	sink   uint64
}

// buf returns the reusable sort buffer, grown to at least n keys.
func (s *batchScratch) buf(n int) []uint64 {
	if cap(s.sorted) < n {
		s.sorted = make([]uint64, n)
	}
	return s.sorted
}

// InsertBatch inserts the keys of hs, returning the number successfully
// inserted. Every key is attempted, even after an insert fails: when the
// filter approaches capacity the successes can come from anywhere in hs, not
// a prefix of it (insertion order is a locality-driven radix reorder, not
// caller order). Duplicates are stored like repeated Insert calls.
func (f *Filter8) InsertBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Insert)
	}
	sorted, _ := radixSort(hs, f.scratch.buf(len(hs)), blockDigit(f.mask, blockShift8))
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift8)&f.mask].MetaLo
		}
		if f.Insert(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}

// ContainsBatch reports membership for every key of hs in input order:
// result[i] corresponds to hs[i]. The result reuses dst if it has
// sufficient capacity (dst may be nil). Lookups do not write, so unlike
// inserts and removes they need no radix order: the branch-free batch kernel
// walks hs in caller order and lets the CPU overlap independent keys. Where
// the kernel is unavailable, keys are probed one Contains at a time.
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
// returning the number found and removed. Like InsertBatch, keys are
// processed in block-address order, not caller order.
func (f *Filter8) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Remove)
	}
	sorted, _ := radixSort(hs, f.scratch.buf(len(hs)), blockDigit(f.mask, blockShift8))
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift8)&f.mask].MetaLo
		}
		if f.Remove(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}

// InsertBatch inserts the keys of hs; see Filter8.InsertBatch.
func (f *Filter16) InsertBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Insert)
	}
	sorted, _ := radixSort(hs, f.scratch.buf(len(hs)), blockDigit(f.mask, blockShift16))
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift16)&f.mask].Meta
		}
		if f.Insert(h) {
			n++
		}
	}
	f.scratch.sink = sink
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
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Remove)
	}
	sorted, _ := radixSort(hs, f.scratch.buf(len(hs)), blockDigit(f.mask, blockShift16))
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift16)&f.mask].Meta
		}
		if f.Remove(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}
