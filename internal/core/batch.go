package core

// Batch operations. The Morton filter paper (and §7.1 of the VQF paper)
// highlights bulk workloads: when many keys arrive at once, sorting them by
// primary block turns the filter's random cache-line walk into a
// mostly-sequential sweep. All batch APIs — sequential and concurrent —
// share the radix-partitioning helpers below; the concurrent filters
// additionally fan the partitions out across a worker pool
// (concurrent_batch.go).

const (
	batchRadixBits = 8
	batchShards    = 1 << batchRadixBits

	// minBatchPartition is the batch size below which radix-grouping
	// overhead isn't worth it and keys are processed in caller order.
	minBatchPartition = 256
)

// maxIdxSegment bounds any single radix pass that carries int32 scatter
// indices (partitionIdx/radixPartitionIdx); larger batches are processed in
// segments so the indices always fit. A variable so tests can shrink it and
// exercise the segmented path without multi-gigabyte inputs.
var maxIdxSegment = 1 << 30

// batchRadix maps a key hash to its shard: the top batchRadixBits bits of
// the primary block index. effShift is precomputed by effectiveShift(mask).
// The final mask is a no-op by construction; it lets the compiler prove
// shard-array indexing in bounds in the partition loops.
func batchRadix(h, mask uint64, blockShift, effShift uint) int {
	return int(((h>>blockShift)&mask)>>effShift) & (batchShards - 1)
}

// radixPartition reorders hs by shard, so that keys sharing a primary-block
// prefix are adjacent. It returns the reordered keys and the shard bounds:
// shard s occupies sorted[bounds[s]:bounds[s+1]].
func radixPartition(hs []uint64, mask uint64, blockShift uint) (sorted []uint64, bounds [batchShards + 1]int) {
	effShift := effectiveShift(mask)
	var counts [batchShards]int
	for _, h := range hs {
		counts[batchRadix(h, mask, blockShift, effShift)]++
	}
	sum := 0
	for i, c := range counts {
		bounds[i] = sum
		sum += c
	}
	bounds[batchShards] = sum
	sorted = make([]uint64, len(hs))
	next := bounds
	for _, h := range hs {
		r := batchRadix(h, mask, blockShift, effShift)
		sorted[next[r]] = h
		next[r]++
	}
	return sorted, bounds
}

// radixPartitionIdx is radixPartition carrying each key's position in hs, so
// order-sensitive results (ContainsBatch) can be scattered back. Indices are
// int32; callers split larger batches first.
func radixPartitionIdx(hs []uint64, mask uint64, blockShift uint) (sorted []uint64, idx []int32, bounds [batchShards + 1]int) {
	effShift := effectiveShift(mask)
	var counts [batchShards]int
	for _, h := range hs {
		counts[batchRadix(h, mask, blockShift, effShift)]++
	}
	sum := 0
	for i, c := range counts {
		bounds[i] = sum
		sum += c
	}
	bounds[batchShards] = sum
	sorted = make([]uint64, len(hs))
	idx = make([]int32, len(hs))
	next := bounds
	for i, h := range hs {
		r := batchRadix(h, mask, blockShift, effShift)
		sorted[next[r]] = h
		idx[next[r]] = int32(i)
		next[r]++
	}
	return sorted, idx, bounds
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
	idx    []int32
	sink   uint64
}

// partition radix-groups hs by primary block into the reusable sorted
// buffer: keys sharing a block-index prefix become adjacent, so the sweep
// walks the block array in address order and touches each 64-byte block once
// per batch.
func (s *batchScratch) partition(hs []uint64, mask uint64, blockShift uint) []uint64 {
	effShift := effectiveShift(mask)
	var counts [batchShards]int
	for _, h := range hs {
		counts[batchRadix(h, mask, blockShift, effShift)]++
	}
	var next [batchShards]int
	sum := 0
	for i, c := range counts {
		next[i] = sum
		sum += c
	}
	if cap(s.sorted) < len(hs) {
		s.sorted = make([]uint64, len(hs))
	}
	sorted := s.sorted[:len(hs)]
	for _, h := range hs {
		r := batchRadix(h, mask, blockShift, effShift)
		sorted[next[r]] = h
		next[r]++
	}
	return sorted
}

// partitionIdx is partition carrying each key's position in hs, so
// order-sensitive results (ContainsBatch) scatter back to input order.
// Indices are int32; callers split larger batches first.
func (s *batchScratch) partitionIdx(hs []uint64, mask uint64, blockShift uint) ([]uint64, []int32) {
	effShift := effectiveShift(mask)
	var counts [batchShards]int
	for _, h := range hs {
		counts[batchRadix(h, mask, blockShift, effShift)]++
	}
	var next [batchShards]int
	sum := 0
	for i, c := range counts {
		next[i] = sum
		sum += c
	}
	// Grown separately from partition's sorted buffer: either method may run
	// first and each only grows what it uses.
	if cap(s.sorted) < len(hs) {
		s.sorted = make([]uint64, len(hs))
	}
	if cap(s.idx) < len(hs) {
		s.idx = make([]int32, len(hs))
	}
	sorted, idx := s.sorted[:len(hs)], s.idx[:len(hs)]
	for i, h := range hs {
		r := batchRadix(h, mask, blockShift, effShift)
		sorted[next[r]] = h
		idx[next[r]] = int32(i)
		next[r]++
	}
	return sorted, idx
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
	sorted := f.scratch.partition(hs, f.mask, blockShift8)
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
// result[i] corresponds to hs[i], even though the probes themselves run in
// radix-reordered block-address order. The result reuses dst if it has
// sufficient capacity (dst may be nil).
func (f *Filter8) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	out := resizeBools(dst, len(hs))
	if len(hs) < minBatchPartition {
		for i, h := range hs {
			out[i] = f.Contains(h)
		}
		return out
	}
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		f.containsSegment(hs[off:end], out[off:end])
	}
	return out
}

// containsSegment probes one index-safe segment in radix order, scattering
// results back to segment order.
func (f *Filter8) containsSegment(hs []uint64, out []bool) {
	sorted, idx := f.scratch.partitionIdx(hs, f.mask, blockShift8)
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift8)&f.mask].MetaLo
		}
		out[idx[i]] = f.Contains(h)
	}
	f.scratch.sink = sink
}

// RemoveBatch removes one previously inserted instance of each key of hs,
// returning the number found and removed. Like InsertBatch, keys are
// processed in block-address order, not caller order.
func (f *Filter8) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Remove)
	}
	sorted := f.scratch.partition(hs, f.mask, blockShift8)
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
	sorted := f.scratch.partition(hs, f.mask, blockShift16)
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
	if len(hs) < minBatchPartition {
		for i, h := range hs {
			out[i] = f.Contains(h)
		}
		return out
	}
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		f.containsSegment(hs[off:end], out[off:end])
	}
	return out
}

// containsSegment probes one index-safe segment in radix order, scattering
// results back to segment order.
func (f *Filter16) containsSegment(hs []uint64, out []bool) {
	sorted, idx := f.scratch.partitionIdx(hs, f.mask, blockShift16)
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift16)&f.mask].Meta
		}
		out[idx[i]] = f.Contains(h)
	}
	f.scratch.sink = sink
}

// RemoveBatch removes one instance of each key of hs; see
// Filter8.RemoveBatch.
func (f *Filter16) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Remove)
	}
	sorted := f.scratch.partition(hs, f.mask, blockShift16)
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

// effectiveShift returns how far to shift a block index so its top
// batchRadixBits bits remain.
func effectiveShift(mask uint64) uint {
	bitsUsed := uint(0)
	for m := mask; m != 0; m >>= 1 {
		bitsUsed++
	}
	if bitsUsed <= batchRadixBits {
		return 0
	}
	return bitsUsed - batchRadixBits
}
