package core

// Parallel batch operations for the concurrent filters. Keys are
// radix-partitioned by primary block (the same partitioning the sequential
// batch path uses for locality, batch.go) and the shards are fanned out
// across a bounded worker pool. Because a shard is a contiguous range of
// primary-block prefixes, two workers never write the same primary block
// concurrently; secondary-block collisions across shards remain possible and
// are serialized by the per-block locks, so correctness never depends on the
// partitioning — it only removes almost all lock contention and restores the
// sequential batch path's cache locality within each worker.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelBatch is the batch size below which spawning workers costs more
// than it saves and the keys are processed on the calling goroutine.
const minParallelBatch = 4096

// batchWorkers returns the worker-pool size for a batch of n keys: bounded
// by GOMAXPROCS, the shard count, and a floor of ~4k keys per worker.
func batchWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > batchShards {
		w = batchShards
	}
	if byLoad := n / minParallelBatch; w > byLoad {
		w = byLoad
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelShardCount applies op to every key of hs, sharded across workers,
// and returns the number of true results. Workers claim shards with an
// atomic cursor, which load-balances skewed partitions.
func parallelShardCount(hs []uint64, mask uint64, blockShift uint, op func(uint64) bool) int {
	w := batchWorkers(len(hs))
	if w == 1 {
		if len(hs) >= minBatchPartition {
			sorted, _ := radixPartition(hs, mask, blockShift)
			return applyCount(sorted, op)
		}
		return applyCount(hs, op)
	}
	sorted, bounds := radixPartition(hs, mask, blockShift)
	var cursor, total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for {
				s := int(cursor.Add(1)) - 1
				if s >= batchShards {
					break
				}
				n += applyCount(sorted[bounds[s]:bounds[s+1]], op)
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	return int(total.Load())
}

// parallelShardContains fills out[i] with contains(hs[i]), sharded across
// workers. out must have len(hs) elements; each position is written by
// exactly one worker (the index array scatters shard results back to caller
// order), so no synchronization on out is needed beyond the final Wait.
func parallelShardContains(hs []uint64, out []bool, mask uint64, blockShift uint, contains func(uint64) bool) {
	w := batchWorkers(len(hs))
	if w == 1 {
		if len(hs) < minBatchPartition {
			for i, h := range hs {
				out[i] = contains(h)
			}
			return
		}
		// Same int32 index-width concern as below: a GOMAXPROCS=1 process can
		// still be handed a multi-billion-key batch.
		for off := 0; off < len(hs); off += maxIdxSegment {
			end := min(off+maxIdxSegment, len(hs))
			seg, segOut := hs[off:end], out[off:end]
			sorted, idx, _ := radixPartitionIdx(seg, mask, blockShift)
			for j, h := range sorted {
				segOut[idx[j]] = contains(h)
			}
		}
		return
	}
	// radixPartitionIdx carries int32 positions; segment huge batches so the
	// indices always fit.
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		seg, segOut := hs[off:end], out[off:end]
		sorted, idx, bounds := radixPartitionIdx(seg, mask, blockShift)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(cursor.Add(1)) - 1
					if s >= batchShards {
						break
					}
					for j := bounds[s]; j < bounds[s+1]; j++ {
						segOut[idx[j]] = contains(sorted[j])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// resizeBools returns dst resized to n, reallocating only if its capacity is
// insufficient.
func resizeBools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}
