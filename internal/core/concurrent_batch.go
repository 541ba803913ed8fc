package core

// Parallel batch operations for the concurrent and sharded filters. Every
// fan-out runs on claim: workers take buckets of a partition from an atomic
// cursor. Writes partition by radix order (batch.go) — primary-block
// prefixes on a CFilter, so two workers never write the same primary block
// concurrently and secondary-block collisions across buckets are serialized
// by the per-block locks; shards on a sharded filter, so workers own whole
// shards. Correctness never depends on the partitioning — it only removes
// almost all lock contention between the workers. Lookups are lock-free
// reads that need no block ownership, so they partition nothing: a large
// batch is cut into contiguous caller-order chunks, each answered by the
// validated batch kernel (probeLocked) with a per-key fallback for the keys
// it hands back.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vqf/internal/minifilter"
)

// minParallelBatch is the batch size below which spawning workers costs more
// than it saves and the keys are processed on the calling goroutine.
const minParallelBatch = 4096

// batchWorkers returns the worker-pool size for a batch of n keys that
// splits into at most pieces independent parts: bounded by GOMAXPROCS,
// pieces, and a floor of minParallelBatch keys per worker.
func batchWorkers(n, pieces int) int {
	return max(1, min(runtime.GOMAXPROCS(0), pieces, n/minParallelBatch))
}

// claim runs op over every non-empty bucket [bounds[b], bounds[b+1]) on
// w ≥ 2 worker goroutines that claim buckets from an atomic cursor, which
// load-balances skewed buckets. It returns the sum of op's results and the
// number of workers that ran at least one bucket. op escapes to the
// workers, so callers build it only on their parallel path; one worker
// runs the buckets in order on the calling goroutine, with no closure. The
// workers read a copy of bounds, so the caller's may live on its stack.
func claim(w int, bounds []int, op func(lo, hi, b int) int) (total, active int) {
	bs := slices.Clone(bounds)
	nb := len(bs) - 1
	var cursor, sum, fed atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, ran := 0, false
			for {
				b := int(cursor.Add(1)) - 1
				if b >= nb {
					break
				}
				if bs[b] < bs[b+1] {
					n += op(bs[b], bs[b+1], b)
					ran = true
				}
			}
			if ran {
				fed.Add(1)
			}
			sum.Add(int64(n))
		}()
	}
	wg.Wait()
	return int(sum.Load()), int(fed.Load())
}

// lookupScanner is a filter whose containsRange answers out[i] for hs[i],
// hs non-empty.
type lookupScanner interface {
	containsRange(hs []uint64, out []bool)
}

// lookupBatch answers hs in caller order into dst (reused if its capacity
// suffices) through f.containsRange. A batch large enough to fan out is
// cut into one contiguous chunk per worker; each position of the result is
// written by exactly one worker, so no synchronization beyond claim's
// final wait is needed.
func lookupBatch[F lookupScanner](f F, hs []uint64, dst []bool) []bool {
	out := resizeBools(dst, len(hs))
	w := batchWorkers(len(hs), len(hs))
	if w == 1 {
		if len(hs) > 0 {
			f.containsRange(hs, out)
		}
		return out
	}
	bounds := make([]int, w+1)
	for i := range bounds {
		bounds[i] = i * len(hs) / w
	}
	claim(w, bounds, func(lo, hi, _ int) int {
		f.containsRange(hs[lo:hi], out[lo:hi])
		return 0
	})
	return out
}

// probeLocked answers hs into out in caller order through g's validated
// batch kernel over tab, and hands each key the kernel reports as
// conflicted — it overlapped a writer — to retry, which answers it through
// the per-key path (that path retries, falls back to the lock, and counts
// the key). It returns how many leading keys are answered, conflicts of
// them by retry; the rest, all of hs where the kernel is unavailable, are
// the caller's to answer per key.
func probeLocked(g *Geometry, tab []minifilter.LockedArray, hs []uint64, out []bool, retry func(i int)) (done, conflicts int) {
	for done < len(hs) {
		n, ok := g.lockedKernel(tab, hs[done:], out[done:])
		if !ok {
			break
		}
		if done += n; done < len(hs) {
			retry(done)
			done++
			conflicts++
		}
	}
	return done, conflicts
}

// resizeBools returns dst resized to n, reallocating only if its capacity is
// insufficient.
func resizeBools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}
