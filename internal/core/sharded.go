package core

// Sharded concurrent filters: a power-of-two array of independent CFilter8/16
// instances, selected by the *top* hash bits. Sharding multiplies every
// contended resource — block locks, seqlock version stripes, striped stats
// counters, the count accumulator — by the shard count, because each shard is
// a self-contained filter with private instances of all of them (each
// separately heap-allocated, so shards never share cache lines). The filter
// semantics are unchanged: a key's two candidate blocks both live in its
// shard, so lookups still touch at most two cache lines plus the shard
// pointer.
//
// Shard selection uses the highest shardBits of the hash, disjoint from the
// bits the in-shard geometry consumes (bucket and fingerprint from the low
// bits, primary block from bit 24/32 up — see split8/split16) for any filter
// below 2^(40−shardBits) blocks per shard, which is beyond the serializer's
// 2^40-block cap anyway. Keys therefore spread near-uniformly and
// independently of their in-shard placement.
//
// Batch operations radix-partition the keys by shard and fan the partitions
// out over a worker pool in which each worker *owns* the shards it claims
// (atomic-cursor claiming): two workers never operate on the same shard, so
// batch workers contend on nothing at all — not even the secondary-block
// collisions the single-filter parallel batches retain. Within its claimed
// partition a worker re-partitions by primary block for the sequential
// sweep locality of the non-sharded batch path.

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// maxShardBits bounds the shard count to 256: beyond the core counts of any
// machine this code plausibly meets, and it keeps the shard radix one byte.
const maxShardBits = 8

// shardBitsFor returns ceil(log2(n)) clamped to [0, maxShardBits]; n <= 0
// selects a single shard.
func shardBitsFor(n int) uint {
	bits := uint(0)
	for 1<<bits < n && bits < maxShardBits {
		bits++
	}
	return bits
}

// shardOf returns the shard index of hash h: its top shardBits bits. For
// shardBits == 0 the shift count is 64, which in Go yields 0 — every key
// lands in the single shard.
func shardOf(h uint64, shardBits uint) uint64 { return h >> (64 - shardBits) }

// shardPartition reorders hs so keys of the same shard are adjacent; shard s
// occupies sorted[bounds[s]:bounds[s+1]].
func shardPartition(hs []uint64, shardBits uint) (sorted []uint64, bounds []int) {
	n := 1 << shardBits
	counts := make([]int, n)
	for _, h := range hs {
		counts[shardOf(h, shardBits)]++
	}
	bounds = make([]int, n+1)
	sum := 0
	for i, c := range counts {
		bounds[i] = sum
		sum += c
	}
	bounds[n] = sum
	sorted = make([]uint64, len(hs))
	next := counts // reuse: next[i] becomes the write cursor for shard i
	copy(next, bounds[:n])
	for _, h := range hs {
		s := shardOf(h, shardBits)
		sorted[next[s]] = h
		next[s]++
	}
	return sorted, bounds
}

// shardPartitionIdx is shardPartition carrying each key's original position,
// for order-sensitive scatter (ContainsBatch). Indices are int32; callers
// segment larger batches (maxIdxSegment) first.
func shardPartitionIdx(hs []uint64, shardBits uint) (sorted []uint64, idx []int32, bounds []int) {
	n := 1 << shardBits
	counts := make([]int, n)
	for _, h := range hs {
		counts[shardOf(h, shardBits)]++
	}
	bounds = make([]int, n+1)
	sum := 0
	for i, c := range counts {
		bounds[i] = sum
		sum += c
	}
	bounds[n] = sum
	sorted = make([]uint64, len(hs))
	idx = make([]int32, len(hs))
	next := counts
	copy(next, bounds[:n])
	for i, h := range hs {
		s := shardOf(h, shardBits)
		sorted[next[s]] = h
		idx[next[s]] = int32(i)
		next[s]++
	}
	return sorted, idx, bounds
}

// shardBatchWorkers returns the worker-pool size for a sharded batch of n
// keys over nshards shards: bounded by GOMAXPROCS, the shard count (workers
// own whole shards), and the ~4k-keys-per-worker floor shared with the
// non-sharded parallel batches.
func shardBatchWorkers(n, nshards int) int {
	w := runtime.GOMAXPROCS(0)
	if w > nshards {
		w = nshards
	}
	if byLoad := n / minParallelBatch; w > byLoad {
		w = byLoad
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardFilter is the shard surface the sharded shell uses: a concurrent
// filter, *CFilter8 or *CFilter16. Its per-key methods are called only by
// the batch workers, through func values; the single-key paths
// (Sharded8/16.Insert etc.) and the ContainsBatch scan (containsScan) call
// the concrete shard type.
type shardFilter interface {
	Insert(h uint64) bool
	Remove(h uint64) bool
	InsertBatch(hs []uint64) int
	RemoveBatch(hs []uint64) int
	ContainsBatch(hs []uint64, dst []bool) []bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	Stats() stats.OpCounts
	BlockOccupancies() []uint
	SlotsPerBlock() uint
	SetEventRing(r *telemetry.Ring)
	WriteTo(w io.Writer) (int64, error)
	batchSegment(seg []uint64) []uint64
	containsScan(sorted []uint64, out []bool, idx []int32, lo, hi int)
	geom() *geometry
}

// sharded is the shell of Sharded8 and Sharded16: an array of concurrent
// shards selected by the top hash bits. All single-key operations delegate
// to one shard; batch operations partition by shard and run shard-disjoint
// workers.
type sharded[S shardFilter] struct {
	shards    []S
	shardBits uint
	ring      *telemetry.Ring
}

// newSharded creates nshards shards (rounded up to a power of two, clamped
// to [1, 256]), each sized for its share of nslots.
func newSharded[S shardFilter](nslots uint64, nshards int, opts Options, newShard func(uint64, Options) S) sharded[S] {
	bits := shardBitsFor(nshards)
	n := uint64(1) << bits
	per := (nslots + n - 1) / n
	f := sharded[S]{shards: make([]S, n), shardBits: bits}
	for i := range f.shards {
		f.shards[i] = newShard(per, opts)
	}
	return f
}

// Sharded8 is a sharded thread-safe filter with 8-bit fingerprints: an array
// of CFilter8 shards selected by the top hash bits.
type Sharded8 struct {
	sharded[*CFilter8]
}

// NewSharded8 creates a sharded filter with at least nslots total slots
// spread over nshards shards (rounded up to a power of two, clamped to
// [1, 256]). Each shard is an independent CFilter8 sized for its share.
func NewSharded8(nslots uint64, nshards int, opts Options) *Sharded8 {
	return &Sharded8{newSharded(nslots, nshards, opts, NewCFilter8)}
}

// Insert adds the pre-hashed key h to its shard. Safe for concurrent use.
func (f *Sharded8) Insert(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Insert(h) }

// Contains reports whether h may be in the filter; lock-free on the common
// path. Safe for concurrent use.
func (f *Sharded8) Contains(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded8) Remove(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Remove(h) }

// Sharded16 is the sharded thread-safe filter with 16-bit fingerprints; see
// Sharded8.
type Sharded16 struct {
	sharded[*CFilter16]
}

// NewSharded16 creates a sharded 16-bit-fingerprint filter; see NewSharded8.
func NewSharded16(nslots uint64, nshards int, opts Options) *Sharded16 {
	return &Sharded16{newSharded(nslots, nshards, opts, NewCFilter16)}
}

// Insert adds the pre-hashed key h to its shard. Safe for concurrent use.
func (f *Sharded16) Insert(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Insert(h) }

// Contains reports whether h may be in the filter. Safe for concurrent use.
func (f *Sharded16) Contains(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded16) Remove(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Remove(h) }

// NumShards returns the shard count (a power of two).
func (f *sharded[S]) NumShards() int { return len(f.shards) }

// ShardCounts returns each shard's current item count, for balance
// diagnostics.
func (f *sharded[S]) ShardCounts() []uint64 {
	out := make([]uint64, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Count()
	}
	return out
}

// ShardSnapshots returns one full structural snapshot per shard, in shard
// order. fprFullLoad is the geometry's analytic full-load FPR (a constant
// shared by every shard). Cost is O(total blocks), same as one aggregate
// snapshot.
func (f *sharded[S]) ShardSnapshots(fprFullLoad float64) []stats.Snapshot {
	out := make([]stats.Snapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = stats.BuildSnapshot(s.Count(), s.Capacity(), s.SizeBytes(), fprFullLoad,
			s.BlockOccupancies(), s.SlotsPerBlock(), s.Stats())
	}
	return out
}

// Count returns the number of fingerprints stored across all shards.
func (f *sharded[S]) Count() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Count()
	}
	return n
}

// Capacity returns the total slots across all shards.
func (f *sharded[S]) Capacity() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Capacity()
	}
	return n
}

// LoadFactor returns Count divided by Capacity.
func (f *sharded[S]) LoadFactor() float64 { return float64(f.Count()) / float64(f.Capacity()) }

// SizeBytes returns the memory footprint summed over shards.
func (f *sharded[S]) SizeBytes() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.SizeBytes()
	}
	return n
}

// Stats returns operation counters summed across shards. Each shard's
// counters are private (no cross-shard contention); the sum inherits the
// per-counter exactness and monotonicity of the striped carriers.
func (f *sharded[S]) Stats() stats.OpCounts {
	var total stats.OpCounts
	for _, s := range f.shards {
		total = total.Add(s.Stats())
	}
	return total
}

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *sharded[S]) SlotsPerBlock() uint { return f.shards[0].SlotsPerBlock() }

// BlockOccupancies returns the concatenated per-block occupancies of every
// shard, in shard order — all shards share one geometry, so the combined
// vector feeds the same histogram a single filter's would.
func (f *sharded[S]) BlockOccupancies() []uint {
	var out []uint
	for _, s := range f.shards {
		out = append(out, s.BlockOccupancies()...)
	}
	return out
}

// SetEventRing attaches r to the sharded filter and every shard, so shard
// fallbacks and pool stalls land in one stream. Call before sharing the
// filter across goroutines.
func (f *sharded[S]) SetEventRing(r *telemetry.Ring) {
	f.ring = r
	for _, s := range f.shards {
		s.SetEventRing(r)
	}
}

// stallEvent records a sharded-batch pool that finished with idle workers:
// the shard partition was too skewed (or too small) to feed every claimed
// worker. active is the number of workers that claimed at least one
// non-empty shard segment out of a pool of w, over a batch of keys keys.
func stallEvent(ring *telemetry.Ring, active, w, keys int) {
	if ring != nil && active < w {
		ring.Record(telemetry.EvShardClaimStall, uint64(w-active), uint64(w), uint64(keys))
	}
}

// InsertBatch inserts the keys of hs in parallel with shard-disjoint
// workers, returning the number successfully inserted. Safe for concurrent
// use alongside any other operations.
func (f *sharded[S]) InsertBatch(hs []uint64) int { return f.apply(hs, S.InsertBatch, S.Insert) }

// RemoveBatch removes one instance of each key of hs in parallel with
// shard-disjoint workers, returning the number found and removed.
func (f *sharded[S]) RemoveBatch(hs []uint64) int { return f.apply(hs, S.RemoveBatch, S.Remove) }

// apply partitions hs by shard and applies the batch (whole partition) or
// single-key form of an operation with shard-disjoint workers; see the
// package comment for the contention argument.
func (f *sharded[S]) apply(hs []uint64, batch func(S, []uint64) int, op func(S, uint64) bool) int {
	if len(f.shards) == 1 {
		return batch(f.shards[0], hs)
	}
	sorted, bounds := shardPartition(hs, f.shardBits)
	w := shardBatchWorkers(len(hs), len(f.shards))
	if w == 1 {
		// One worker: keep the shard partition for locality but let each
		// shard's own batch path handle its segment (it may still fan out
		// across blocks if GOMAXPROCS allows).
		total := 0
		for s := range f.shards {
			if seg := sorted[bounds[s]:bounds[s+1]]; len(seg) > 0 {
				total += batch(f.shards[s], seg)
			}
		}
		return total
	}
	var cursor, total, active atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, fed := 0, false
			for {
				s := int(cursor.Add(1)) - 1
				if s >= len(f.shards) {
					break
				}
				seg := sorted[bounds[s]:bounds[s+1]]
				if len(seg) == 0 {
					continue
				}
				fed = true
				shard := f.shards[s]
				for _, h := range shard.batchSegment(seg) {
					if op(shard, h) {
						n++
					}
				}
			}
			if fed {
				active.Add(1)
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	stallEvent(f.ring, int(active.Load()), w, len(hs))
	return int(total.Load())
}

// ContainsBatch reports membership for every key of hs in input order;
// lookups run lock-free with shard-disjoint workers. The result reuses dst
// if it has sufficient capacity (dst may be nil).
//
// hs is partitioned by shard (segmented so int32 scatter indices always
// fit) and each shard's slice is scanned, inline or from shard-disjoint
// workers, by the shard's own containsScan.
func (f *sharded[S]) ContainsBatch(hs []uint64, dst []bool) []bool {
	if len(f.shards) == 1 {
		return f.shards[0].ContainsBatch(hs, dst)
	}
	out := resizeBools(dst, len(hs))
	nshards := len(f.shards)
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		seg, segOut := hs[off:end], out[off:end]
		sorted, idx, bounds := shardPartitionIdx(seg, f.shardBits)
		scan := func(s int) {
			if bounds[s] < bounds[s+1] {
				f.shards[s].containsScan(sorted, segOut, idx, bounds[s], bounds[s+1])
			}
		}
		w := shardBatchWorkers(len(seg), nshards)
		if w == 1 {
			for s := 0; s < nshards; s++ {
				scan(s)
			}
			continue
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(cursor.Add(1)) - 1
					if s >= nshards {
						break
					}
					scan(s)
				}
			}()
		}
		wg.Wait()
	}
	return out
}
