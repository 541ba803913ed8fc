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
// Batch writes radix-sort the keys by shard and fan the shards out over a
// worker pool in which each worker *owns* the shards it claims
// (atomic-cursor claiming, see claim): two workers never write the same
// shard, so batch writers contend on nothing at all — not even the
// secondary-block collisions the single-filter parallel batches retain.
// Within its claimed shard a worker sorts again by primary block for the
// sequential sweep locality of the non-sharded batch path. Batch lookups
// need no ownership: they answer in caller order through the validated
// batch kernel, which reads the shards as one table and picks each key's
// shard by its top bits, cut into contiguous chunks when the batch is large
// enough to fan out.

import (
	"io"

	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// maxShardBits bounds the shard count to 256: beyond the core counts of any
// machine this code plausibly meets, and it keeps the shard radix one byte.
const maxShardBits = 8

// shardBitsFor returns ceil(log2(n)) clamped to [0, 8], the shard-index
// width of a filter with n shards rounded up to a power of two and capped at
// 256; n <= 0 selects a single shard.
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

// shardFilter is the shard surface the sharded shell uses: a concurrent
// filter, *CFilter8 or *CFilter16. Its per-key lookup is called only for
// keys the batch kernel hands back; the single-key paths
// (Sharded8/16.Insert etc.) call the concrete shard type.
type shardFilter interface {
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	Stats() stats.OpCounts
	BlockOccupancies() []uint
	SlotsPerBlock() uint
	SetEventRing(r *telemetry.Ring)
	WriteTo(w io.Writer) (int64, error)
	sweep(hs []uint64, w int, remove bool) int
	Geometry() *Geometry
	contains(h, sel uint64) bool
	counters() *stats.Striped
	lockedArray() minifilter.LockedArray
}

// sharded is the shell of Sharded8 and Sharded16: an array of concurrent
// shards selected by the top hash bits. All single-key operations delegate
// to one shard; batch writes partition by shard and run shard-disjoint
// workers, batch lookups read the shards as one kernel table.
type sharded[S shardFilter] struct {
	shards    []S
	shardBits uint
	ring      *telemetry.Ring

	// tab holds every shard's entry of the validated batch kernel's table,
	// in shard order; sorts parks the batch writers' shard-sort buffer.
	tab   []minifilter.LockedArray
	sorts sortBuf
}

// newShards creates nshards shards (rounded up to a power of two, clamped
// to [1, 256]), each sized for its share of nslots.
func newShards[S shardFilter](nslots uint64, nshards int, opts Options, newShard func(uint64, Options) S) []S {
	n := uint64(1) << shardBitsFor(nshards)
	per := (nslots + n - 1) / n
	shards := make([]S, n)
	for i := range shards {
		shards[i] = newShard(per, opts)
	}
	return shards
}

// init adopts shards, a power-of-two count of at most 256, and builds the
// batch kernel's table over them.
func (f *sharded[S]) init(shards []S) {
	f.shards, f.shardBits = shards, shardBitsFor(len(shards))
	f.tab = make([]minifilter.LockedArray, len(shards))
	for i, s := range shards {
		f.tab[i] = s.lockedArray()
	}
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
	f := new(Sharded8)
	f.init(newShards(nslots, nshards, opts, NewCFilter8))
	return f
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
	f := new(Sharded16)
	f.init(newShards(nslots, nshards, opts, NewCFilter16))
	return f
}

// Insert adds the pre-hashed key h to its shard. Safe for concurrent use.
func (f *Sharded16) Insert(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Insert(h) }

// Contains reports whether h may be in the filter. Safe for concurrent use.
func (f *Sharded16) Contains(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded16) Remove(h uint64) bool { return f.shards[shardOf(h, f.shardBits)].Remove(h) }

// ContainsBatch reports membership for every key of hs in input order:
// result[i] corresponds to hs[i]. Lookups run lock-free through the
// validated batch kernel, in parallel over contiguous chunks of hs when the
// batch is large enough. The result reuses dst if it has sufficient
// capacity (dst may be nil). Safe for concurrent use.
func (f *sharded[S]) ContainsBatch(hs []uint64, dst []bool) []bool { return lookupBatch(f, hs, dst) }

// containsRange answers out[i] = Contains(hs[i]) in caller order through
// the validated batch kernel over every shard at once, and through the
// key's shard's per-key contains for each key the kernel hands back and for
// every key where it is unavailable. Like cfilter.containsRange it counts
// on the stats stripe of the range's first key, per shard: the shard's keys
// as one batch, then, once perKey has taken out the keys it answered, the
// shard's kernel-answered keys as one Probed.
func (f *sharded[S]) containsRange(hs []uint64, out []bool) {
	var keys [1 << maxShardBits]int
	for _, h := range hs {
		keys[uint8(shardOf(h, f.shardBits))]++
	}
	for s, n := range keys[:len(f.shards)] {
		if n > 0 {
			f.shards[s].counters().Batch(n)
		}
	}
	sel := hs[0]
	perKey := func(i int) {
		s := shardOf(hs[i], f.shardBits)
		keys[uint8(s)]--
		out[i] = f.shards[s].contains(hs[i], sel)
	}
	i, _ := probeLocked(f.Geometry(), f.tab, hs, out, func(i int) {
		f.shards[shardOf(hs[i], f.shardBits)].counters().Probed(sel, 0, 1)
		perKey(i)
	})
	for ; i < len(hs); i++ {
		perKey(i)
	}
	for s, n := range keys[:len(f.shards)] {
		if n > 0 {
			f.shards[s].counters().Probed(sel, n, 0)
		}
	}
}

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

// Geometry returns the block geometry every shard shares.
func (f *sharded[S]) Geometry() *Geometry { return f.shards[0].Geometry() }

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
func (f *sharded[S]) InsertBatch(hs []uint64) int { return f.apply(hs, false) }

// RemoveBatch removes one instance of each key of hs in parallel with
// shard-disjoint workers, returning the number found and removed.
func (f *sharded[S]) RemoveBatch(hs []uint64) int { return f.apply(hs, true) }

// apply radix-sorts hs by shard and sweeps each shard's keys — inserting
// them, or removing them when remove is set — on shard-disjoint workers;
// see the package comment for the contention argument. A single shard
// sweeps the whole batch with its own worker pool. Like cfilter.sweep, it
// sorts into the parked buffer and builds a closure only for the parallel
// path, so one worker allocates nothing.
func (f *sharded[S]) apply(hs []uint64, remove bool) int {
	if len(f.shards) == 1 {
		return f.shards[0].sweep(hs, batchWorkers(len(hs), batchShards), remove)
	}
	buf := f.sorts.take(len(hs))
	defer f.sorts.park(buf)
	sorted, bounds := radixSort(hs, *buf, shardDigit(f.shardBits))
	w := batchWorkers(len(hs), len(f.shards))
	if w == 1 {
		n := 0
		for s, sh := range f.shards {
			if lo, hi := bounds[s], bounds[s+1]; lo < hi {
				n += sh.sweep(sorted[lo:hi], 1, remove)
			}
		}
		return n
	}
	n, active := claim(w, bounds[:len(f.shards)+1], func(lo, hi, s int) int {
		return f.shards[s].sweep(sorted[lo:hi], 1, remove)
	})
	stallEvent(f.ring, active, w, len(hs))
	return n
}
