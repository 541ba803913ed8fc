package vqf

import (
	"time"

	"vqf/internal/core"
	"vqf/internal/elastic"
	"vqf/internal/telemetry"
)

// NewSharded returns a concurrent filter sized for n items and split into
// nshards independent shards (rounded up to a power of two, clamped to
// [1, 256]) selected by the top hash bits. Each shard is a self-contained
// concurrent filter with private locks, version stripes, and counters, so
// operations on different shards share no mutable cache lines at all —
// sharding multiplies every contended resource by the shard count, which is
// what turns per-core throughput into multi-core throughput on insert-heavy
// workloads. Sizing and options are as for New; the filter's semantics
// (bounded false-positive rate, no false negatives, removability) are
// identical to NewConcurrent.
//
// Batch operations (AddHashBatch and friends) partition keys by shard and
// fan out over shard-disjoint workers, so two workers never touch the same
// shard.
func NewSharded(n uint64, nshards int, opts ...Option) *Filter {
	return newFilter(n, opts, true, func(g geometry, slots uint64, o core.Options) hashedFilter {
		if g.is16 {
			return core.NewSharded16(slots, nshards, o)
		}
		return core.NewSharded8(slots, nshards, o)
	})
}

// NumShards returns the filter's shard count: 1 for filters from New and
// NewConcurrent, the (rounded-up) configured count for NewSharded.
func (f *Filter) NumShards() int {
	if s, ok := f.impl.(interface{ NumShards() int }); ok {
		return s.NumShards()
	}
	return 1
}

// NewShardedElastic returns a growing filter split into nshards independent
// concurrent cascades selected by the top hash bits. Each shard grows on
// its own schedule, so one shard appending a level never serializes inserts
// into the others. Every query probes exactly one shard, whose cascade
// honors the full configured false-positive budget, so the sharded filter's
// rate is bounded by the same ε with no budget splitting. Options are as
// for NewElastic; the configured initial capacity is divided across shards.
//
// Sharded elastic filters do not support serialization.
func NewShardedElastic(nshards int, opts ...Option) *Elastic {
	ec, c, err := elasticConfig(opts)
	if err != nil {
		panic(err)
	}
	impl, err := elastic.NewSharded(ec, nshards)
	if err != nil {
		panic(err)
	}
	e := &Elastic{impl: impl, seed: c.seed}
	e.initObservability(c.latencyRate, true)
	return e
}

// NumShards returns the elastic filter's shard count (1 unless built by
// NewShardedElastic).
func (e *Elastic) NumShards() int {
	if s, ok := e.impl.(interface{ NumShards() int }); ok {
		return s.NumShards()
	}
	return 1
}

// batchFilter is the batch surface shared by every core variant (sequential,
// concurrent, and sharded, in both geometries).
type batchFilter interface {
	InsertBatch(hs []uint64) int
	ContainsBatch(hs []uint64, dst []bool) []bool
	RemoveBatch(hs []uint64) int
}

// AddHashBatch inserts a slice of pre-hashed keys and returns the number
// successfully inserted (the rest hit full blocks; see ErrFull). Keys are
// processed in a cache-friendly order — sorted by block, and on sharded
// filters partitioned across shard-disjoint parallel workers — which is
// substantially faster than a loop over AddHash for large batches. On
// concurrent filters it is safe alongside any other operations.
func (f *Filter) AddHashBatch(hs []uint64) int {
	end := telemetry.Region("vqf.batch.insert")
	start := time.Now()
	n := 0
	if b, ok := f.impl.(batchFilter); ok {
		n = b.InsertBatch(hs)
	} else {
		for _, h := range hs {
			if f.impl.Insert(h) {
				n++
			}
		}
	}
	f.rec.RecordBatch(telemetry.OpInsertBatch, 0, time.Since(start), len(hs))
	end()
	return n
}

// ContainsHashBatch reports membership for each pre-hashed key of hs, in
// input order. The result reuses dst if it has sufficient capacity (dst may
// be nil). On concurrent filters lookups run lock-free.
func (f *Filter) ContainsHashBatch(hs []uint64, dst []bool) []bool {
	end := telemetry.Region("vqf.batch.lookup")
	start := time.Now()
	var out []bool
	if b, ok := f.impl.(batchFilter); ok {
		out = b.ContainsBatch(hs, dst)
	} else {
		out = dst
		if cap(out) < len(hs) {
			out = make([]bool, len(hs))
		}
		out = out[:len(hs)]
		for i, h := range hs {
			out[i] = f.impl.Contains(h)
		}
	}
	f.rec.RecordBatch(telemetry.OpLookupBatch, 0, time.Since(start), len(hs))
	end()
	return out
}

// RemoveHashBatch removes one instance of each pre-hashed key of hs and
// returns the number found and removed.
func (f *Filter) RemoveHashBatch(hs []uint64) int {
	end := telemetry.Region("vqf.batch.remove")
	start := time.Now()
	n := 0
	if b, ok := f.impl.(batchFilter); ok {
		n = b.RemoveBatch(hs)
	} else {
		for _, h := range hs {
			if f.impl.Remove(h) {
				n++
			}
		}
	}
	f.rec.RecordBatch(telemetry.OpRemoveBatch, 0, time.Since(start), len(hs))
	end()
	return n
}
