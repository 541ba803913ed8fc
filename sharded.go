package vqf

import (
	"vqf/internal/core"
	"vqf/internal/elastic"
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
	return newFilter(n, opts, true, func(g *core.Geometry, slots uint64, o core.Options) filterImpl {
		if g == core.Geom8 {
			return core.NewSharded8(slots, nshards, o)
		}
		return core.NewSharded16(slots, nshards, o)
	})
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
	return newElastic(opts, true, func(ec elastic.Config) (elasticImpl, error) {
		return elastic.NewSharded(ec, nshards)
	})
}
