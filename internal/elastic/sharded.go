package elastic

import (
	"vqf/internal/core"
	"vqf/internal/stats"
)

// Sharded is a sharded thread-safe elastic filter: a power-of-two array of
// independent concurrent cascades, selected by the top hash bits (core.ShardOf,
// the selector the sharded core filters use — the cascade levels consume
// only lower hash bits). Each shard grows independently, so a growth in one
// shard never serializes inserts in another; with a uniform hash the shards
// stay within a few percent of each other in depth and load.
//
// Each shard's FPR is bounded by the configured budget ε, and a query
// probes exactly one shard, so the sharded cascade's FPR is bounded by the
// same ε — no budget splitting across shards is needed.
type Sharded struct {
	shards    []*CFilter
	shardBits uint
	cfg       Config
}

// NewSharded creates a sharded concurrent cascade with nshards shards
// (rounded up to a power of two, clamped to [1, 256]). cfg.InitialSlots is
// the whole filter's initial budget; each shard starts at its 1/nshards
// share (floored at one block) and grows on its own schedule.
func NewSharded(cfg Config, nshards int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bits := core.ShardBitsFor(nshards)
	n := 1 << bits
	per := cfg.InitialSlots / uint64(n)
	if per < minSlotsPerShard {
		per = minSlotsPerShard
	}
	shardCfg := cfg
	shardCfg.InitialSlots = per
	f := &Sharded{shards: make([]*CFilter, n), shardBits: bits, cfg: cfg}
	for i := range f.shards {
		s, err := NewConcurrent(shardCfg)
		if err != nil {
			return nil, err
		}
		f.shards[i] = s
	}
	return f, nil
}

// minSlotsPerShard keeps a shard's first level at least one 8-bit block even
// when the configured initial budget divides below it.
const minSlotsPerShard = 48

// NumShards returns the shard count (a power of two).
func (f *Sharded) NumShards() int { return len(f.shards) }

func (f *Sharded) shard(h uint64) *CFilter { return f.shards[core.ShardOf(h, f.shardBits)] }

// Insert adds the pre-hashed key h to its shard, growing that shard as
// needed. Safe for concurrent use.
func (f *Sharded) Insert(h uint64) bool { return f.shard(h).Insert(h) }

// Contains reports whether h may be in the filter, probing only h's shard.
// Safe for concurrent use and lock-free.
func (f *Sharded) Contains(h uint64) bool { return f.shard(h).Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded) Remove(h uint64) bool { return f.shard(h).Remove(h) }

// Count returns the number of items stored across all shards.
func (f *Sharded) Count() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Count()
	}
	return n
}

// Capacity returns the total allocated fingerprint slots across all shards.
func (f *Sharded) Capacity() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Capacity()
	}
	return n
}

// SizeBytes returns the memory footprint summed over shards.
func (f *Sharded) SizeBytes() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.SizeBytes()
	}
	return n
}

// NumLevels returns the deepest shard's cascade depth (shards grow
// independently, so depths can differ by a level around growth points).
func (f *Sharded) NumLevels() int {
	max := 0
	for _, s := range f.shards {
		if n := s.NumLevels(); n > max {
			max = n
		}
	}
	return max
}

// TargetFPR returns the configured total false-positive budget ε, which
// every shard — and therefore every query — honors.
func (f *Sharded) TargetFPR() float64 { return f.cfg.TargetFPR }

// Stats returns operation counters summed over all shards' levels.
func (f *Sharded) Stats() stats.OpCounts {
	var total stats.OpCounts
	for _, s := range f.shards {
		total = total.Add(s.Stats())
	}
	return total
}

// ShardSnapshots returns one aggregate cascade snapshot per shard, in
// shard order — the per-shard heat view (each shard's count, load, and op
// counters) behind the sharded imbalance metric.
func (f *Sharded) ShardSnapshots() []stats.Snapshot {
	out := make([]stats.Snapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Snapshot().Aggregate
	}
	return out
}

// Snapshot returns the sharded cascade's structural snapshot. Levels[i]
// merges level i across every shard that has one — shards share a config,
// so level i has the same geometry in every shard and the merge is exact
// as long as the shards have compacted in lockstep (CompactNow compacts
// all shards together; independent auto-triggered compactions can briefly
// misalign level indices, making the per-level merge approximate until the
// shards converge). The aggregate gauges are always exact. The aggregate
// follows the CascadeSnapshot convention: FPRFullLoad is the configured
// budget ε, FPREstimate the sum of merged per-level estimates, and
// Occupancy the newest level's merged distribution.
func (f *Sharded) Snapshot() stats.CascadeSnapshot {
	subs := make([]stats.CascadeSnapshot, len(f.shards))
	depth := 0
	for i, s := range f.shards {
		subs[i] = s.Snapshot()
		if n := len(subs[i].Levels); n > depth {
			depth = n
		}
	}
	cs := stats.CascadeSnapshot{Levels: make([]stats.Snapshot, depth)}
	for _, sub := range subs {
		cs.Compactions += sub.Compactions
		cs.CompactionLevelsMerged += sub.CompactionLevelsMerged
		cs.Freezes += sub.Freezes
		cs.FreezeLevelsFrozen += sub.FreezeLevelsFrozen
		cs.Thaws += sub.Thaws
		cs.BudgetReclaimed += sub.BudgetReclaimed
	}
	var fprSum float64
	for lvl := 0; lvl < depth; lvl++ {
		var merged stats.Snapshot
		for _, sub := range subs {
			if lvl < len(sub.Levels) {
				merged = merged.Merge(sub.Levels[lvl])
			}
		}
		cs.Levels[lvl] = merged
		fprSum += merged.FPREstimate
	}
	newest := cs.Levels[depth-1]
	cs.Aggregate = stats.Snapshot{
		Count:       f.Count(),
		Capacity:    f.Capacity(),
		SizeBytes:   f.SizeBytes(),
		FPRFullLoad: f.cfg.TargetFPR,
		FPREstimate: fprSum,
		Occupancy:   newest.Occupancy,
		Ops:         f.Stats(),
	}
	if cs.Aggregate.Capacity > 0 {
		cs.Aggregate.LoadFactor = float64(cs.Aggregate.Count) / float64(cs.Aggregate.Capacity)
	}
	if cs.Aggregate.Count > 0 {
		cs.Aggregate.BitsPerItem = float64(cs.Aggregate.SizeBytes) * 8 / float64(cs.Aggregate.Count)
	}
	return cs
}
