package stats

import "math"

// Occupancy is a per-block occupancy distribution: how evenly the
// power-of-two-choices placement spread items over blocks (the dispersion
// behavior of the paper's Theorem 1). Built from a filter's block-occupancy
// vector by BuildOccupancy.
type Occupancy struct {
	SlotsPerBlock uint   `json:"slots_per_block"`
	Blocks        uint64 `json:"blocks"`
	// Histogram[i] is the number of blocks holding exactly i fingerprints;
	// its length is SlotsPerBlock+1.
	Histogram []uint64 `json:"histogram"`
	Min       uint     `json:"min"`
	Max       uint     `json:"max"`
	Mean      float64  `json:"mean"`
	Stddev    float64  `json:"stddev"`
	// FullBlocks is Histogram[SlotsPerBlock]: blocks that can accept no more
	// insertions.
	FullBlocks uint64 `json:"full_blocks"`
}

// BuildOccupancy summarizes a block-occupancy vector. Occupancies above
// slotsPerBlock are clamped into the top bucket (they cannot occur on a
// quiesced filter, but a concurrent snapshot is taken block-by-block and
// tolerates sampling skew rather than propagating it).
func BuildOccupancy(occs []uint, slotsPerBlock uint) Occupancy {
	o := Occupancy{
		SlotsPerBlock: slotsPerBlock,
		Blocks:        uint64(len(occs)),
		Histogram:     make([]uint64, slotsPerBlock+1),
	}
	if len(occs) == 0 {
		return o
	}
	o.Min = slotsPerBlock + 1
	var sum, sumsq float64
	for _, occ := range occs {
		if occ > slotsPerBlock {
			occ = slotsPerBlock
		}
		o.Histogram[occ]++
		if occ < o.Min {
			o.Min = occ
		}
		if occ > o.Max {
			o.Max = occ
		}
		sum += float64(occ)
		sumsq += float64(occ) * float64(occ)
	}
	n := float64(len(occs))
	o.Mean = sum / n
	o.Stddev = math.Sqrt(math.Max(sumsq/n-o.Mean*o.Mean, 0))
	o.FullBlocks = o.Histogram[slotsPerBlock]
	return o
}

// Snapshot is a filter's full observable state: structural gauges, the
// occupancy distribution, and the operation counters. Building one walks
// every block, so it costs O(blocks) — cheap enough to serve on a metrics
// endpoint, too expensive for a per-operation path.
type Snapshot struct {
	// Count and Capacity are items stored and total fingerprint slots;
	// LoadFactor is their ratio.
	Count      uint64  `json:"count"`
	Capacity   uint64  `json:"capacity"`
	LoadFactor float64 `json:"load_factor"`
	// SizeBytes is the filter's memory footprint; BitsPerItem is
	// SizeBytes·8/Count (0 when empty).
	SizeBytes   uint64  `json:"size_bytes"`
	BitsPerItem float64 `json:"bits_per_item"`
	// FPRFullLoad is the analytic false-positive rate at 100% load
	// (2·(s/b)·2⁻ʳ, paper §5); FPREstimate scales it by the current load
	// factor, since the realized rate is proportional to occupancy.
	FPRFullLoad float64 `json:"fpr_full_load"`
	FPREstimate float64 `json:"fpr_estimate"`

	Occupancy Occupancy `json:"occupancy"`
	Ops       OpCounts  `json:"ops"`
}

// CascadeSnapshot is the structural snapshot of a multi-level (elastic)
// filter: an aggregate over the whole cascade plus one Snapshot per level,
// oldest level first. In the aggregate, FPRFullLoad carries the configured
// total budget ε, FPREstimate the sum of per-level realized estimates (the
// quantity the budget bounds), and Occupancy the newest level's
// distribution — levels can mix fingerprint geometries, so their histograms
// do not merge meaningfully.
type CascadeSnapshot struct {
	Aggregate Snapshot   `json:"aggregate"`
	Levels    []Snapshot `json:"levels"`
	// Compactions counts completed compaction passes that merged at least
	// one run; CompactionLevelsMerged counts the source levels those passes
	// rebuilt away. Both are monotone counters over the filter's lifetime.
	Compactions            uint64 `json:"compactions"`
	CompactionLevelsMerged uint64 `json:"compaction_levels_merged"`
	// Freezes counts completed freeze passes that rebuilt at least one run
	// into the immutable fuse tier; FreezeLevelsFrozen counts the source
	// VQF levels those passes retired; Thaws counts fuse levels rebuilt
	// back into live form after tombstone pressure. All monotone.
	Freezes            uint64 `json:"freezes"`
	FreezeLevelsFrozen uint64 `json:"freeze_levels_frozen"`
	Thaws              uint64 `json:"thaws"`
	// BudgetReclaimed is the false-positive budget retired from dropped
	// (emptied) levels — part of the cascade invariant
	// Σ level budgets + BudgetReclaimed + future schedule = ε.
	BudgetReclaimed float64 `json:"budget_reclaimed"`
}

// ShardedSnapshot is the structural snapshot of a sharded filter: the
// merged aggregate, one Snapshot per shard (in shard-index order), and the
// shard-heat imbalance metric. Imbalance is max/mean over per-shard item
// counts: 1.0 is a perfectly balanced filter, NumShards is the worst case
// (all items in one shard), and 0 means the filter is empty. A uniform
// hash keeps it within a few percent of 1; sustained higher values mean
// the workload's hashes are skewed in their top (shard-selector) bits.
type ShardedSnapshot struct {
	Aggregate Snapshot   `json:"aggregate"`
	Shards    []Snapshot `json:"shards"`
	Imbalance float64    `json:"imbalance"`
}

// BuildShardedSnapshot assembles a ShardedSnapshot and computes the
// imbalance metric from the per-shard counts.
func BuildShardedSnapshot(aggregate Snapshot, shards []Snapshot) ShardedSnapshot {
	s := ShardedSnapshot{Aggregate: aggregate, Shards: shards}
	var total, max uint64
	for i := range shards {
		total += shards[i].Count
		if shards[i].Count > max {
			max = shards[i].Count
		}
	}
	if total > 0 && len(shards) > 0 {
		mean := float64(total) / float64(len(shards))
		s.Imbalance = float64(max) / mean
	}
	return s
}

// BuildSnapshot assembles a Snapshot from the primitive readings every
// introspectable filter exposes.
func BuildSnapshot(count, capacity, sizeBytes uint64, fprFullLoad float64, occs []uint, slotsPerBlock uint, ops OpCounts) Snapshot {
	s := Snapshot{
		Count:       count,
		Capacity:    capacity,
		SizeBytes:   sizeBytes,
		FPRFullLoad: fprFullLoad,
		Occupancy:   BuildOccupancy(occs, slotsPerBlock),
		Ops:         ops,
	}
	if capacity > 0 {
		s.LoadFactor = float64(count) / float64(capacity)
	}
	if count > 0 {
		s.BitsPerItem = float64(sizeBytes) * 8 / float64(count)
	}
	s.FPREstimate = fprFullLoad * s.LoadFactor
	return s
}
