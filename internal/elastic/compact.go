package elastic

import (
	"vqf/internal/core"
	"vqf/internal/telemetry"
)

// Cascade compaction. Growth only ever appends levels, so after
// insert/remove churn a cascade carries many sparse frozen levels and every
// negative lookup pays one probe (≈ one cache miss) per level. Compaction
// walks runs of old levels through the core fingerprint iterator
// (IterateHashes) and rebuilds each run into one right-sized level, cutting
// the per-negative-lookup level count while preserving membership exactly.
//
// FPR accounting: the merged level's budget is the SUM of the merged
// levels' budgets εm = Σ εᵢ, so the cascade-wide invariant Σ budgets ≤ ε is
// untouched. The merged level is sized so that its realized FPR
// (geomFPR·load) stays within εm: it gets at least live·geomFPR/εm slots,
// and at least live/FillThreshold so the rebuild inserts cannot run out of
// two-choice headroom.
//
// Geometry constraints: a run merges only contiguous same-kind levels
// (fingerprints of different widths cannot mix in one block array), and the
// merged block count must not exceed any source level's (canonical hashes
// are only exchangeable across xor-linked filters when the destination mask
// is a suffix of every source mask; see internal/core/iterate.go). When the
// full run cannot satisfy that, the oldest (smallest) levels are dropped
// from the run until it fits or falls below two members.

// schedCap bounds the schedule index. Compaction lets the level LIST stay
// short while the schedule index keeps advancing, so the MaxLevels check no
// longer bounds it; the cap exists for the uint16 serialization field and
// as a runaway backstop (the ever-shrinking per-level budgets make the
// allocation sizes explode long before it is reached).
const schedCap = 1 << 12

// CompactionResult summarizes one CompactNow call.
type CompactionResult struct {
	// LevelsBefore and LevelsAfter are the cascade depths around the call.
	LevelsBefore int
	LevelsAfter  int
	// LevelsMerged is the number of source levels rebuilt into merged
	// levels (0 when no run qualified; LevelsBefore − LevelsAfter +
	// number of merged levels produced).
	LevelsMerged int
}

// levelRun is one contiguous candidate range [lo, hi) of the level list.
type levelRun struct{ lo, hi int }

// vqfRuns returns the maximal runs of contiguous same-kind VQF levels among
// the frozen levels ls[:len(ls)-1] that pass the gate (nil gate accepts
// everything). The newest level still receives inserts and is never a
// source; immutable fuse levels cannot be rebuilt by reinsertion and break
// runs.
func vqfRuns(ls []*level, gate func(*level) bool) []levelRun {
	var runs []levelRun
	frozen := len(ls) - 1
	for lo := 0; lo < frozen; {
		if ls[lo].fused() || (gate != nil && !gate(ls[lo])) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < frozen && ls[hi].kind() == ls[lo].kind() && (gate == nil || gate(ls[hi])) {
			hi++
		}
		runs = append(runs, levelRun{lo, hi})
		lo = hi
	}
	return runs
}

// compactRuns returns the vqfRuns with at least two members: the units a
// merge can shrink.
func compactRuns(ls []*level) []levelRun {
	var runs []levelRun
	for _, r := range vqfRuns(ls, nil) {
		if r.hi-r.lo >= 2 {
			runs = append(runs, r)
		}
	}
	return runs
}

// newMergedLevel allocates the destination level of a rebuild: nblocks
// mini-filter blocks of geometry g, budget εm.
func (s *cascadeState) newMergedLevel(g *core.Geometry, nblocks uint64, budget float64) *level {
	slots := nblocks * g.Slots
	return s.vqfLevel(g, slots, budget, max(1, uint64(s.cfg.FillThreshold*float64(slots))))
}

// summarize returns a run's summed budget and its smallest block count (the
// cross-mask bound every rebuild destination must respect).
func summarize(run []*level) (budget float64, minBlocks uint64) {
	minBlocks = run[0].filter.NumBlocks()
	for _, l := range run {
		budget += l.budget
		minBlocks = min(minBlocks, l.filter.NumBlocks())
	}
	return budget, minBlocks
}

// blocksNeeded returns the block count a VQF level of geometry g needs to
// hold live items within budget: enough slots that the realized FPR at the
// live load stays within the budget, and enough fill headroom for the
// rebuild inserts.
func blocksNeeded(cfg Config, g *core.Geometry, live uint64, budget float64) uint64 {
	return g.Blocks(uint64(max(float64(live)/cfg.FillThreshold, float64(live)*g.FPR/budget)))
}

// mergeBlocks returns the block count for merging the run holding live
// items, or 0 when the run cannot be merged within its constraints: the
// summed budget εm and fill headroom of blocksNeeded, and no more blocks
// than the smallest source (the cross-mask soundness bound). Taking live as
// a parameter lets quietRemoves search for the largest live count that
// merges.
func mergeBlocks(cfg Config, run []*level, live uint64) uint64 {
	budget, minBlocks := summarize(run)
	if nblocks := blocksNeeded(cfg, run[0].geom, live, budget); nblocks <= minBlocks {
		return nblocks
	}
	return 0
}

// rebuild iterates every source level into a fresh VQF level of geometry g
// and the given budget, starting at nblocks blocks. On an insert failure
// (block-pair overflow despite the fill headroom) the destination is
// doubled and rebuilt, up to maxBlocks (the cross-mask bound); nil means
// the sources could not be rebuilt and the caller keeps them.
func (s *cascadeState) rebuild(srcs []*level, g *core.Geometry, nblocks, maxBlocks uint64, budget float64) *level {
	for ; nblocks <= maxBlocks; nblocks *= 2 {
		dst := s.newMergedLevel(g, nblocks, budget)
		ok := true
		for _, src := range srcs {
			if ok = src.filter.IterateHashes(dst.filter.Insert); !ok {
				break
			}
		}
		if ok {
			return dst
		}
	}
	return nil
}

// shrinkRun drops the oldest (smallest, and therefore most constraining)
// levels from the run until it can be merged, returning the usable suffix
// and its block count; ok is false when no ≥2-level suffix fits.
func shrinkRun(cfg Config, run []*level) (sub []*level, nblocks uint64, ok bool) {
	for len(run) >= 2 {
		if nblocks = mergeBlocks(cfg, run, sumCounts(run)); nblocks != 0 {
			return run, nblocks, true
		}
		run = run[1:]
	}
	return nil, 0, false
}

// planRun partitions one candidate run into mergeable segments, newest
// first. shrinkRun finds the longest mergeable suffix; the dropped prefix —
// typically the oldest, near-empty levels whose small block counts bound the
// suffix's destination geometry — is then planned as a run of its own. A
// churned cascade thus collapses to one merged level per geometry class
// instead of stranding a head of sparse little levels that every negative
// lookup would keep probing. Plans are returned in descending hi order with
// disjoint segments, so splicing them in order keeps earlier indices valid.
func planRun(cfg Config, r levelRun, ls []*level) []splice {
	var plans []splice
	hi := r.hi
	for hi-r.lo >= 2 {
		seg := ls[r.lo:hi]
		if sumCounts(seg) == 0 {
			// All-empty segment (shrinkRun never selects an empty strict
			// suffix: empty suffixes always merge, so emptiness only
			// surfaces for the whole segment): drop it outright rather
			// than spuriously allocate a merged level for zero items.
			plans = append(plans, splice{hi: hi, sub: seg})
			break
		}
		sub, nblocks, ok := shrinkRun(cfg, seg)
		if !ok {
			break
		}
		plans = append(plans, splice{hi: hi, sub: sub, build: func(s *cascadeState) *level {
			budget, minBlocks := summarize(sub)
			return s.rebuild(sub, sub[0].geom, nblocks, minBlocks, budget)
		}})
		hi -= len(sub)
	}
	return plans
}

// planCompaction plans every qualifying run of the frozen levels. Plans
// come out in descending hi order (runs back to front, and planRun yields
// newest-first within a run), so splicing them in order keeps earlier
// indices valid.
func planCompaction(cfg Config, ls []*level) []splice {
	var plans []splice
	runs := compactRuns(ls)
	for i := len(runs) - 1; i >= 0; i-- {
		plans = append(plans, planRun(cfg, runs[i], ls)...)
	}
	return plans
}

// compactEvents are compaction's telemetry names.
var compactEvents = opEvents{"vqf.elastic.compact", telemetry.EvCompactStart, telemetry.EvCompactFinish}

// CompactNow merges every qualifying run of frozen levels, synchronously,
// through the structural-op engine (see restructure): on CFilter readers
// stay lock-free and writers keep writing. It returns how many levels were
// merged away (zero when nothing qualified — a cascade still growing, or
// runs whose geometry constraints could not be met).
func (s *cascadeState) CompactNow() CompactionResult {
	r := s.restructure(compactEvents, &s.compactions, func(ls []*level) []splice {
		return planCompaction(s.cfg, ls)
	})
	return CompactionResult{LevelsBefore: r.before, LevelsAfter: r.after, LevelsMerged: r.spliced}
}

// compactLoadOK is the load half of the automatic compaction trigger: the
// frozen levels' count at or below CompactMaxLoad of their capacity.
func compactLoadOK(cfg Config, count, capacity uint64) bool {
	return float64(count) <= cfg.CompactMaxLoad*float64(capacity)
}

// compactTrigger reports whether the automatic compaction trigger holds:
// at least CompactMinLevels levels, and the frozen levels loaded at or
// below CompactMaxLoad. Compacting shrinks the level count, so the next
// trigger needs regrowth — the policy cannot thrash.
func compactTrigger(cfg Config, ls []*level) bool {
	if cfg.CompactMinLevels == 0 || len(ls) < cfg.CompactMinLevels {
		return false
	}
	frozen := ls[:len(ls)-1]
	return compactLoadOK(cfg, sumCounts(frozen), sumCapacities(frozen))
}

// CompactNow compacts every shard, summing the per-shard results.
func (f *Sharded) CompactNow() CompactionResult {
	var res CompactionResult
	for _, s := range f.shards {
		r := s.CompactNow()
		res.LevelsBefore += r.LevelsBefore
		res.LevelsAfter += r.LevelsAfter
		res.LevelsMerged += r.LevelsMerged
	}
	return res
}
