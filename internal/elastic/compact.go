package elastic

import (
	"sync"
	"time"

	"vqf/internal/core"
	"vqf/internal/minifilter"
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

// compactRun is one contiguous candidate range [lo, hi) of the level list.
type compactRun struct{ lo, hi int }

// compactRuns returns the maximal runs of ≥2 contiguous same-kind VQF
// levels among the frozen levels ls[:len(ls)-1] (the newest level still
// receives inserts and is never merged; immutable fuse levels cannot be
// rebuilt by reinsertion and break runs).
func compactRuns(ls []*level) []compactRun {
	var runs []compactRun
	frozen := len(ls) - 1
	for lo := 0; lo < frozen; {
		if !vqfKind(ls[lo].kind) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < frozen && ls[hi].kind == ls[lo].kind {
			hi++
		}
		if hi-lo >= 2 {
			runs = append(runs, compactRun{lo, hi})
		}
		lo = hi
	}
	return runs
}

// newMergedLevel allocates the destination level of a merge: kind and
// concurrency from the sources, nblocks mini-filter blocks, budget εm.
func newMergedLevel(cfg Config, kind uint8, nblocks uint64, budget float64) *level {
	spb := uint64(minifilter.B8Slots)
	geom := FPR8Full
	if kind == 16 {
		spb = minifilter.B16Slots
		geom = FPR16Full
	}
	slots := nblocks * spb
	lvl := &level{
		kind:    kind,
		budget:  budget,
		trigger: uint64(cfg.FillThreshold * float64(slots)),
		geomFPR: geom,
	}
	if lvl.trigger == 0 {
		lvl.trigger = 1
	}
	opts := core.Options{NoShortcut: cfg.NoShortcut}
	switch {
	case kind == 8 && cfg.Concurrent:
		lvl.filter = core.NewCFilter8(slots, opts)
	case kind == 8:
		lvl.filter = core.NewFilter8(slots, opts)
	case cfg.Concurrent:
		lvl.filter = core.NewCFilter16(slots, opts)
	default:
		lvl.filter = core.NewFilter16(slots, opts)
	}
	return lvl
}

// mergeBlocks returns the block count for merging the run holding live
// items, or 0 when the run cannot be merged within its constraints: enough
// slots that the realized FPR at the live load stays within the summed
// budget εm, enough fill headroom for the rebuild inserts, and no more
// blocks than the smallest source (the cross-mask soundness bound). Taking
// live as a parameter lets quietRemoves search for the largest live count
// that merges.
func mergeBlocks(cfg Config, run []*level, live uint64) uint64 {
	spb := uint64(run[0].filter.SlotsPerBlock())
	minBlocks := run[0].filter.NumBlocks()
	var budget float64
	for _, l := range run {
		budget += l.budget
		if nb := l.filter.NumBlocks(); nb < minBlocks {
			minBlocks = nb
		}
	}
	need := float64(live) / cfg.FillThreshold
	if byFPR := float64(live) * run[0].geomFPR / budget; byFPR > need {
		need = byFPR
	}
	nblocks := core.BlocksFor(uint64(need), spb)
	if nblocks > minBlocks {
		return 0
	}
	return nblocks
}

// rebuildRun iterates every source level of the run into a fresh merged
// level. On an insert failure (block-pair overflow despite the fill
// headroom) the destination is doubled and rebuilt, up to the cross-mask
// bound; nil means the run could not be merged and the caller keeps the
// originals.
func rebuildRun(cfg Config, run []*level, nblocks uint64) *level {
	minBlocks := run[0].filter.NumBlocks()
	var budget float64
	for _, l := range run {
		budget += l.budget
		if nb := l.filter.NumBlocks(); nb < minBlocks {
			minBlocks = nb
		}
	}
	for ; nblocks <= minBlocks; nblocks *= 2 {
		dst := newMergedLevel(cfg, run[0].kind, nblocks, budget)
		ok := true
		for _, src := range run {
			src.filter.IterateHashes(func(h uint64) bool {
				if !dst.filter.Insert(h) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
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

// mergePlan is one planned merge: the contiguous sub-run ending at level
// index hi (exclusive) and the destination's block count — or, when drop is
// set, an all-empty segment to splice out without replacement (building a
// merged level for zero items would spuriously allocate; the segment's
// budgets retire into the reclaimed pool instead).
type mergePlan struct {
	hi      int
	sub     []*level
	nblocks uint64
	drop    bool
}

// planRun partitions one candidate run into mergeable segments, newest
// first. shrinkRun finds the longest mergeable suffix; the dropped prefix —
// typically the oldest, near-empty levels whose small block counts bound the
// suffix's destination geometry — is then planned as a run of its own. A
// churned cascade thus collapses to one merged level per geometry class
// instead of stranding a head of sparse little levels that every negative
// lookup would keep probing. Plans are returned in descending hi order with
// disjoint segments, so splicing them in order keeps earlier indices valid.
func planRun(cfg Config, r compactRun, ls []*level) []mergePlan {
	var plans []mergePlan
	hi := r.hi
	for hi-r.lo >= 2 {
		seg := ls[r.lo:hi]
		if sumCounts(seg) == 0 {
			// All-empty segment (shrinkRun never selects an empty strict
			// suffix: empty suffixes always merge, so emptiness only
			// surfaces for the whole segment): drop it outright.
			plans = append(plans, mergePlan{hi: hi, sub: seg, drop: true})
			break
		}
		sub, nblocks, ok := shrinkRun(cfg, seg)
		if !ok {
			break
		}
		plans = append(plans, mergePlan{hi: hi, sub: sub, nblocks: nblocks})
		hi -= len(sub)
	}
	return plans
}

// planCompaction plans every qualifying run of the frozen levels. Plans
// come out in descending hi order (runs back to front, and planRun yields
// newest-first within a run), so splicing them in order keeps earlier
// indices valid.
func planCompaction(cfg Config, ls []*level) []mergePlan {
	var plans []mergePlan
	runs := compactRuns(ls)
	for i := len(runs) - 1; i >= 0; i-- {
		plans = append(plans, planRun(cfg, runs[i], ls)...)
	}
	return plans
}

// CompactNow merges every qualifying run of frozen levels, synchronously.
// It returns how many levels were merged away (zero when nothing
// qualified — a cascade still growing, or runs whose geometry constraints
// could not be met).
func (f *Filter) CompactNow() CompactionResult {
	res := f.compact()
	f.rearm()
	return res
}

// compact is CompactNow without the countdown rearm. Planning comes first,
// so a call with nothing to merge records no events and costs no clock
// reads.
func (f *Filter) compact() CompactionResult {
	res := CompactionResult{LevelsBefore: len(f.levels), LevelsAfter: len(f.levels)}
	plans := planCompaction(f.cfg, f.levels)
	if len(plans) == 0 {
		return res
	}
	frozenLive := sumCounts(f.levels[:len(f.levels)-1])
	f.ring.Record(telemetry.EvCompactStart, uint64(len(f.levels)), frozenLive, 0)
	end := telemetry.Task("vqf.elastic.compact")
	start := time.Now()
	for _, p := range plans {
		lo := p.hi - len(p.sub)
		if p.drop {
			for _, l := range p.sub {
				f.reclaimed += l.budget
			}
			f.levels = append(f.levels[:lo], f.levels[p.hi:]...)
			res.LevelsMerged += len(p.sub)
			continue
		}
		merged := rebuildRun(f.cfg, p.sub, p.nblocks)
		if merged == nil {
			continue // rebuild could not fit; sources stay as-is
		}
		setLevelRing(merged, f.ring)
		stampFrozen(merged)
		f.levels = append(f.levels[:lo+1], f.levels[p.hi:]...)
		f.levels[lo] = merged
		res.LevelsMerged += len(p.sub)
	}
	end()
	res.LevelsAfter = len(f.levels)
	if res.LevelsMerged > 0 {
		f.compactions++
		f.compactionLevels += uint64(res.LevelsMerged)
	}
	f.ring.Record(telemetry.EvCompactFinish,
		uint64(res.LevelsMerged), uint64(res.LevelsAfter), uint64(time.Since(start)))
	return res
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

// maybeCompact compacts when the automatic trigger holds.
func (f *Filter) maybeCompact() {
	if compactTrigger(f.cfg, f.levels) {
		f.compact()
	}
}

// compactState is the shared state of one in-flight concurrent compaction:
// the set of levels being rebuilt and the log of removes that hit them
// after the freeze barrier. frozen is written before the state is published
// and read-only afterwards; log appends run under mu and are drained only
// after the compaction's second removeMu write barrier, when no remover can
// still be appending.
type compactState struct {
	frozen map[*level]struct{}
	mu     sync.Mutex
	log    []uint64
}

// reconcile makes the merged level dst agree with its source levels at
// quiescence, given the hashes removed from frozen levels during the build.
// For each distinct logged hash it compares dst's instance count at the
// hash's candidate pair against the sources' surviving instances across all
// source blocks that fold onto that pair (b ≡ p1 or p2 mod dst's block
// count — the xor trick makes the pair closed under mask truncation, see
// internal/core/iterate.go), and removes the surplus. Count differencing is
// order-independent, so duplicate log entries, fingerprint collisions
// between distinct hashes, and removes the builder had already observed all
// resolve to a zero diff.
func reconcile(dst *level, srcs []*level, log []uint64) {
	if len(log) == 0 {
		return
	}
	dstBlocks := dst.filter.NumBlocks()
	seen := make(map[uint64]struct{}, len(log))
	for _, h := range log {
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		p1, p2 := dst.filter.CandidateBlocks(h)
		got := dst.filter.CountAtBlock(p1, h)
		if p2 != p1 {
			got += dst.filter.CountAtBlock(p2, h)
		}
		var want uint64
		for _, src := range srcs {
			srcBlocks := src.filter.NumBlocks()
			for b := p1; b < srcBlocks; b += dstBlocks {
				want += src.filter.CountAtBlock(b, h)
			}
			if p2 != p1 {
				for b := p2; b < srcBlocks; b += dstBlocks {
					want += src.filter.CountAtBlock(b, h)
				}
			}
		}
		for ; got > want; got-- {
			dst.filter.Remove(h)
		}
	}
}

// CompactNow merges every qualifying run of frozen levels while concurrent
// readers stay lock-free and writers keep writing. The protocol:
//
//  1. Plan runs under growMu (which also blocks growth, so the newest
//     level — the only insert target — is stable for the duration).
//  2. Publish the frozen-level set through a removeMu write barrier:
//     every remove thereafter logs hashes it deletes from frozen levels.
//  3. Build each merged level off the hot path by iterating the sources'
//     per-block snapshots (inserts cannot touch frozen levels; removes
//     are captured either by the snapshot or by the log).
//  4. Take removeMu again — draining in-flight removes — reconcile the
//     log against each merged level, atomically swap the level list, and
//     lift the freeze.
//
// Contains never blocks: it works on whichever level list it loaded, and
// source levels stay intact until unreferenced. Inserts block only if they
// need to grow the cascade mid-compaction.
func (f *CFilter) CompactNow() CompactionResult {
	f.growMu.Lock()
	defer f.growMu.Unlock()
	ls := *f.levels.Load()
	res := CompactionResult{LevelsBefore: len(ls), LevelsAfter: len(ls)}

	plans := planCompaction(f.cfg, ls)
	if len(plans) == 0 {
		return res
	}
	st := &compactState{frozen: map[*level]struct{}{}}
	for _, p := range plans {
		for _, l := range p.sub {
			st.frozen[l] = struct{}{}
		}
	}

	f.ring.Record(telemetry.EvCompactStart, uint64(len(ls)), sumCounts(ls[:len(ls)-1]), 0)
	end := telemetry.Task("vqf.elastic.compact")
	start := time.Now()

	f.removeMu.Lock()
	// Sealing inside the barrier shuts the insert fast path on every source:
	// a stale inserter either fully lands before this critical section (and
	// the rebuild below sees its instance) or observes sealed and retries.
	for l := range st.frozen {
		l.sealed.Store(true)
	}
	f.compact.Store(st)
	f.removeMu.Unlock()

	merged := make([]*level, len(plans))
	for i := range plans {
		if plans[i].drop {
			continue
		}
		if m := rebuildRun(f.cfg, plans[i].sub, plans[i].nblocks); m != nil {
			setLevelRing(m, f.ring)
			stampFrozen(m)
			merged[i] = m
		}
	}

	f.removeMu.Lock()
	next := append([]*level(nil), ls...)
	for i := range plans {
		lo := plans[i].hi - len(plans[i].sub)
		if plans[i].drop {
			// Empty at plan time stays empty (no level here can gain
			// fingerprints), so no reconcile is needed.
			for _, l := range plans[i].sub {
				f.addReclaimed(l.budget)
			}
			next = append(next[:lo], next[plans[i].hi:]...)
			res.LevelsMerged += len(plans[i].sub)
			continue
		}
		if merged[i] == nil {
			continue // rebuild could not fit; sources stay live as-is
		}
		reconcile(merged[i], plans[i].sub, st.log)
		next = append(next[:lo+1], next[plans[i].hi:]...)
		next[lo] = merged[i]
		res.LevelsMerged += len(plans[i].sub)
	}
	if res.LevelsMerged > 0 {
		f.levels.Store(&next)
		f.compactions.Add(1)
		f.compactionLevels.Add(uint64(res.LevelsMerged))
	}
	f.compact.Store(nil)
	f.removeMu.Unlock()
	f.rearmLocked()
	end()
	res.LevelsAfter = len(next)
	f.ring.Record(telemetry.EvCompactFinish,
		uint64(res.LevelsMerged), uint64(res.LevelsAfter), uint64(time.Since(start)))
	return res
}

// maybeCompact fires a background compaction when the automatic trigger
// holds and would merge something; see compactTrigger. At most one
// background compaction runs at a time (explicit CompactNow calls serialize
// on growMu independently of this gate).
func (f *CFilter) maybeCompact() {
	if !compactDue(f.cfg, *f.levels.Load()) {
		return
	}
	if !f.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer f.compacting.Store(false)
		f.CompactNow()
	}()
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
