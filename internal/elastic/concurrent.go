package elastic

import (
	"sync"
	"sync/atomic"

	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// CFilter is the thread-safe elastic VQF. The level list is immutable and
// published through an atomic pointer: readers (Contains, Remove, Snapshot)
// load the current list and work on it without any lock, while growth
// builds a copy with one more level and swaps the pointer under growMu.
// A reader holding a pre-swap list still sees every level it needs —
// levels are only ever appended, never mutated in place or removed — so a
// lookup concurrent with growth can at worst miss keys inserted into the
// brand-new level after its load, the same linearization any concurrent
// map allows. Per-level thread safety is the core CFilter8/16 machinery:
// per-block spin locks for writers, seqlock-validated optimistic reads for
// lookups.
type CFilter struct {
	cfg    Config
	levels atomic.Pointer[[]*level]
	ring   *telemetry.Ring
	// growMu serializes growth and compaction; insert and lookup paths
	// never take it.
	growMu sync.Mutex
	// sched is the next schedule index growth will build (see Filter.sched);
	// guarded by growMu.
	sched int

	// removeMu orders removes against a compaction's freeze barrier: every
	// Remove runs under the read side, and compaction takes the write side
	// once to publish its frozen-level set (so later removes log themselves)
	// and once to drain in-flight removes before reconciling and swapping
	// the level list. Contains and Insert never touch it.
	removeMu sync.RWMutex
	// compact, while non-nil, is the in-flight compaction's removal-log
	// state; see compactState.
	compact atomic.Pointer[compactState]
	// compacting gates the automatic trigger so it never stacks background
	// compaction goroutines.
	compacting       atomic.Bool
	compactions      atomic.Uint64
	compactionLevels atomic.Uint64
	// freezing gates the background freeze/thaw goroutines the same way.
	freezing     atomic.Bool
	freezes      atomic.Uint64
	freezeLevels atomic.Uint64
	thaws        atomic.Uint64
	// reclaimed holds retired FPR budget as float64 bits; written only
	// under growMu, read lock-free (see addReclaimed/Reclaimed).
	reclaimed atomic.Uint64
	// quiet is the auto-trigger countdown (see trigger.go and
	// Filter.quiet): decremented by frozen-level removes, rearmed under
	// growMu.
	quiet atomic.Int64
}

// NewConcurrent creates an empty thread-safe cascade with one level.
func NewConcurrent(cfg Config) (*CFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Concurrent = true
	f := &CFilter{cfg: cfg, sched: 1}
	ls := []*level{newLevel(cfg, 0)}
	f.levels.Store(&ls)
	return f, nil
}

// Insert adds the pre-hashed key h. Safe for concurrent use. Writers that
// concurrently pass the trigger check can each land one item, so a level
// may exceed its trigger by at most the number of in-flight inserts — a
// relative FPR overshoot of O(writers/trigger), negligible against the
// slack the power-of-two block rounding leaves (and noted in the DESIGN
// budget derivation).
func (f *CFilter) Insert(h uint64) bool {
	for {
		ls := *f.levels.Load()
		lvl := ls[len(ls)-1]
		ok, sealed := f.insertLevel(lvl, h)
		if ok {
			return true
		}
		if sealed {
			continue // a structural op retired lvl; reload the list
		}
		if !f.grow(lvl) {
			return false
		}
	}
}

// insertLevel lands h in lvl unless lvl has been sealed as a compaction or
// freeze source. An inserter can hold a stale level list whose newest entry
// has since been demoted by growth and selected as a source — and churn can
// pull such a level's count back under its trigger, re-opening the fast
// path — so an unchecked raw insert could land in a level the rebuild has
// already iterated and be dropped at the swap. The removeMu read side
// orders this exactly against the op's first write barrier (which sets
// sealed): either the whole section runs before the barrier, in which case
// the off-lock rebuild is guaranteed to observe the landed insert, or the
// sealed check fires and the caller retries against the current list.
// sealed is reported true only for that retry case.
func (f *CFilter) insertLevel(lvl *level, h uint64) (ok, sealed bool) {
	f.removeMu.RLock()
	defer f.removeMu.RUnlock()
	if lvl.sealed.Load() {
		return false, true
	}
	if lvl.filter.Count() >= lvl.trigger {
		return false, false
	}
	return lvl.filter.Insert(h), false
}

// grow appends a new level if seen is still the newest level; a concurrent
// grower who got there first makes this a no-op. The identity check is
// against the newest level pointer, not the list length: compaction can
// SHRINK the list while preserving the newest level, and a length check
// would then mistake the shrink for someone else's growth (or worse, a
// grow-then-compact for no change). It returns false only at the
// MaxLevels/schedule backstop.
func (f *CFilter) grow(seen *level) bool {
	f.growMu.Lock()
	ls := *f.levels.Load()
	if ls[len(ls)-1] != seen {
		f.growMu.Unlock()
		return true // someone else grew; caller retries against the new list
	}
	if len(ls) >= MaxLevels || f.sched >= schedCap {
		f.growMu.Unlock()
		return false
	}
	next := make([]*level, len(ls)+1)
	copy(next, ls)
	next[len(ls)] = buildLevel(f.cfg, f.sched, f.ring, telemetry.EvElasticSwap)
	f.sched++
	stampFrozen(seen) // the superseded newest level just left the insert path
	f.levels.Store(&next)
	f.rearmLocked()
	f.growMu.Unlock()
	f.maybeCompact()
	f.maybeFreeze()
	return true
}

// Contains reports whether h may be in the cascade. Safe for concurrent
// use and lock-free: one atomic pointer load, then each level's optimistic
// block reads, newest-first with a short-circuit on hit.
func (f *CFilter) Contains(h uint64) bool {
	ls := *f.levels.Load()
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Contains(h) {
			return true
		}
	}
	return false
}

// Remove deletes one previously inserted instance of h, searching levels
// newest-first. Safe for concurrent use, including concurrent with a
// compaction: the read side of removeMu brackets the whole operation so a
// compaction's barriers order every remove entirely before or entirely
// after its freeze point, and a remove that lands in a level the compaction
// is rebuilding appends h to the removal log, which the compaction
// reconciles against the merged level before publishing it — a racing
// remove can therefore never resurrect in the merged level.
func (f *CFilter) Remove(h uint64) bool {
	f.removeMu.RLock()
	st := f.compact.Load()
	ls := *f.levels.Load()
	hit := -1
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Remove(h) {
			hit = i
			if st != nil {
				if _, frozen := st.frozen[ls[i]]; frozen {
					st.mu.Lock()
					st.log = append(st.log, h)
					st.mu.Unlock()
				}
			}
			break
		}
	}
	f.removeMu.RUnlock()
	if hit < 0 {
		return false
	}
	// A frozen level just got sparser: count down to the auto triggers.
	// Whether the level is frozen is judged against the current list, not
	// ls: a growth since ls was loaded may have rearmed from counts that
	// predate this remove, and the decrement keeps it from being lost.
	if cur := *f.levels.Load(); ls[hit] != cur[len(cur)-1] && f.quiet.Add(-1) <= 0 {
		runTriggers(f)
	}
	return true
}

// Count returns the number of items stored across all levels.
func (f *CFilter) Count() uint64 { return sumCounts(*f.levels.Load()) }

// Capacity returns the total allocated fingerprint slots.
func (f *CFilter) Capacity() uint64 { return sumCapacities(*f.levels.Load()) }

// SizeBytes returns the cascade's memory footprint.
func (f *CFilter) SizeBytes() uint64 { return sumSizes(*f.levels.Load()) }

// NumLevels returns the current cascade depth.
func (f *CFilter) NumLevels() int { return len(*f.levels.Load()) }

// TargetFPR returns the configured total false-positive budget ε.
func (f *CFilter) TargetFPR() float64 { return f.cfg.TargetFPR }

// Stats returns operation counters summed over all levels; see the core
// concurrent filters for the consistency contract.
func (f *CFilter) Stats() stats.OpCounts { return sumStats(*f.levels.Load()) }

// Snapshot returns the cascade's structural snapshot. Safe alongside live
// traffic: the level list is an immutable copy and each level's occupancy
// scan uses the optimistic block protocol.
func (f *CFilter) Snapshot() stats.CascadeSnapshot {
	cs := snapshotLevels(f.cfg.TargetFPR, *f.levels.Load())
	cs.Compactions = f.compactions.Load()
	cs.CompactionLevelsMerged = f.compactionLevels.Load()
	cs.Freezes = f.freezes.Load()
	cs.FreezeLevelsFrozen = f.freezeLevels.Load()
	cs.Thaws = f.thaws.Load()
	cs.BudgetReclaimed = f.Reclaimed()
	return cs
}
