package elastic

import (
	"sync/atomic"

	"vqf/internal/telemetry"
)

// CFilter is the thread-safe elastic VQF. It shares the level list, the
// growth path and the structural-op engine with Filter (see cascadeState);
// what differs is that its Insert and Remove synchronize with a running
// structural op through removeMu, and that due automatic triggers run in a
// background goroutine instead of on the caller. Per-level thread safety is
// the core CFilter8/16 machinery: per-block spin locks for writers,
// seqlock-validated optimistic reads for lookups.
type CFilter struct {
	cascadeState
	// quiet is the auto-trigger countdown (see trigger.go and
	// Filter.quiet): decremented by frozen-level removes, rearmed under
	// growMu.
	quiet atomic.Int64
	// busy gates the background trigger goroutine so it never stacks
	// (explicit CompactNow/FreezeNow calls serialize on growMu
	// independently of it).
	busy atomic.Bool
}

// NewConcurrent creates an empty thread-safe cascade with one level.
func NewConcurrent(cfg Config) (*CFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &CFilter{}
	f.cascadeState = cascadeState{
		cfg:         cfg,
		newCore:     concurrentCore,
		growEvent:   telemetry.EvElasticSwap,
		rearmLocked: f.rearmQuiet,
	}
	f.start()
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
		ls := f.list()
		lvl := ls[len(ls)-1]
		ok, sealed := f.insertLevel(lvl, h)
		if ok {
			return true
		}
		if sealed {
			// A structural op took lvl as a source. If lvl is still the
			// newest level, a shrink is rebuilding it off-lock: wait for the
			// op (it holds growMu throughout) rather than spin. A stale
			// level was demoted, so the current list has a newer target.
			if ls := f.list(); ls[len(ls)-1] == lvl {
				f.growMu.Lock()
				f.growMu.Unlock()
			}
			continue
		}
		grew, ok := f.grow(lvl)
		if !ok {
			return false
		}
		if grew {
			f.dispatch()
		}
	}
}

// insertLevel lands h in lvl unless lvl has been sealed as a structural-op
// source. The newest level is a source while a shrink rebuilds it, and an
// inserter can hold a stale level list whose newest entry has since been
// demoted by growth and selected as a source — churn can pull such a
// level's count back under its trigger, re-opening the fast path — so an
// unchecked raw insert could land in a level the rebuild has already
// iterated and be dropped at the swap. The removeMu read side
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

// Remove deletes one previously inserted instance of h, searching levels
// newest-first. Safe for concurrent use, including concurrent with a
// structural op: the read side of removeMu brackets the whole operation so
// the op's barriers order every remove entirely before or entirely after
// its first barrier, and a remove that lands in a source level appends h to
// the removal log, which the op reconciles against the built level before
// publishing it — a racing remove can therefore never resurrect there.
func (f *CFilter) Remove(h uint64) bool {
	f.removeMu.RLock()
	lg := f.inflight.Load()
	ls := f.list()
	hit := -1
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Remove(h) {
			hit = i
			if lg != nil {
				if _, src := lg.sources[ls[i]]; src {
					lg.mu.Lock()
					lg.hashes = append(lg.hashes, h)
					lg.mu.Unlock()
				}
			}
			break
		}
	}
	f.removeMu.RUnlock()
	if hit < 0 {
		return false
	}
	// A frozen or sole level just got sparser: count down to the auto
	// triggers. Whether the level is frozen is judged against the current
	// list, not ls: a growth since ls was loaded may have rearmed from
	// counts that predate this remove, and the decrement keeps it from
	// being lost.
	if countsDown(f.cfg, f.list(), ls[hit]) && f.quiet.Add(-1) <= 0 {
		f.dispatch()
		f.rearm()
	}
	return true
}

// dispatch starts a background goroutine running the automatic planners
// when one of them is due, unless such a goroutine is already running.
func (f *CFilter) dispatch() {
	ls := f.list()
	if !thawDue(ls) && !compactDue(f.cfg, ls) && !freezeDue(f.cfg, ls) {
		return
	}
	if !f.busy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer f.busy.Store(false)
		f.runTriggers()
	}()
}
