package elastic

import "time"

// Automatic trigger scheduling. Inserts only ever go to the newest level, so
// the frozen (non-newest) levels' counts can only fall, and every automatic
// trigger predicate becomes true only as they fall:
//
//   - thaw: a fuse level's tombstones reach thawNum/thawDen of its base;
//   - compaction: Σcount ≤ CompactMaxLoad·Σcapacity over the frozen levels,
//     and some run has a suffix mergeBlocks accepts at its live count;
//   - freeze: a level's count ≤ FreezeMaxLoad·capacity (the auto gate), and
//     some gated run has a suffix freezeParams accepts at its live count.
//
// Rather than re-run the three planners after every frozen-level remove,
// the cascade keeps an exact quiet countdown: after any change to the level
// list and after any planner evaluation, quietRemoves computes a lower bound
// d on how many frozen-level removes must happen before any trigger could
// become due. Each successful frozen-level remove decrements the countdown,
// and the planners run only when it reaches zero. A remove lowers exactly
// one level's count by one, so no predicate can become due before d removes:
// the planners run at (or before) the same remove they would have under
// per-remove polling, and the structural-op schedule is unchanged.
//
// A cascade of one level has no frozen levels, but under auto compaction
// it can shrink (planShrink) once its count falls far enough, so removes
// from a sole level count down too. Inserts there raise the count and so
// only move the shrink further away: the bound stays a lower bound, and at
// worst the countdown runs out early.
//
// The freeze gate's FreezeMinAge half is time-based, not count-based; while
// any frozen VQF level is still too young, d is zero and the planners run on
// every frozen-level remove, as they always did.

// never is the countdown for a cascade no remove can trigger. It is far
// below the int64 limit so that rearming (which adds d minus the countdown's
// previous value) cannot overflow.
const never int64 = 1 << 62

// removesUntil returns how many unit decrements of live it takes for due to
// hold, where due is monotone in live (true on [0, m], false above m): live−m,
// zero when it already holds, and never when it holds nowhere. The
// threshold m comes from a binary search over the predicate itself, so the
// planners' formulas exist only once.
func removesUntil(live uint64, due func(live uint64) bool) int64 {
	if due(live) {
		return 0
	}
	if !due(0) {
		return never
	}
	lo, hi := uint64(0), live // due(lo) holds, due(hi) does not
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if due(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int64(live - lo)
}

// quietRemoves returns the countdown for level list ls at time now: a lower
// bound on the counted removes (see countsDown) before thaw, compaction,
// shrink or freeze could become due (0 when one already is, or when a level
// waits on FreezeMinAge).
func quietRemoves(cfg Config, ls []*level, now int64) int64 {
	d := never
	for _, l := range ls {
		if fl, ok := l.filter.(*fuseLevel); ok {
			d = min(d, removesUntil(fl.Count(), func(live uint64) bool {
				return fl.thawDueAt(fl.baseTotal - live)
			}))
		}
	}
	frozen := ls[:len(ls)-1]
	if cfg.AutoFreeze {
		// A level becomes freezable only once it passes the gate, so a new
		// freeze plan either contains a level gated later (which takes its
		// own count down to the gate) or is a suffix of a run gated now.
		for _, l := range frozen {
			if l.fused() || freezeGate(cfg, l, now) {
				continue
			}
			if !freezeAged(cfg, l, now) {
				return 0 // waiting on FreezeMinAge: time, not removes, opens the gate
			}
			capacity := l.filter.Capacity()
			d = min(d, removesUntil(l.filter.Count(), func(c uint64) bool {
				return freezeLoadOK(cfg, c, capacity)
			}))
		}
		gate := func(l *level) bool { return freezeGate(cfg, l, now) }
		for _, r := range vqfRuns(ls, gate) {
			for lo := r.lo; lo < r.hi; lo++ {
				sub := ls[lo:r.hi]
				d = min(d, removesUntil(sumCounts(sub), func(live uint64) bool {
					_, ok := freezeParams(sub, live)
					return ok
				}))
			}
		}
	}
	if cfg.CompactMinLevels != 0 && len(ls) >= cfg.CompactMinLevels {
		// Compaction needs both the load trigger and a mergeable suffix; each
		// is monotone on its own, so the later of the two bounds both.
		capacity := sumCapacities(frozen)
		load := removesUntil(sumCounts(frozen), func(c uint64) bool {
			return compactLoadOK(cfg, c, capacity)
		})
		plan := never
		for _, r := range compactRuns(ls) {
			plan = min(plan, int64(sumCounts(ls[r.lo:r.hi]))) // all-empty drop
			for lo := r.lo; r.hi-lo >= 2; lo++ {
				sub := ls[lo:r.hi]
				plan = min(plan, removesUntil(sumCounts(sub), func(live uint64) bool {
					return mergeBlocks(cfg, sub, live) != 0
				}))
			}
		}
		d = min(d, max(load, plan))
	}
	if cfg.CompactMinLevels != 0 && len(ls) == 1 {
		l := ls[0]
		d = min(d, removesUntil(l.filter.Count(), func(live uint64) bool {
			return shrinkBlocks(cfg, l, live) != 0
		}))
	}
	return d
}

// countsDown reports whether a remove that hit level hit of ls counts down
// the quiet countdown: it hit a frozen level, or the sole level of a
// cascade that may shrink.
func countsDown(cfg Config, ls []*level, hit *level) bool {
	if len(ls) == 1 {
		return cfg.CompactMinLevels != 0
	}
	return hit != ls[len(ls)-1]
}

// thawDue reports whether some fuse level crossed the thaw threshold.
func thawDue(ls []*level) bool {
	for _, l := range ls {
		if fl, ok := l.filter.(*fuseLevel); ok && fl.needsThaw() {
			return true
		}
	}
	return false
}

// compactDue reports whether the automatic compaction trigger holds and
// would merge something.
func compactDue(cfg Config, ls []*level) bool {
	return compactTrigger(cfg, ls) && len(planCompaction(cfg, ls)) > 0
}

// freezeDue reports whether auto-freeze is enabled and would freeze
// something now.
func freezeDue(cfg Config, ls []*level) bool {
	return cfg.AutoFreeze && len(planFreezes(ls, autoFreezeGate(cfg))) > 0
}

// rearmQuiet recomputes the sequential cascade's quiet countdown.
func (f *Filter) rearmQuiet() {
	f.quiet = quietRemoves(f.cfg, f.list(), time.Now().UnixNano())
}

// rearmQuiet recomputes the concurrent cascade's countdown; growMu must be
// held. Removes keep decrementing while the bound is computed, so the new
// value is the bound less every decrement since the old value was read: a
// remove whose effect the bound already counts may be subtracted twice (the
// countdown fires early), but none is ever lost (it never fires late).
func (f *CFilter) rearmQuiet() {
	q0 := f.quiet.Load()
	d := quietRemoves(f.cfg, f.list(), time.Now().UnixNano())
	f.quiet.Add(d - q0)
}
