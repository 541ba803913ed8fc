package elastic

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vqf/internal/core"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// cascadeState is the structural state the sequential Filter and the
// concurrent CFilter share, together with the one engine that restructures
// it. The level list is immutable and published through an atomic pointer:
// readers (Contains, Remove, Snapshot) load the current list and work on it
// without any lock, while growth and the structural ops build a new list and
// swap the pointer under growMu. A reader holding a superseded list still
// sees every level it needs — levels are never mutated in place, and a
// spliced-out level stays intact until unreferenced — so a lookup
// concurrent with a swap can at worst miss keys inserted into a brand-new
// level after its load, the same linearization any concurrent map allows.
//
// On the sequential Filter every lock here is uncontended and the removal
// log stays empty (its Remove never appends), so the engine's barriers and
// reconcile step cost a few uncontended lock operations per structural op;
// its insert, lookup and remove paths pay only the level-list pointer load.
type cascadeState struct {
	cfg    Config
	levels atomic.Pointer[[]*level]
	// sched is the next schedule index growth will build; guarded by
	// growMu. It only ever increases: structural ops shrink the level LIST
	// but never reuse a schedule slot, which keeps the budget invariant
	// exact — live levels hold Σ_{i<sched} εᵢ between them less what was
	// retired into reclaimed (merges and freezes preserve budget sums), and
	// future levels get Σ_{i≥sched} εᵢ, totalling ε.
	sched int

	// growMu serializes growth and the structural ops; the insert, lookup
	// and remove paths never take it.
	growMu sync.Mutex
	// removeMu orders concurrent removes (and inserts, for the sealed check)
	// against a structural op's two barriers; see restructure.
	removeMu sync.RWMutex
	// inflight, while non-nil, is the running structural op's removal log.
	inflight atomic.Pointer[removeLog]

	// reclaimed holds retired FPR budget as float64 bits; written only under
	// growMu, read lock-free (see addReclaimed/Reclaimed).
	reclaimed atomic.Uint64
	// compactions, freezes and thaws are lifetime totals for telemetry.
	compactions, freezes, thaws opTotals
	ring                        *telemetry.Ring

	// newCore builds every VQF level's core filter: the sequential or the
	// thread-safe variants, chosen once at construction.
	newCore func(g *core.Geometry, slots uint64, opts core.Options) coreFilter
	// growEvent is the event kind growth records (EvElasticGrow or
	// EvElasticSwap).
	growEvent telemetry.EventKind
	// rearmLocked recomputes the owner's quiet countdown (trigger.go);
	// growMu must be held. The countdown itself lives on the owner: a plain
	// counter on Filter, an atomic on CFilter.
	rearmLocked func()
}

// opTotals are one structural op's lifetime totals.
type opTotals struct {
	runs   atomic.Uint64 // passes that spliced at least one run
	levels atomic.Uint64 // source levels spliced away
}

// sequentialCore and concurrentCore are the two level constructors.
func sequentialCore(g *core.Geometry, slots uint64, opts core.Options) coreFilter {
	if g == core.Geom8 {
		return core.NewFilter8(slots, opts)
	}
	return core.NewFilter16(slots, opts)
}

func concurrentCore(g *core.Geometry, slots uint64, opts core.Options) coreFilter {
	if g == core.Geom8 {
		return core.NewCFilter8(slots, opts)
	}
	return core.NewCFilter16(slots, opts)
}

// start publishes a fresh cascade's first level.
func (s *cascadeState) start() {
	ls := []*level{s.newLevel(0)}
	s.levels.Store(&ls)
	s.sched = 1
}

// list returns the current level list, oldest first.
func (s *cascadeState) list() []*level { return *s.levels.Load() }

// vqfLevel allocates a VQF level with the cascade's core constructor.
func (s *cascadeState) vqfLevel(g *core.Geometry, slots uint64, budget float64, trigger uint64) *level {
	return &level{
		filter:  s.newCore(g, slots, core.Options{NoShortcut: s.cfg.NoShortcut}),
		geom:    g,
		budget:  budget,
		trigger: trigger,
		geomFPR: g.FPR,
	}
}

// newLevel builds level i of the growth schedule.
func (s *cascadeState) newLevel(i int) *level {
	_, trigger, allocSlots := levelSizing(s.cfg, i)
	return s.vqfLevel(levelGeometry(s.cfg, i), allocSlots, levelBudget(s.cfg, i), trigger)
}

// grow appends the next scheduled level if seen is still the newest level;
// a concurrent grower who got there first makes this a no-op. The identity
// check is against the newest level pointer, not the list length: a
// structural op can SHRINK the list while preserving the newest level, and
// a length check would then mistake the shrink for someone else's growth.
// grew reports whether this call appended; ok is false only at the
// MaxLevels/schedule backstop.
func (s *cascadeState) grow(seen *level) (grew, ok bool) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	ls := s.list()
	if ls[len(ls)-1] != seen {
		return false, true // someone else grew; caller retries against the new list
	}
	if len(ls) >= MaxLevels || s.sched >= schedCap {
		return false, false
	}
	stampFrozen(seen) // the superseded newest level just left the insert path
	next := append(ls[:len(ls):len(ls)], s.buildLevel(s.sched))
	s.sched++
	s.levels.Store(&next)
	s.rearmLocked()
	return true, true
}

// splice is one step of a structural op's plan: the contiguous source
// sub-run ending at level index hi (exclusive), replaced by what build
// returns — or, when build is nil, dropped outright with its budgets
// retired into the reclaimed pool. A build returning nil (the rebuild could
// not fit) leaves the sources in place.
type splice struct {
	hi    int
	sub   []*level
	build func(s *cascadeState) *level
}

// opEvents names a structural op for telemetry: its runtime/trace task and
// its start/finish ring events (EvNone records nothing).
type opEvents struct {
	task          string
	start, finish telemetry.EventKind
}

// passResult summarizes one restructure pass.
type passResult struct {
	before, after int // level counts around the pass
	spliced       int // source levels replaced or dropped
	built         int // levels built in their place
}

// removeLog is the shared state of one in-flight structural op: the set of
// source levels and the log of removes that hit them after the first
// barrier. sources is written before the log is published and read-only
// afterwards; appends run under mu and are drained only after the second
// barrier, when no remover can still be appending.
type removeLog struct {
	sources map[*level]struct{}
	mu      sync.Mutex
	hashes  []uint64
}

// restructure runs one structural op — compaction (including the shrink of
// a sole level), freeze or thaw — given its planner. Every op follows the
// same protocol:
//
//  1. Plan under growMu (which also blocks growth, so the newest level — the
//     only insert target — is stable for the duration). Plans come in
//     descending hi order with disjoint sub-runs, so splicing them in order
//     keeps earlier indices valid.
//  2. Inside a removeMu write barrier, seal every source and publish the
//     removal log: an inserter either lands wholly before the barrier (and
//     the build sees it) or observes sealed and waits for the op, and every
//     later remove that hits a source logs its hash. Only a shrink makes
//     the newest level a source; every other op seals frozen levels, which
//     only stale inserters can reach.
//  3. Build the new levels off-lock from the sources' per-block snapshots.
//  4. Inside a second barrier (which drains in-flight removes), reconcile
//     each built level against the log, splice, publish the new list and
//     count the pass. A splice whose build failed keeps its sources and
//     unseals them.
//  5. Rearm the quiet countdown.
//
// Contains never blocks: it works on whichever list it loaded. Inserts
// block only if they need to grow the cascade mid-op, or if the op shrinks
// the level they insert into.
func (s *cascadeState) restructure(ev opEvents, tot *opTotals, plan func([]*level) []splice) passResult {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	ls := s.list()
	res := passResult{before: len(ls), after: len(ls)}
	plans := plan(ls)
	if len(plans) == 0 {
		return res // nothing planned: no events, no clock reads
	}
	lg := &removeLog{sources: map[*level]struct{}{}}
	var live uint64
	for _, p := range plans {
		live += sumCounts(p.sub)
		for _, l := range p.sub {
			lg.sources[l] = struct{}{}
		}
	}
	s.record(ev.start, uint64(len(ls)), live, 0)
	end := telemetry.Task(ev.task)
	start := time.Now()

	s.removeMu.Lock()
	for l := range lg.sources {
		l.sealed.Store(true)
	}
	s.inflight.Store(lg)
	s.removeMu.Unlock()

	built := make([]*level, len(plans))
	for i, p := range plans {
		if p.build == nil {
			continue
		}
		if b := p.build(s); b != nil {
			setLevelRing(b, s.ring)
			stampFrozen(b)
			built[i] = b
		}
	}

	s.removeMu.Lock()
	next := append([]*level(nil), ls...)
	for i, p := range plans {
		lo := p.hi - len(p.sub)
		switch {
		case p.build == nil:
			// Empty at plan time stays empty (no source can gain
			// fingerprints), so there is nothing to reconcile.
			budget, _ := summarize(p.sub)
			s.addReclaimed(budget)
			next = append(next[:lo], next[p.hi:]...)
		case built[i] == nil:
			// The sources stay in place, so they take inserts again.
			for _, l := range p.sub {
				l.sealed.Store(false)
			}
			continue
		default:
			reconcile(built[i], p.sub, lg.hashes)
			next = append(next[:lo+1], next[p.hi:]...)
			next[lo] = built[i]
			res.built++
		}
		res.spliced += len(p.sub)
	}
	if res.spliced > 0 {
		s.levels.Store(&next)
		tot.runs.Add(1)
		tot.levels.Add(uint64(res.spliced))
	}
	s.inflight.Store(nil)
	s.removeMu.Unlock()
	s.rearmLocked()
	end()
	res.after = len(next)
	s.record(ev.finish, uint64(res.spliced), uint64(res.after), uint64(time.Since(start)))
	return res
}

// record writes one ring event unless kind is EvNone.
func (s *cascadeState) record(kind telemetry.EventKind, a, b, c uint64) {
	if kind != telemetry.EvNone {
		s.ring.Record(kind, a, b, c)
	}
}

// reconcile makes the built level dst agree with its source levels at
// quiescence, given the hashes removed from sources during the build.
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

// maybeThaw, maybeCompact and maybeFreeze are the automatic planners, run
// inline: after every growth and whenever the quiet countdown runs out
// (directly on Filter, from one background goroutine on CFilter).
func (s *cascadeState) maybeThaw() { s.thawNow() }

func (s *cascadeState) maybeCompact() {
	if compactTrigger(s.cfg, s.list()) {
		s.CompactNow()
	}
}

func (s *cascadeState) maybeFreeze() {
	if s.cfg.AutoFreeze {
		s.freeze(autoFreezeGate(s.cfg))
	}
}

// runTriggers runs all three automatic planners in order.
func (s *cascadeState) runTriggers() {
	s.maybeThaw()
	s.maybeCompact()
	s.maybeFreeze()
}

// rearm recomputes the countdown after a remove ran the planners. Level
// lists change only under growMu, and every such change is followed by
// rearmLocked before growMu is released; if another goroutine holds growMu
// now, the countdown stays expired and the next frozen-level remove simply
// evaluates again. On the sequential Filter the lock is always free.
func (s *cascadeState) rearm() {
	if s.growMu.TryLock() {
		s.rearmLocked()
		s.growMu.Unlock()
	}
}

// Contains reports whether h may be in the cascade, probing levels
// newest-first: recent items live in the newest (largest) level, so the
// common hit short-circuits after one level's block scans. On CFilter it is
// lock-free: one atomic pointer load, then each level's optimistic block
// reads.
func (s *cascadeState) Contains(h uint64) bool {
	ls := s.list()
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Contains(h) {
			return true
		}
	}
	return false
}

// Count returns the number of items stored across all levels.
func (s *cascadeState) Count() uint64 { return sumCounts(s.list()) }

// Capacity returns the total allocated fingerprint slots across all levels.
func (s *cascadeState) Capacity() uint64 { return sumCapacities(s.list()) }

// SizeBytes returns the cascade's memory footprint.
func (s *cascadeState) SizeBytes() uint64 { return sumSizes(s.list()) }

// NumLevels returns the current cascade depth.
func (s *cascadeState) NumLevels() int { return len(s.list()) }

// TargetFPR returns the configured total false-positive budget ε.
func (s *cascadeState) TargetFPR() float64 { return s.cfg.TargetFPR }

// Stats returns operation counters summed over all levels; see the core
// concurrent filters for the consistency contract on CFilter.
func (s *cascadeState) Stats() stats.OpCounts { return sumStats(s.list()) }

// Snapshot returns the cascade's structural snapshot: an aggregate plus one
// per-level snapshot, newest level last. Safe alongside live traffic on
// CFilter: the level list is an immutable copy and each level's occupancy
// scan uses the optimistic block protocol.
func (s *cascadeState) Snapshot() stats.CascadeSnapshot {
	cs := snapshotLevels(s.cfg.TargetFPR, s.list())
	cs.Compactions = s.compactions.runs.Load()
	cs.CompactionLevelsMerged = s.compactions.levels.Load()
	cs.Freezes = s.freezes.runs.Load()
	cs.FreezeLevelsFrozen = s.freezes.levels.Load()
	cs.Thaws = s.thaws.levels.Load()
	cs.BudgetReclaimed = s.Reclaimed()
	return cs
}

// addReclaimed retires budget into the reclaimed pool. Called only under
// growMu; stored as float bits so readers can load it without the lock.
func (s *cascadeState) addReclaimed(b float64) {
	s.reclaimed.Store(math.Float64bits(s.Reclaimed() + b))
}

// Reclaimed returns the total FPR budget retired from dropped (emptied)
// levels. The cascade invariant is
//
//	Σ live level budgets + Reclaimed + ε·rˢᶜʰᵉᵈ = ε
//
// — budgets move between the three pools (future schedule → live levels at
// growth, live → reclaimed at empty-drop) but are never created or reused.
func (s *cascadeState) Reclaimed() float64 {
	return math.Float64frombits(s.reclaimed.Load())
}
