// Package elastic implements an online-growing vector quotient filter: a
// geometric cascade of fixed-size core VQF levels in the style of Bender et
// al.'s cascade filter ("Don't Thrash: How to Cache Your Hash on Flash") and
// Maier et al.'s expandable quotient filters.
//
// A VQF's stored state (bucket-local fingerprints) is not losslessly
// rehashable, so a full filter cannot be rebuilt into a larger one without
// the original keys. The cascade sidesteps that: when the newest level
// reaches its fill threshold, a new level GrowthFactor times larger is
// appended and all subsequent inserts go there. Older levels become
// read-only survivors that lookups still probe (newest-first, short-circuit
// on hit) and removes still search.
//
// # False-positive budget
//
// Probing L levels sums their false-positive rates, so a cascade of
// identical levels would drift past any fixed target as it grows. Instead
// the total budget ε is split geometrically: level i may contribute at most
//
//	εᵢ = ε·(1−r)·rⁱ       (TightenRatio r, default ½)
//
// so Σᵢ εᵢ = ε for any number of levels. Each level meets its εᵢ two ways:
// by geometry (8-bit fingerprints while εᵢ ≥ 2·(48/80)·2⁻⁸, 16-bit below
// that) and, once εᵢ falls below what 16-bit fingerprints deliver, by
// over-provisioning — the level gets geomFPR·FillThreshold/εᵢ times more
// slots than its item budget needs, and a VQF's realized false-positive
// rate scales linearly with its load factor (≈ 2·α·(s/b)·2⁻ʳ at load α).
// With the default ε and r = ½ the first seven levels need no
// over-provisioning at all: 16-bit fingerprints have ≈ 200× more headroom
// than the default target.
package elastic

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"vqf/internal/core"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// FPR8Full is the analytic full-load false-positive rate of the 8-bit core
// geometry (2·(s/b)·2⁻ʳ, paper §5).
const FPR8Full float64 = core.FPR8

// MaxLevels bounds the cascade depth. With the default growth factor the
// cap is unreachable (it implies 2⁶⁴× the initial capacity); it exists so
// deserialization and runaway growth loops have a hard stop.
const MaxLevels = 64

// Config describes a cascade. The zero value of every field except
// TargetFPR selects a default; Validate fills defaults in place.
type Config struct {
	// TargetFPR is the total false-positive budget ε of the whole cascade,
	// honored no matter how many levels growth appends. Required.
	TargetFPR float64
	// InitialSlots is level 0's item budget in slots; level i's budget is
	// InitialSlots·GrowthFactor^i. Default 1 << 12.
	InitialSlots uint64
	// GrowthFactor is the capacity ratio between consecutive levels.
	// Default 2; must be in [1.5, 16].
	GrowthFactor float64
	// TightenRatio is the geometric decay r of per-level FPR budgets
	// εᵢ = ε·(1−r)·rⁱ. Default 0.5; must be in (0, 0.9].
	TightenRatio float64
	// FillThreshold is the fraction of a level's item budget at which the
	// next level is created. Default 0.85; must be in (0, 0.93].
	FillThreshold float64
	// NoShortcut disables the §6.2 single-block insertion shortcut on every
	// level.
	NoShortcut bool
	// CompactMinLevels enables automatic compaction: when the cascade has at
	// least this many levels AND the non-newest levels' mean load factor is
	// at or below CompactMaxLoad, a compaction runs (synchronously after the
	// triggering growth or remove on the sequential filter, in a background
	// goroutine on the concurrent ones; removes check it only when the quiet
	// countdown of trigger.go runs out). It also enables the automatic
	// shrink of a sole level (planShrink), whatever this value. Zero
	// disables both; CompactNow always works. Must be 0 or in
	// [3, MaxLevels].
	CompactMinLevels int
	// CompactMaxLoad is the occupancy-ratio threshold of the automatic
	// trigger: compaction fires only while the frozen (non-newest) levels'
	// combined count/capacity is at or below it, i.e. while they are sparse
	// enough that merging wins back space and probe misses. Default 0.5;
	// must be in (0, 1].
	CompactMaxLoad float64
	// AutoFreeze enables the automatic frozen-tier trigger: after growths
	// and counted-down frozen-level removes (see trigger.go), VQF levels
	// that have been out of the insert path for at least FreezeMinAge and
	// are loaded at or below FreezeMaxLoad are rebuilt into immutable fuse
	// levels (see freeze.go). FreezeNow always works regardless.
	AutoFreeze bool
	// FreezeMinAge is the minimum time since a level stopped taking inserts
	// before auto-freeze may take it. Zero freezes immediately.
	FreezeMinAge time.Duration
	// FreezeMaxLoad is the load-factor ceiling for auto-freeze eligibility.
	// Default 1 (any load); must be in (0, 1].
	FreezeMaxLoad float64
}

// Validate fills defaulted fields and rejects out-of-range values.
func (c *Config) Validate() error {
	if c.InitialSlots == 0 {
		c.InitialSlots = 1 << 12
	}
	if c.GrowthFactor == 0 {
		c.GrowthFactor = 2
	}
	if c.TightenRatio == 0 {
		c.TightenRatio = 0.5
	}
	if c.FillThreshold == 0 {
		c.FillThreshold = 0.85
	}
	if c.CompactMaxLoad == 0 {
		c.CompactMaxLoad = 0.5
	}
	if c.FreezeMaxLoad == 0 {
		c.FreezeMaxLoad = 1
	}
	// The range checks are written so that NaN fails them: Read feeds
	// untrusted stream fields through here.
	switch {
	case !(c.TargetFPR > 0 && c.TargetFPR < 1):
		return fmt.Errorf("elastic: target FPR %g outside (0, 1)", c.TargetFPR)
	case c.InitialSlots < minifilter.B8Slots || c.InitialSlots > 1<<40:
		return fmt.Errorf("elastic: initial slots %d outside [%d, 2^40]", c.InitialSlots, minifilter.B8Slots)
	case !(c.GrowthFactor >= 1.5 && c.GrowthFactor <= 16):
		return fmt.Errorf("elastic: growth factor %g outside [1.5, 16]", c.GrowthFactor)
	case !(c.TightenRatio > 0 && c.TightenRatio <= 0.9):
		return fmt.Errorf("elastic: tighten ratio %g outside (0, 0.9]", c.TightenRatio)
	case !(c.FillThreshold > 0 && c.FillThreshold <= 0.93):
		return fmt.Errorf("elastic: fill threshold %g outside (0, 0.93]", c.FillThreshold)
	case c.CompactMinLevels != 0 && (c.CompactMinLevels < 3 || c.CompactMinLevels > MaxLevels):
		return fmt.Errorf("elastic: compact min levels %d outside {0} ∪ [3, %d]", c.CompactMinLevels, MaxLevels)
	case !(c.CompactMaxLoad > 0 && c.CompactMaxLoad <= 1):
		return fmt.Errorf("elastic: compact max load %g outside (0, 1]", c.CompactMaxLoad)
	case c.FreezeMinAge < 0:
		return fmt.Errorf("elastic: freeze min age %v negative", c.FreezeMinAge)
	case !(c.FreezeMaxLoad > 0 && c.FreezeMaxLoad <= 1):
		return fmt.Errorf("elastic: freeze max load %g outside (0, 1]", c.FreezeMaxLoad)
	}
	return nil
}

// coreFilter is the operation surface shared by the four core variants.
// The iteration quartet (IterateHashes/CandidateBlocks/CountAtBlock/
// NumBlocks) is what compaction rebuilds levels through; see
// internal/core/iterate.go for the canonical-hash soundness argument.
type coreFilter interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	ContainsBatch(hs []uint64, dst []bool) []bool
	Remove(h uint64) bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	Stats() stats.OpCounts
	BlockOccupancies() []uint
	SlotsPerBlock() uint
	IterateHashes(yield func(h uint64) bool) bool
	CandidateBlocks(h uint64) (uint64, uint64)
	CountAtBlock(b, h uint64) uint64
	NumBlocks() uint64
}

// level is one member of the cascade. Once a level stops being the newest
// it receives no more inserts, so all fields are immutable after creation;
// only the underlying filter's contents change (removes, and inserts on the
// newest level).
type level struct {
	filter coreFilter
	// geom is the level's VQF block geometry. A frozen fuse level keeps its
	// sources' geometry: its fold keys live in that canonical key space.
	geom *core.Geometry
	// budget is this level's share εᵢ of the cascade's FPR budget.
	budget float64
	// trigger is the item count at which the cascade grows past this level
	// (0 on immutable fuse levels, which take no inserts).
	trigger uint64
	// geomFPR is the level geometry's analytic full-load FPR.
	geomFPR float64
	// frozenAt is the unix-nano time the level left the insert path (0 =
	// unknown, treated as old by the auto-freeze gate). Atomic because the
	// sequential stamp at growth races concurrent snapshot readers only in
	// the CFilter case, but one representation keeps the code shared.
	frozenAt atomic.Int64
	// sealed is set (inside a structural op's first removeMu write barrier)
	// when the level becomes a structural-op source. A concurrent insert
	// can hold a pointer to a source level under its trigger — the newest
	// level during a shrink, or a demoted one through a stale level list;
	// the sealed check under removeMu's read side (see CFilter.insertLevel)
	// turns that insert into a retry instead of a silently lost instance.
	// The flag is never cleared on levels that leave the list, which is
	// what protects arbitrarily stale inserters; it is cleared only when
	// the op's build fails and the level stays in place.
	sealed atomic.Bool
	// shrinkFailedAt is the live count at which a shrink's rebuild of this
	// level last failed (0 = never); see shrinkBlocks.
	shrinkFailedAt atomic.Uint64
}

// fused reports whether the level is a frozen fuse level (freeze.go)
// rather than a live VQF level.
func (l *level) fused() bool {
	_, ok := l.filter.(*fuseLevel)
	return ok
}

// kind is the level's on-disk kind tag: the fingerprint width of a VQF
// level, or fuseTag plus its source width for a fuse level.
func (l *level) kind() uint8 {
	if l.fused() {
		return fuseTag + uint8(l.geom.FPBits)
	}
	return uint8(l.geom.FPBits)
}

// levelBudget returns εᵢ = ε·(1−r)·rⁱ.
func levelBudget(c Config, i int) float64 {
	return c.TargetFPR * (1 - c.TightenRatio) * math.Pow(c.TightenRatio, float64(i))
}

// levelGeometry returns the geometry for level i: the loosest one whose
// full-load FPR fits within the level's budget after the fill threshold's
// load discount, falling back to 16 bits plus over-provisioning.
func levelGeometry(c Config, i int) *core.Geometry {
	if levelBudget(c, i) >= core.Geom8.FPR*c.FillThreshold {
		return core.Geom8
	}
	return core.Geom16
}

// levelSizing returns level i's item budget (baseSlots), growth trigger and
// allocated slot count. The level is allocated overProv = max(1,
// geomFPR·FillThreshold/εᵢ) times its item budget so that at the trigger
// point its load factor — and therefore its realized FPR — stays within εᵢ:
//
//	realized = geomFPR·load = geomFPR·(FillThreshold·baseSlots/allocSlots)
//	         ≤ geomFPR·FillThreshold/overProv ≤ εᵢ
//
// The core's power-of-two block rounding adds slack on top, up to nearly
// doubling the allocation. That slack costs space, not FPR budget: once
// churn settles a cascade's live set below its newest level's trigger, that
// level can hold it at a third of its slots, which is what the shrink of a
// sole level (planShrink) gives back.
func levelSizing(c Config, i int) (baseSlots, trigger, allocSlots uint64) {
	fbase := float64(c.InitialSlots) * math.Pow(c.GrowthFactor, float64(i))
	overProv := levelGeometry(c, i).FPR * c.FillThreshold / levelBudget(c, i)
	if overProv < 1 {
		overProv = 1
	}
	falloc := fbase * overProv
	// Clamp the float math well below uint64 overflow. A clamped level
	// nominally breaks its budget, but it also needs ≥ 2^56 slots (petabytes
	// of blocks) — allocation fails long before the budget matters.
	const maxSlots = float64(1 << 56)
	if fbase > maxSlots {
		fbase = maxSlots
	}
	if falloc > maxSlots {
		falloc = maxSlots
	}
	baseSlots = uint64(fbase)
	trigger = uint64(c.FillThreshold * fbase)
	if trigger == 0 {
		trigger = 1
	}
	return baseSlots, trigger, uint64(falloc)
}

// Filter is a single-threaded elastic VQF. Like the core filters it
// consumes pre-hashed 64-bit keys; hashing and seed handling live in the
// public vqf package.
type Filter struct {
	cascadeState
	// quiet is the auto-trigger countdown: frozen-level removes left before
	// the planners run again (see trigger.go). Zero, as after New or Read,
	// means expired.
	quiet int64

	// scratch backs ContainsBatch's shrinking working set (batch.go).
	scratch cascadeScratch
}

// New creates an empty cascade with one level.
func New(cfg Config) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := newFilter(cfg)
	f.start()
	return f, nil
}

// newFilter returns a sequential cascade with no levels yet.
func newFilter(cfg Config) *Filter {
	f := &Filter{}
	f.cascadeState = cascadeState{
		cfg:         cfg,
		newCore:     sequentialCore,
		growEvent:   telemetry.EvElasticGrow,
		rearmLocked: f.rearmQuiet,
	}
	return f
}

// Insert adds the pre-hashed key h, growing the cascade when the newest
// level reaches its trigger (or, rarely, rejects the insert below it). It
// returns false only at the MaxLevels backstop.
func (f *Filter) Insert(h uint64) bool {
	for {
		ls := f.list()
		lvl := ls[len(ls)-1]
		if lvl.filter.Count() < lvl.trigger && lvl.filter.Insert(h) {
			return true
		}
		if _, ok := f.grow(lvl); !ok {
			return false
		}
		f.runTriggers()
	}
}

// Remove deletes one previously inserted instance of h, searching levels
// newest-first. It returns false if no level holds a matching fingerprint.
func (f *Filter) Remove(h uint64) bool {
	ls := f.list()
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Remove(h) {
			// A frozen or sole level just got sparser: count down to the
			// auto triggers.
			if countsDown(f.cfg, ls, ls[i]) {
				if f.quiet--; f.quiet <= 0 {
					f.runTriggers()
					f.rearm()
				}
			}
			return true
		}
	}
	return false
}

func sumCounts(ls []*level) uint64 {
	var n uint64
	for _, l := range ls {
		n += l.filter.Count()
	}
	return n
}

func sumCapacities(ls []*level) uint64 {
	var n uint64
	for _, l := range ls {
		n += l.filter.Capacity()
	}
	return n
}

func sumSizes(ls []*level) uint64 {
	var n uint64
	for _, l := range ls {
		n += l.filter.SizeBytes()
	}
	return n
}

func sumStats(ls []*level) stats.OpCounts {
	var total stats.OpCounts
	for _, l := range ls {
		total = total.Add(l.filter.Stats())
	}
	return total
}

// snapshotLevels assembles a CascadeSnapshot from a level list. The
// aggregate's occupancy histogram is the newest level's (the only one
// receiving inserts; levels can mix geometries, so their histograms do not
// merge meaningfully), its FPRFullLoad is the configured budget ε, and its
// FPREstimate sums the per-level realized estimates — the quantity the
// budget actually bounds.
func snapshotLevels(targetFPR float64, ls []*level) stats.CascadeSnapshot {
	cs := stats.CascadeSnapshot{Levels: make([]stats.Snapshot, len(ls))}
	var fprSum float64
	for i, l := range ls {
		snap := stats.BuildSnapshot(
			l.filter.Count(), l.filter.Capacity(), l.filter.SizeBytes(), l.geomFPR,
			l.filter.BlockOccupancies(), l.filter.SlotsPerBlock(), l.filter.Stats())
		cs.Levels[i] = snap
		fprSum += snap.FPREstimate
	}
	newest := ls[len(ls)-1]
	cs.Aggregate = stats.BuildSnapshot(
		sumCounts(ls), sumCapacities(ls), sumSizes(ls), targetFPR,
		newest.filter.BlockOccupancies(), newest.filter.SlotsPerBlock(), sumStats(ls))
	cs.Aggregate.FPREstimate = fprSum
	return cs
}
