// Package vqf is a pure-Go implementation of the vector quotient filter, the
// approximate-membership data structure of Pandey, Conway, Durie, Bender,
// Farach-Colton and Johnson, "Vector Quotient Filters: Overcoming the
// Time/Space Trade-Off in Filter Design" (SIGMOD 2021).
//
// A filter for n items with false-positive rate ε uses roughly
// (log₂(1/ε)+2.914)/0.93 bits per item and answers membership queries with no
// false negatives. Unlike Bloom, cuckoo and classic quotient filters, its
// insertion throughput stays flat from empty to ≈93% full: items are placed
// in the emptier of two cache-line-sized blocks and never relocated.
//
// Basic usage:
//
//	f := vqf.New(1_000_000)
//	f.Add([]byte("alpha"))
//	f.Contains([]byte("alpha")) // true
//	f.Contains([]byte("beta"))  // false (w.p. ≥ 1−ε)
//	f.Remove([]byte("alpha"))
//
// Keys may also be supplied as strings, uint64s, or pre-hashed 64-bit values
// (AddHash and friends), which skips the internal hashing step entirely.
// NewConcurrent returns a filter safe for concurrent use by any number of
// goroutines.
package vqf

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vqf/internal/core"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// ErrFull is returned by Add when both candidate blocks for the key are full.
// With default sizing this does not happen with high probability until the
// filter holds ≈ 93% of Capacity items.
var ErrFull = errors.New("vqf: filter is full")

// Filter is a vector quotient filter. The zero value is not usable; create
// filters with New or NewConcurrent.
type Filter struct {
	front
}

// coreImpl is the surface of the core filters behind a Filter (sequential,
// concurrent or sharded, in either geometry) beyond filterImpl.
type coreImpl interface {
	filterImpl
	io.WriterTo
	BlockOccupancies() []uint
	SlotsPerBlock() uint
	Geometry() *core.Geometry
}

// coreImpl returns the filter's core filter.
func (f *Filter) coreImpl() coreImpl { return f.impl.(coreImpl) }

type config struct {
	fpr         float64
	seed        uint64
	noShortcut  bool
	sizingLoad  float64
	latencyRate int
	latencySet  bool

	// Elastic-only knobs (see NewElastic); ignored by New/NewConcurrent.
	initialCap       uint64
	growthFactor     float64
	tightenRatio     float64
	growThreshold    float64
	compactMinLevels int
	compactMaxLoad   float64
	autoFreeze       bool
	freezeMinAge     time.Duration
	freezeMaxLoad    float64
}

// Option configures New and NewConcurrent.
type Option func(*config)

// WithFalsePositiveRate selects the filter geometry by target false-positive
// rate. The paper's prototype supports two rates: requests the 8-bit
// geometry can meet (fpr ≥ 2·(48/80)·2⁻⁸ ≈ 0.0047) use 8-bit fingerprints;
// tighter requests use 16-bit fingerprints (ε ≈ 0.000024). Rates below 2⁻¹⁷
// cannot be met by either geometry and are rejected.
func WithFalsePositiveRate(fpr float64) Option {
	return func(c *config) { c.fpr = fpr }
}

// WithSeed sets the hash seed used for []byte/string/uint64 keys. Filters
// must use identical seeds to answer queries for keys added through another
// filter instance.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithoutShortcut disables the single-block insertion shortcut (paper §6.2).
// Inserts become slightly slower at low occupancy but the maximum load factor
// rises from ≈ 93.5% to ≈ 94.4%.
func WithoutShortcut() Option {
	return func(c *config) { c.noShortcut = true }
}

// WithInitialCapacity sets the item count an elastic filter's first level
// is provisioned for; each growth multiplies capacity by the growth factor.
// Any n ≥ 1 is valid: the first level is never smaller than one block (48
// slots), so a small n gets that block. Only NewElastic and
// NewConcurrentElastic use it. The default is 4096.
func WithInitialCapacity(n uint64) Option {
	return func(c *config) { c.initialCap = n }
}

// WithGrowthFactor sets the capacity ratio between consecutive levels of an
// elastic filter (default 2; valid range [1.5, 16]). Only NewElastic and
// NewConcurrentElastic use it.
func WithGrowthFactor(g float64) Option {
	return func(c *config) { c.growthFactor = g }
}

// WithTightenRatio sets the geometric decay r of an elastic filter's
// per-level false-positive budgets εᵢ = ε·(1−r)·rⁱ (default 0.5; valid
// range (0, 0.9]). Smaller r spends the budget faster on early levels,
// keeping deep cascades cheaper per level; larger r delays the switch to
// 16-bit fingerprints. Only NewElastic and NewConcurrentElastic use it.
func WithTightenRatio(r float64) Option {
	return func(c *config) { c.tightenRatio = r }
}

// WithGrowthThreshold sets the fraction of a level's item budget at which
// an elastic filter appends its next level (default 0.85; valid range
// (0, 0.93]). Only NewElastic and NewConcurrentElastic use it.
func WithGrowthThreshold(t float64) Option {
	return func(c *config) { c.growThreshold = t }
}

// WithAutoCompaction enables automatic cascade compaction on elastic
// filters: whenever the cascade has at least minLevels levels and the
// frozen (non-newest) levels are loaded at or below the maxLoad fraction
// of their combined capacity, qualifying runs of old levels are merged
// into right-sized replacements, restoring negative-lookup speed after
// insert/remove churn (see Elastic.CompactNow); a cascade of one level is
// shrunk once its live set fits in half of it. minLevels must be in
// [3, 64]; maxLoad in (0, 1], or 0 for the default 0.5. The condition is
// checked after every growth; between growths, removes from old levels
// (or from the only level) only count down to the first one that could
// make it hold, so the check
// costs a counter decrement per remove and still fires at the same remove
// a check after every remove would. On concurrent filters the compaction
// runs in a background goroutine; on sequential filters it runs inline in
// the triggering operation. Only NewElastic and NewConcurrentElastic use
// it.
func WithAutoCompaction(minLevels int, maxLoad float64) Option {
	return func(c *config) {
		c.compactMinLevels = minLevels
		c.compactMaxLoad = maxLoad
	}
}

// WithAutoFreeze enables the automatic frozen tier on elastic filters:
// cascade levels that have been out of the insert path for at least minAge
// and are loaded at or below the maxLoad fraction of their capacity are
// rebuilt into immutable binary-fuse levels — ~30–40% smaller and one probe
// instead of two per lookup, at the cost of tombstone-based removes (see
// Elastic.FreezeNow). minAge must be ≥ 0 (0 freezes any superseded level
// immediately); maxLoad in (0, 1], or 0 for the default 1 (any load
// qualifies). Eligibility is checked after every growth and, like
// WithAutoCompaction's condition and the thaw of frozen levels, after the
// first remove from an old level that could make it hold (every remove
// while a level is still younger than minAge). On concurrent filters the
// freeze runs in a background goroutine; on sequential filters it runs
// inline in the triggering operation. Only NewElastic and
// NewConcurrentElastic use it.
func WithAutoFreeze(minAge time.Duration, maxLoad float64) Option {
	return func(c *config) {
		c.autoFreeze = true
		c.freezeMinAge = minAge
		c.freezeMaxLoad = maxLoad
	}
}

// WithSizingLoadFactor sets the load factor the filter is provisioned for:
// capacity is chosen so that n items fill the filter to at most this
// fraction. The default is 0.90; values above 0.93 risk Add failing before n
// items are inserted.
func WithSizingLoadFactor(lf float64) Option {
	return func(c *config) { c.sizingLoad = lf }
}

func buildConfig(opts []Option) (config, error) {
	c := config{fpr: core.Geom8.FPR, sizingLoad: 0.90}
	for _, o := range opts {
		o(&c)
	}
	if !c.latencySet {
		c.latencyRate = telemetry.DefaultSamplingRate
	}
	if c.fpr < 1.0/(1<<17) {
		return c, fmt.Errorf("vqf: false-positive rate %g below supported minimum 2^-17", c.fpr)
	}
	if c.sizingLoad <= 0 || c.sizingLoad > 0.93 {
		return c, fmt.Errorf("vqf: sizing load factor %g outside (0, 0.93]", c.sizingLoad)
	}
	return c, nil
}

// newFilter is the body New, NewConcurrent and NewSharded share: it
// validates opts, sizes the filter for n items, picks the geometry
// (core.GeometryFor, the one place the choice is made), builds the impl
// with mk and attaches observability. It panics on invalid options.
func newFilter(n uint64, opts []Option, concurrent bool, mk func(g *core.Geometry, slots uint64, o core.Options) filterImpl) *Filter {
	c, err := buildConfig(opts)
	if err != nil {
		panic(err)
	}
	g := core.GeometryFor(c.fpr)
	slots := uint64(float64(n)/c.sizingLoad) + 1
	impl := mk(g, slots, core.Options{NoShortcut: c.noShortcut})
	f := &Filter{front{impl: impl, seed: c.seed}}
	f.initObservability(c.latencyRate, concurrent)
	return f
}

// New returns a filter sized to hold n items. It panics on invalid options
// (mirroring make's behaviour for invalid sizes); use the Option docs for
// valid ranges.
func New(n uint64, opts ...Option) *Filter {
	return newFilter(n, opts, false, func(g *core.Geometry, slots uint64, o core.Options) filterImpl {
		if g == core.Geom8 {
			return core.NewFilter8(slots, o)
		}
		return core.NewFilter16(slots, o)
	})
}

// NewConcurrent returns a filter safe for concurrent use. Sizing and options
// are as for New.
func NewConcurrent(n uint64, opts ...Option) *Filter {
	return newFilter(n, opts, true, func(g *core.Geometry, slots uint64, o core.Options) filterImpl {
		if g == core.Geom8 {
			return core.NewCFilter8(slots, o)
		}
		return core.NewCFilter16(slots, o)
	})
}

// FalsePositiveRate returns the filter's analytic false-positive rate at full
// load (2·(s/b)·2⁻ʳ, paper §5). The realized rate is proportionally lower at
// lower load factors.
func (f *Filter) FalsePositiveRate() float64 { return f.coreImpl().Geometry().FPR }

// NumShards returns the filter's shard count: the (rounded-up) configured
// count for NewSharded, 1 for New and NewConcurrent.
func (f *Filter) NumShards() int {
	if s, ok := f.impl.(interface{ NumShards() int }); ok {
		return s.NumShards()
	}
	return 1
}

// Snapshot returns a full structural snapshot: operation counters, load
// factor, space efficiency, estimated false-positive rate, and the per-block
// occupancy distribution. On concurrent filters the occupancy scan reads each
// block optimistically (briefly locking only blocks with an active writer),
// so it can run alongside live traffic; blocks are sampled one at a time, so
// the histogram is a smear over the scan window rather than an instantaneous
// cut. Snapshot reads are not recorded in the operation counters.
func (f *Filter) Snapshot() Snapshot {
	c := f.coreImpl()
	return stats.BuildSnapshot(
		c.Count(), c.Capacity(), c.SizeBytes(), c.Geometry().FPR,
		c.BlockOccupancies(), c.SlotsPerBlock(), c.Stats())
}
