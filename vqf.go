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
	"time"

	"vqf/internal/core"
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// ErrFull is returned by Add when both candidate blocks for the key are full.
// With default sizing this does not happen with high probability until the
// filter holds ≈ 93% of Capacity items.
var ErrFull = errors.New("vqf: filter is full")

// hashedFilter is the common surface of the four core filter variants.
type hashedFilter interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	Stats() stats.OpCounts
	BlockOccupancies() []uint
	SlotsPerBlock() uint
}

// Filter is a vector quotient filter. The zero value is not usable; create
// filters with New or NewConcurrent.
type Filter struct {
	impl hashedFilter
	seed uint64
	fpr  float64
	rec  *telemetry.Recorder
	ring *telemetry.Ring
}

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
// Only NewElastic and NewConcurrentElastic use it. The default is 4096.
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
// insert/remove churn (see Elastic.CompactNow). minLevels must be in
// [3, 64]; maxLoad in (0, 1], or 0 for the default 0.5. The condition is
// checked after every growth; between growths, removes from old levels
// only count down to the first one that could make it hold, so the check
// costs a counter decrement per remove and still fires at the same remove
// a check after every remove would. On concurrent and sharded filters the
// compaction runs in a background goroutine; on sequential filters it runs
// inline in the triggering operation. Only NewElastic, NewConcurrentElastic
// and NewShardedElastic use it.
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
// while a level is still younger than minAge). On concurrent and sharded
// filters the freeze runs in a background goroutine; on sequential filters
// it runs inline in the triggering operation. Only NewElastic,
// NewConcurrentElastic and NewShardedElastic use it.
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
	c := config{fpr: fpr8Cutoff, sizingLoad: 0.90}
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

// initObservability attaches the filter's latency recorder and event ring.
// concurrent selects the thread-safe sampling gate; it must match the
// impl's threading contract. Called from every constructor, including the
// deserializing ones (which use the default sampling rate).
func (f *Filter) initObservability(rate int, concurrent bool) {
	f.rec = telemetry.NewRecorder(rate, concurrent)
	f.ring = telemetry.NewRing(telemetry.DefaultRingSize)
	if h, ok := f.impl.(interface{ SetEventRing(*telemetry.Ring) }); ok {
		h.SetEventRing(f.ring)
	}
}

// fpr8Cutoff is the 8-bit geometry's analytic false-positive rate,
// 2·(48/80)·2⁻⁸: the loosest target it actually meets. It is also the
// default rate for New.
const fpr8Cutoff = 2.0 * 48 / 80 / 256

// New returns a filter sized to hold n items. It panics on invalid options
// (mirroring make's behaviour for invalid sizes); use the Option docs for
// valid ranges.
func New(n uint64, opts ...Option) *Filter {
	c, err := buildConfig(opts)
	if err != nil {
		panic(err)
	}
	slots := uint64(float64(n)/c.sizingLoad) + 1
	coreOpts := core.Options{NoShortcut: c.noShortcut}
	f := &Filter{seed: c.seed}
	if c.fpr >= fpr8Cutoff {
		f.impl = core.NewFilter8(slots, coreOpts)
		f.fpr = 2 * float64(minifilter.B8Slots) / float64(minifilter.B8Buckets) / 256
	} else {
		f.impl = core.NewFilter16(slots, coreOpts)
		f.fpr = 2 * float64(minifilter.B16Slots) / float64(minifilter.B16Buckets) / 65536
	}
	f.initObservability(c.latencyRate, false)
	return f
}

// NewConcurrent returns a filter safe for concurrent use. Sizing and options
// are as for New.
func NewConcurrent(n uint64, opts ...Option) *Filter {
	c, err := buildConfig(opts)
	if err != nil {
		panic(err)
	}
	slots := uint64(float64(n)/c.sizingLoad) + 1
	coreOpts := core.Options{NoShortcut: c.noShortcut}
	f := &Filter{seed: c.seed}
	if c.fpr >= fpr8Cutoff {
		f.impl = core.NewCFilter8(slots, coreOpts)
		f.fpr = 2 * float64(minifilter.B8Slots) / float64(minifilter.B8Buckets) / 256
	} else {
		f.impl = core.NewCFilter16(slots, coreOpts)
		f.fpr = 2 * float64(minifilter.B16Slots) / float64(minifilter.B16Buckets) / 65536
	}
	f.initObservability(c.latencyRate, true)
	return f
}

func (f *Filter) hash(key []byte) uint64 { return hashing.HashBytes(key, f.seed) }

// Add inserts key into the filter. It returns ErrFull if both candidate
// blocks are full.
func (f *Filter) Add(key []byte) error { return f.AddHash(f.hash(key)) }

// AddString inserts a string key.
func (f *Filter) AddString(key string) error { return f.AddHash(hashing.HashString(key, f.seed)) }

// AddUint64 inserts a uint64 key.
func (f *Filter) AddUint64(key uint64) error { return f.AddHash(hashing.HashUint64(key, f.seed)) }

// AddHash inserts a pre-hashed 64-bit key. The hash must be uniformly
// distributed (use AddString/AddUint64/Add for raw keys).
func (f *Filter) AddHash(h uint64) error {
	var ok bool
	if f.rec.Sample(h) {
		start := time.Now()
		ok = f.impl.Insert(h)
		f.rec.Record(telemetry.OpInsert, h, time.Since(start))
	} else {
		ok = f.impl.Insert(h)
	}
	if !ok {
		return ErrFull
	}
	return nil
}

// Contains reports whether key may be in the filter: true for every added
// key, and false with probability ≥ 1−ε for keys never added.
func (f *Filter) Contains(key []byte) bool { return f.ContainsHash(f.hash(key)) }

// ContainsString queries a string key.
func (f *Filter) ContainsString(key string) bool {
	return f.ContainsHash(hashing.HashString(key, f.seed))
}

// ContainsUint64 queries a uint64 key.
func (f *Filter) ContainsUint64(key uint64) bool {
	return f.ContainsHash(hashing.HashUint64(key, f.seed))
}

// ContainsHash queries a pre-hashed 64-bit key.
func (f *Filter) ContainsHash(h uint64) bool {
	if f.rec.Sample(h) {
		start := time.Now()
		found := f.impl.Contains(h)
		f.rec.Record(telemetry.OpLookup, h, time.Since(start))
		return found
	}
	return f.impl.Contains(h)
}

// Remove deletes one previously added instance of key. It returns false if
// key's fingerprint is not present. Only keys that were actually added may be
// removed; removing an arbitrary key can evict a colliding key's fingerprint
// (a property shared by every deletion-capable filter).
func (f *Filter) Remove(key []byte) bool { return f.RemoveHash(f.hash(key)) }

// RemoveString removes a string key.
func (f *Filter) RemoveString(key string) bool {
	return f.RemoveHash(hashing.HashString(key, f.seed))
}

// RemoveUint64 removes a uint64 key.
func (f *Filter) RemoveUint64(key uint64) bool {
	return f.RemoveHash(hashing.HashUint64(key, f.seed))
}

// RemoveHash removes a pre-hashed 64-bit key.
func (f *Filter) RemoveHash(h uint64) bool {
	if f.rec.Sample(h) {
		start := time.Now()
		ok := f.impl.Remove(h)
		f.rec.Record(telemetry.OpRemove, h, time.Since(start))
		return ok
	}
	return f.impl.Remove(h)
}

// Count returns the number of items currently stored (added minus removed).
func (f *Filter) Count() uint64 { return f.impl.Count() }

// Capacity returns the total number of fingerprint slots. The filter
// operates reliably up to ≈ 93% of this.
func (f *Filter) Capacity() uint64 { return f.impl.Capacity() }

// LoadFactor returns Count divided by Capacity.
func (f *Filter) LoadFactor() float64 {
	return float64(f.impl.Count()) / float64(f.impl.Capacity())
}

// SizeBytes returns the filter's memory footprint.
func (f *Filter) SizeBytes() uint64 { return f.impl.SizeBytes() }

// FalsePositiveRate returns the filter's analytic false-positive rate at full
// load (2·(s/b)·2⁻ʳ, paper §5). The realized rate is proportionally lower at
// lower load factors.
func (f *Filter) FalsePositiveRate() float64 { return f.fpr }

// Stats returns the filter's cumulative operation counters. On concurrent
// filters it is safe to call at any time — counters are summed with atomic
// loads and writers are never blocked — and each counter is individually
// exact and monotone, though the set is not a single consistent cut (see
// Snapshot). On sequential filters it must not race with mutations, like
// every other method.
func (f *Filter) Stats() OpStats { return f.impl.Stats() }

// Snapshot returns a full structural snapshot: operation counters, load
// factor, space efficiency, estimated false-positive rate, and the per-block
// occupancy distribution. On concurrent filters the occupancy scan reads each
// block optimistically (briefly locking only blocks with an active writer),
// so it can run alongside live traffic; blocks are sampled one at a time, so
// the histogram is a smear over the scan window rather than an instantaneous
// cut. Snapshot reads are not recorded in the operation counters.
func (f *Filter) Snapshot() Snapshot {
	return stats.BuildSnapshot(
		f.impl.Count(), f.impl.Capacity(), f.impl.SizeBytes(), f.fpr,
		f.impl.BlockOccupancies(), f.impl.SlotsPerBlock(), f.impl.Stats())
}
