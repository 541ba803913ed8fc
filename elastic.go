package vqf

import (
	"fmt"
	"io"

	"vqf/internal/elastic"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// Elastic is an online-growing vector quotient filter: a geometric cascade
// of fixed-size VQF levels that adds a level whenever the newest one fills,
// so capacity never has to be guessed up front. Its false-positive rate
// stays under the configured budget ε no matter how many growths occur —
// per-level rates are tightened geometrically (εᵢ = ε·(1−r)·rⁱ, so Σεᵢ = ε)
// by switching deep levels to 16-bit fingerprints and, deeper still,
// over-provisioning their slots.
//
// Lookups probe levels newest-first and short-circuit on the first hit;
// with the default doubling growth more than half of all items live in the
// newest level, so the common successful lookup still touches two cache
// lines. Adds never return ErrFull. Removes search every level.
//
// Create with NewElastic (single-threaded) or NewConcurrentElastic (safe
// for any number of goroutines; lookups stay lock-free during growth).
type Elastic struct {
	front
}

// elasticImpl is the shared surface of elastic.Filter and elastic.CFilter.
type elasticImpl interface {
	filterImpl
	NumLevels() int
	TargetFPR() float64
	Snapshot() stats.CascadeSnapshot
	CompactNow() elastic.CompactionResult
	FreezeNow() elastic.FreezeResult
}

// CompactionResult summarizes one CompactNow call: the cascade depth before
// and after, and how many source levels were rebuilt away (0 when nothing
// qualified).
type CompactionResult = elastic.CompactionResult

// FreezeResult summarizes one FreezeNow call: the cascade depth before and
// after, how many source VQF levels were frozen or dropped, and how many
// immutable fuse levels they became.
type FreezeResult = elastic.FreezeResult

// CascadeSnapshot is the structural snapshot of an Elastic filter: an
// aggregate Snapshot plus one Snapshot per level, oldest level first. See
// Elastic.CascadeSnapshot.
type CascadeSnapshot = stats.CascadeSnapshot

// elasticConfig translates the public options into the internal cascade
// config. WithInitialCapacity counts items, the internal InitialSlots is a
// slot budget; dividing by the growth threshold makes level 0 grow after
// approximately the requested item count. The budget is raised to one
// 8-bit block, the smallest level, so any capacity of at least one item
// builds, as New(1) does.
func elasticConfig(opts []Option) (elastic.Config, config, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return elastic.Config{}, c, err
	}
	ec := elastic.Config{
		TargetFPR:        c.fpr,
		GrowthFactor:     c.growthFactor,
		TightenRatio:     c.tightenRatio,
		FillThreshold:    c.growThreshold,
		NoShortcut:       c.noShortcut,
		CompactMinLevels: c.compactMinLevels,
		CompactMaxLoad:   c.compactMaxLoad,
		AutoFreeze:       c.autoFreeze,
		FreezeMinAge:     c.freezeMinAge,
		FreezeMaxLoad:    c.freezeMaxLoad,
	}
	if err := ec.Validate(); err != nil {
		return ec, c, err
	}
	if c.initialCap > 0 {
		ec.InitialSlots = max(uint64(float64(c.initialCap)/ec.FillThreshold), minifilter.B8Slots)
	}
	if err := ec.Validate(); err != nil {
		return ec, c, err
	}
	return ec, c, nil
}

// newElastic is the body NewElastic and NewConcurrentElastic share: it
// validates opts, builds the sequential or concurrent cascade and attaches
// observability. It panics on invalid options.
func newElastic(opts []Option, concurrent bool) *Elastic {
	ec, c, err := elasticConfig(opts)
	if err != nil {
		panic(err)
	}
	var impl elasticImpl
	if concurrent {
		impl, err = elastic.NewConcurrent(ec)
	} else {
		impl, err = elastic.New(ec)
	}
	if err != nil {
		panic(err)
	}
	e := &Elastic{front{impl: impl, seed: c.seed}}
	e.initObservability(c.latencyRate, concurrent)
	return e
}

// NewElastic returns an empty elastic filter. Unlike New it takes no item
// count: the filter starts at WithInitialCapacity (default 4096) items and
// grows online. The false-positive budget is set with
// WithFalsePositiveRate (same default as New) and holds across every
// growth. Like New it panics on invalid options.
func NewElastic(opts ...Option) *Elastic {
	return newElastic(opts, false)
}

// NewConcurrentElastic returns an elastic filter safe for concurrent use by
// any number of goroutines. Growth publishes the new level list through an
// atomic pointer swap, so readers never block on it; see NewElastic for
// sizing and options.
func NewConcurrentElastic(opts ...Option) *Elastic {
	return newElastic(opts, true)
}

// cascade returns the impl with its cascade-only surface.
func (e *Elastic) cascade() elasticImpl { return e.impl.(elasticImpl) }

// Levels returns the current number of cascade levels (1 before the first
// growth).
func (e *Elastic) Levels() int { return e.cascade().NumLevels() }

// FalsePositiveRate returns the configured total false-positive budget ε,
// which upper-bounds the realized rate at every size.
func (e *Elastic) FalsePositiveRate() float64 { return e.cascade().TargetFPR() }

// Snapshot returns the cascade-wide aggregate snapshot, which makes Elastic
// a metrics Source like Filter and Map. The aggregate's occupancy section
// describes the newest (actively filling) level; use CascadeSnapshot for
// every level.
func (e *Elastic) Snapshot() Snapshot { return e.cascade().Snapshot().Aggregate }

// CascadeSnapshot returns the aggregate plus per-level snapshots: level
// count, each level's occupancy, load factor and FPR estimate. On
// concurrent filters it is safe alongside live traffic.
func (e *Elastic) CascadeSnapshot() CascadeSnapshot { return e.cascade().Snapshot() }

// CompactNow merges runs of old, sparse cascade levels into right-sized
// replacements, cutting the per-negative-lookup level count after
// insert/remove churn. Membership is preserved exactly (every key a merged
// level answered true for stays true) and the cascade-wide false-positive
// budget is untouched: each merged level inherits the summed budget of the
// levels it replaces. The newest (actively filling) level is never merged;
// but when it is the only level and at most half of its size would hold
// its live set, it is shrunk: rebuilt at the right size, with the same
// geometry and budget.
//
// On concurrent filters the call is safe alongside live traffic — lookups
// stay lock-free throughout and the merged levels are published with the
// same atomic swap growth uses; removes racing the compaction are
// reconciled so they can never resurrect in the merged level, and inserts
// wait only while a shrink rebuilds their level. Use WithAutoCompaction to
// trigger compaction automatically.
func (e *Elastic) CompactNow() CompactionResult { return e.cascade().CompactNow() }

// FreezeNow rebuilds every qualifying run of old VQF levels into immutable
// binary-fuse levels: ~30–40% fewer bits per item and a single probe per
// lookup instead of two block scans, at the cost of update support —
// removes against a frozen level go to a tombstone ledger, and once
// tombstones cover a quarter of a level's population it thaws back into
// live form automatically. Membership is preserved exactly and the
// cascade-wide false-positive budget is untouched: each fuse level inherits
// the summed budget of the levels it replaces, and runs that cannot meet
// their budget in the fuse representation are left as they are. The newest
// (actively filling) level is never frozen.
//
// On concurrent filters the call is safe alongside live traffic, reusing
// the compaction protocol: lookups stay lock-free and removes racing the
// freeze are reconciled against the new level. Use WithAutoFreeze to
// trigger freezing automatically.
func (e *Elastic) FreezeNow() FreezeResult { return e.cascade().FreezeNow() }

// WriteTo serializes the cascade (config, every level's blocks, and the
// hash seed). Only filters created with NewElastic serialize, matching
// Filter.WriteTo; it implements io.WriterTo.
func (e *Elastic) WriteTo(w io.Writer) (int64, error) {
	seq, ok := e.impl.(*elastic.Filter)
	if !ok {
		return 0, fmt.Errorf("vqf: concurrent elastic filters do not support serialization")
	}
	n, err := writeEnvelope(w, kindElastic, e.seed)
	if err != nil {
		return n, err
	}
	m, err := seq.WriteTo(w)
	return n + m, err
}

// ReadElastic deserializes an elastic filter written by Elastic.WriteTo.
// The growth schedule and the auto-compaction/auto-freeze policy travel
// with the filter, so the reloaded cascade keeps growing, compacting and
// freezing — and keeps its FPR budget — exactly as the original would
// have. Streams written before the policy was serialized reload with it
// off.
func ReadElastic(r io.Reader) (*Elastic, error) {
	seed, err := readEnvelope(r, kindElastic)
	if err != nil {
		return nil, err
	}
	impl, err := elastic.Read(r)
	if err != nil {
		return nil, err
	}
	e := &Elastic{front{impl: impl, seed: seed}}
	e.initObservability(telemetry.DefaultSamplingRate, false)
	return e, nil
}
