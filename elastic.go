package vqf

import (
	"fmt"
	"io"
	"time"

	"vqf/internal/elastic"
	"vqf/internal/hashing"
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
	impl elasticImpl
	seq  *elastic.Filter // non-nil on sequential filters; enables WriteTo
	seed uint64
	rec  *telemetry.Recorder
	ring *telemetry.Ring
}

// initObservability attaches the cascade's latency recorder and event
// ring; see Filter.initObservability.
func (e *Elastic) initObservability(rate int, concurrent bool) {
	e.rec = telemetry.NewRecorder(rate, concurrent)
	e.ring = telemetry.NewRing(telemetry.DefaultRingSize)
	if h, ok := e.impl.(interface{ SetEventRing(*telemetry.Ring) }); ok {
		h.SetEventRing(e.ring)
	}
}

// elasticImpl is the shared surface of elastic.Filter, elastic.CFilter and
// elastic.Sharded.
type elasticImpl interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	NumLevels() int
	TargetFPR() float64
	Stats() stats.OpCounts
	Snapshot() stats.CascadeSnapshot
	CompactNow() elastic.CompactionResult
	FreezeNow() elastic.FreezeResult
}

// CompactionResult summarizes one CompactNow call: the cascade depth before
// and after, and how many source levels were rebuilt away (0 when nothing
// qualified). On sharded filters the fields are sums over all shards.
type CompactionResult = elastic.CompactionResult

// FreezeResult summarizes one FreezeNow call: the cascade depth before and
// after, how many source VQF levels were frozen or dropped, and how many
// immutable fuse levels they became. On sharded filters the fields are sums
// over all shards.
type FreezeResult = elastic.FreezeResult

// CascadeSnapshot is the structural snapshot of an Elastic filter: an
// aggregate Snapshot plus one Snapshot per level, oldest level first. See
// Elastic.CascadeSnapshot.
type CascadeSnapshot = stats.CascadeSnapshot

// elasticConfig translates the public options into the internal cascade
// config. WithInitialCapacity counts items, the internal InitialSlots is a
// slot budget; dividing by the growth threshold makes level 0 grow after
// approximately the requested item count.
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
		ec.InitialSlots = uint64(float64(c.initialCap) / ec.FillThreshold)
	}
	if err := ec.Validate(); err != nil {
		return ec, c, err
	}
	return ec, c, nil
}

// NewElastic returns an empty elastic filter. Unlike New it takes no item
// count: the filter starts at WithInitialCapacity (default 4096) items and
// grows online. The false-positive budget is set with
// WithFalsePositiveRate (same default as New) and holds across every
// growth. Like New it panics on invalid options.
func NewElastic(opts ...Option) *Elastic {
	ec, c, err := elasticConfig(opts)
	if err != nil {
		panic(err)
	}
	impl, err := elastic.New(ec)
	if err != nil {
		panic(err)
	}
	e := &Elastic{impl: impl, seq: impl, seed: c.seed}
	e.initObservability(c.latencyRate, false)
	return e
}

// NewConcurrentElastic returns an elastic filter safe for concurrent use by
// any number of goroutines. Growth publishes the new level list through an
// atomic pointer swap, so readers never block on it; see NewElastic for
// sizing and options.
func NewConcurrentElastic(opts ...Option) *Elastic {
	ec, c, err := elasticConfig(opts)
	if err != nil {
		panic(err)
	}
	impl, err := elastic.NewConcurrent(ec)
	if err != nil {
		panic(err)
	}
	e := &Elastic{impl: impl, seed: c.seed}
	e.initObservability(c.latencyRate, true)
	return e
}

func (e *Elastic) hash(key []byte) uint64 { return hashing.HashBytes(key, e.seed) }

// Add inserts key, growing the filter as needed. It never returns ErrFull;
// the error return exists for signature parity with Filter.Add (the
// unreachable MaxLevels backstop is its only error).
func (e *Elastic) Add(key []byte) error { return e.AddHash(e.hash(key)) }

// AddString inserts a string key.
func (e *Elastic) AddString(key string) error { return e.AddHash(hashing.HashString(key, e.seed)) }

// AddUint64 inserts a uint64 key.
func (e *Elastic) AddUint64(key uint64) error { return e.AddHash(hashing.HashUint64(key, e.seed)) }

// AddHash inserts a pre-hashed 64-bit key; see Filter.AddHash.
func (e *Elastic) AddHash(h uint64) error {
	var ok bool
	if e.rec.Sample(h) {
		start := time.Now()
		ok = e.impl.Insert(h)
		e.rec.Record(telemetry.OpInsert, h, time.Since(start))
	} else {
		ok = e.impl.Insert(h)
	}
	if !ok {
		return ErrFull
	}
	return nil
}

// Contains reports whether key may be in the filter: true for every added
// key, false with probability ≥ 1−ε for keys never added, at any size.
func (e *Elastic) Contains(key []byte) bool { return e.ContainsHash(e.hash(key)) }

// ContainsString queries a string key.
func (e *Elastic) ContainsString(key string) bool {
	return e.ContainsHash(hashing.HashString(key, e.seed))
}

// ContainsUint64 queries a uint64 key.
func (e *Elastic) ContainsUint64(key uint64) bool {
	return e.ContainsHash(hashing.HashUint64(key, e.seed))
}

// ContainsHash queries a pre-hashed 64-bit key.
func (e *Elastic) ContainsHash(h uint64) bool {
	if e.rec.Sample(h) {
		start := time.Now()
		found := e.impl.Contains(h)
		e.rec.Record(telemetry.OpLookup, h, time.Since(start))
		return found
	}
	return e.impl.Contains(h)
}

// Remove deletes one previously added instance of key, searching every
// level newest-first; see Filter.Remove for the deletion contract.
func (e *Elastic) Remove(key []byte) bool { return e.RemoveHash(e.hash(key)) }

// RemoveString removes a string key.
func (e *Elastic) RemoveString(key string) bool {
	return e.RemoveHash(hashing.HashString(key, e.seed))
}

// RemoveUint64 removes a uint64 key.
func (e *Elastic) RemoveUint64(key uint64) bool {
	return e.RemoveHash(hashing.HashUint64(key, e.seed))
}

// RemoveHash removes a pre-hashed 64-bit key.
func (e *Elastic) RemoveHash(h uint64) bool {
	if e.rec.Sample(h) {
		start := time.Now()
		ok := e.impl.Remove(h)
		e.rec.Record(telemetry.OpRemove, h, time.Since(start))
		return ok
	}
	return e.impl.Remove(h)
}

// AddHashBatch inserts a slice of pre-hashed keys and returns the number
// inserted. Unlike Filter.AddHashBatch the count is always len(hs): the
// cascade grows instead of filling, so elastic inserts never fail (the
// signature matches for batch-caller parity).
func (e *Elastic) AddHashBatch(hs []uint64) int {
	end := telemetry.Region("vqf.batch.insert")
	start := time.Now()
	n := 0
	for _, h := range hs {
		if e.impl.Insert(h) {
			n++
		}
	}
	e.rec.RecordBatch(telemetry.OpInsertBatch, 0, time.Since(start), len(hs))
	end()
	return n
}

// ContainsHashBatch reports membership for each pre-hashed key of hs, in
// input order, reusing dst when it has sufficient capacity (dst may be
// nil). The cascade resolves the batch level by level with a shrinking
// working set — keys found in the newest level never touch the older ones
// — so it is substantially faster than a loop over ContainsHash.
func (e *Elastic) ContainsHashBatch(hs []uint64, dst []bool) []bool {
	end := telemetry.Region("vqf.batch.lookup")
	start := time.Now()
	var out []bool
	if b, ok := e.impl.(interface {
		ContainsBatch(hs []uint64, dst []bool) []bool
	}); ok {
		out = b.ContainsBatch(hs, dst)
	} else {
		out = dst
		if cap(out) < len(hs) {
			out = make([]bool, len(hs))
		}
		out = out[:len(hs)]
		for i, h := range hs {
			out[i] = e.impl.Contains(h)
		}
	}
	e.rec.RecordBatch(telemetry.OpLookupBatch, 0, time.Since(start), len(hs))
	end()
	return out
}

// RemoveHashBatch removes one instance of each pre-hashed key of hs and
// returns the number found and removed.
func (e *Elastic) RemoveHashBatch(hs []uint64) int {
	end := telemetry.Region("vqf.batch.remove")
	start := time.Now()
	n := 0
	for _, h := range hs {
		if e.impl.Remove(h) {
			n++
		}
	}
	e.rec.RecordBatch(telemetry.OpRemoveBatch, 0, time.Since(start), len(hs))
	end()
	return n
}

// Count returns the number of items currently stored across all levels.
func (e *Elastic) Count() uint64 { return e.impl.Count() }

// Capacity returns the currently allocated fingerprint slots across all
// levels; it rises with each growth.
func (e *Elastic) Capacity() uint64 { return e.impl.Capacity() }

// LoadFactor returns Count divided by the current Capacity.
func (e *Elastic) LoadFactor() float64 {
	return float64(e.impl.Count()) / float64(e.impl.Capacity())
}

// SizeBytes returns the filter's current memory footprint.
func (e *Elastic) SizeBytes() uint64 { return e.impl.SizeBytes() }

// Levels returns the current number of cascade levels (1 before the first
// growth).
func (e *Elastic) Levels() int { return e.impl.NumLevels() }

// FalsePositiveRate returns the configured total false-positive budget ε,
// which upper-bounds the realized rate at every size.
func (e *Elastic) FalsePositiveRate() float64 { return e.impl.TargetFPR() }

// Stats returns operation counters summed over all levels; the per-call
// consistency contract matches Filter.Stats for the corresponding variant.
func (e *Elastic) Stats() OpStats { return e.impl.Stats() }

// Snapshot returns the cascade-wide aggregate snapshot, which makes Elastic
// a metrics Source like Filter and Map. The aggregate's occupancy section
// describes the newest (actively filling) level; use CascadeSnapshot for
// every level.
func (e *Elastic) Snapshot() Snapshot { return e.impl.Snapshot().Aggregate }

// CascadeSnapshot returns the aggregate plus per-level snapshots: level
// count, each level's occupancy, load factor and FPR estimate. On
// concurrent filters it is safe alongside live traffic.
func (e *Elastic) CascadeSnapshot() CascadeSnapshot { return e.impl.Snapshot() }

// CompactNow merges runs of old, sparse cascade levels into right-sized
// replacements, cutting the per-negative-lookup level count after
// insert/remove churn. Membership is preserved exactly (every key a merged
// level answered true for stays true) and the cascade-wide false-positive
// budget is untouched: each merged level inherits the summed budget of the
// levels it replaces. The newest (actively filling) level is never merged.
//
// On concurrent and sharded filters the call is safe alongside live
// traffic — lookups stay lock-free throughout and the merged levels are
// published with the same atomic swap growth uses; removes racing the
// compaction are reconciled so they can never resurrect in the merged
// level. Use WithAutoCompaction to trigger compaction automatically.
func (e *Elastic) CompactNow() CompactionResult { return e.impl.CompactNow() }

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
// On concurrent and sharded filters the call is safe alongside live
// traffic, reusing the compaction protocol: lookups stay lock-free and
// removes racing the freeze are reconciled against the new level. Use
// WithAutoFreeze to trigger freezing automatically.
func (e *Elastic) FreezeNow() FreezeResult { return e.impl.FreezeNow() }

// WriteTo serializes the cascade (config, every level's blocks, and the
// hash seed). Only filters created with NewElastic serialize, matching
// Filter.WriteTo; it implements io.WriterTo.
func (e *Elastic) WriteTo(w io.Writer) (int64, error) {
	if e.seq == nil {
		return 0, fmt.Errorf("vqf: concurrent elastic filters do not support serialization")
	}
	n, err := writeEnvelope(w, kindElastic, e.seed)
	if err != nil {
		return n, err
	}
	m, err := e.seq.WriteTo(w)
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
	e := &Elastic{impl: impl, seq: impl, seed: seed}
	e.initObservability(telemetry.DefaultSamplingRate, false)
	return e, nil
}
