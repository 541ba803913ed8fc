package vqf

import (
	"time"

	"vqf/internal/hashing"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// front is the key-facing half of every public filter, and the one place
// a key becomes a call on a structure: it hashes raw keys with the
// filter's seed, passes single-key operations through the latency
// sampling gate, times batch calls, and forwards to impl. Filter and
// Elastic embed it and add only what their structures do differently.
type front struct {
	impl filterImpl
	seed uint64
	rec  *telemetry.Recorder
	ring *telemetry.Ring
}

// filterImpl is the surface every structure behind a front provides: the
// core filters (sequential, concurrent and sharded, in both geometries)
// and the elastic cascades.
type filterImpl interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	Stats() stats.OpCounts
}

// initObservability attaches the filter's latency recorder and event ring.
// concurrent selects the thread-safe sampling gate; it must match the
// impl's threading contract. Called from every constructor, including the
// deserializing ones (which use the default sampling rate).
func (f *front) initObservability(rate int, concurrent bool) {
	f.rec = telemetry.NewRecorder(rate, concurrent)
	f.ring = telemetry.NewRing(telemetry.DefaultRingSize)
	if h, ok := f.impl.(interface{ SetEventRing(*telemetry.Ring) }); ok {
		h.SetEventRing(f.ring)
	}
}

func (f *front) hash(key []byte) uint64 { return hashing.HashBytes(key, f.seed) }

// Add inserts key into the filter. It returns ErrFull if both candidate
// blocks are full. Elastic filters grow instead of filling, so their Add
// never returns ErrFull.
func (f *front) Add(key []byte) error { return f.AddHash(f.hash(key)) }

// AddString inserts a string key.
func (f *front) AddString(key string) error { return f.AddHash(hashing.HashString(key, f.seed)) }

// AddUint64 inserts a uint64 key.
func (f *front) AddUint64(key uint64) error { return f.AddHash(hashing.HashUint64(key, f.seed)) }

// AddHash inserts a pre-hashed 64-bit key. The hash must be uniformly
// distributed (use AddString/AddUint64/Add for raw keys).
func (f *front) AddHash(h uint64) error {
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
// key, and false with probability ≥ 1−ε for keys never added (on elastic
// filters, at any size).
func (f *front) Contains(key []byte) bool { return f.ContainsHash(f.hash(key)) }

// ContainsString queries a string key.
func (f *front) ContainsString(key string) bool {
	return f.ContainsHash(hashing.HashString(key, f.seed))
}

// ContainsUint64 queries a uint64 key.
func (f *front) ContainsUint64(key uint64) bool {
	return f.ContainsHash(hashing.HashUint64(key, f.seed))
}

// ContainsHash queries a pre-hashed 64-bit key.
func (f *front) ContainsHash(h uint64) bool {
	if f.rec.Sample(h) {
		start := time.Now()
		found := f.impl.Contains(h)
		f.rec.Record(telemetry.OpLookup, h, time.Since(start))
		return found
	}
	return f.impl.Contains(h)
}

// Remove deletes one previously added instance of key (elastic filters
// search every level, newest first). It returns false if key's
// fingerprint is not present. Only keys that were actually added may be
// removed; removing an arbitrary key can evict a colliding key's
// fingerprint (a property shared by every deletion-capable filter).
func (f *front) Remove(key []byte) bool { return f.RemoveHash(f.hash(key)) }

// RemoveString removes a string key.
func (f *front) RemoveString(key string) bool {
	return f.RemoveHash(hashing.HashString(key, f.seed))
}

// RemoveUint64 removes a uint64 key.
func (f *front) RemoveUint64(key uint64) bool {
	return f.RemoveHash(hashing.HashUint64(key, f.seed))
}

// RemoveHash removes a pre-hashed 64-bit key.
func (f *front) RemoveHash(h uint64) bool {
	if f.rec.Sample(h) {
		start := time.Now()
		ok := f.impl.Remove(h)
		f.rec.Record(telemetry.OpRemove, h, time.Since(start))
		return ok
	}
	return f.impl.Remove(h)
}

// AddHashBatch inserts a slice of pre-hashed keys and returns the number
// successfully inserted (the rest hit full blocks; see ErrFull). Elastic
// filters grow instead of filling, so there it is always len(hs). Filters
// process the keys in a cache-friendly order — sorted by block, and on
// sharded filters sorted by shard across shard-disjoint parallel workers —
// which is substantially faster than a loop over AddHash for large
// batches. On concurrent filters it is safe alongside any other
// operations.
func (f *front) AddHashBatch(hs []uint64) int {
	end := telemetry.Region("vqf.batch.insert")
	start := time.Now()
	n := 0
	if b, ok := f.impl.(interface{ InsertBatch(hs []uint64) int }); ok {
		n = b.InsertBatch(hs)
	} else {
		for _, h := range hs {
			if f.impl.Insert(h) {
				n++
			}
		}
	}
	f.rec.RecordBatch(telemetry.OpInsertBatch, 0, time.Since(start), len(hs))
	end()
	return n
}

// ContainsHashBatch reports membership for each pre-hashed key of hs, in
// input order. The result reuses dst if it has sufficient capacity (dst may
// be nil). Lookups never sort: filters walk hs in caller order through a
// branch-free batch kernel, the concurrent and sharded ones through its
// seqlock-validated lock-free form, split into contiguous chunks across
// parallel workers when the batch is large. Unsharded elastic filters
// resolve the batch level by level with a shrinking working set — keys
// found in the newest level never touch the older ones.
func (f *front) ContainsHashBatch(hs []uint64, dst []bool) []bool {
	end := telemetry.Region("vqf.batch.lookup")
	start := time.Now()
	var out []bool
	if b, ok := f.impl.(interface {
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
			out[i] = f.impl.Contains(h)
		}
	}
	f.rec.RecordBatch(telemetry.OpLookupBatch, 0, time.Since(start), len(hs))
	end()
	return out
}

// RemoveHashBatch removes one instance of each pre-hashed key of hs and
// returns the number found and removed.
func (f *front) RemoveHashBatch(hs []uint64) int {
	end := telemetry.Region("vqf.batch.remove")
	start := time.Now()
	n := 0
	if b, ok := f.impl.(interface{ RemoveBatch(hs []uint64) int }); ok {
		n = b.RemoveBatch(hs)
	} else {
		for _, h := range hs {
			if f.impl.Remove(h) {
				n++
			}
		}
	}
	f.rec.RecordBatch(telemetry.OpRemoveBatch, 0, time.Since(start), len(hs))
	end()
	return n
}

// Count returns the number of items currently stored (added minus
// removed), across all levels of an elastic filter.
func (f *front) Count() uint64 { return f.impl.Count() }

// Capacity returns the total number of fingerprint slots. A filter
// operates reliably up to ≈ 93% of this; an elastic filter's capacity
// rises with each growth.
func (f *front) Capacity() uint64 { return f.impl.Capacity() }

// LoadFactor returns Count divided by Capacity.
func (f *front) LoadFactor() float64 {
	return float64(f.impl.Count()) / float64(f.impl.Capacity())
}

// SizeBytes returns the filter's current memory footprint.
func (f *front) SizeBytes() uint64 { return f.impl.SizeBytes() }

// Stats returns the filter's cumulative operation counters (summed over
// all levels of an elastic filter). On concurrent filters it is safe to
// call at any time — counters are summed with atomic loads and writers are
// never blocked — and each counter is individually exact and monotone,
// though the set is not a single consistent cut (see Snapshot). On
// sequential filters it must not race with mutations, like every other
// method.
func (f *front) Stats() OpStats { return f.impl.Stats() }

// NumShards returns the filter's shard count: the (rounded-up) configured
// count for NewSharded and NewShardedElastic, 1 for every other
// constructor.
func (f *front) NumShards() int {
	if s, ok := f.impl.(interface{ NumShards() int }); ok {
		return s.NumShards()
	}
	return 1
}

// Latency returns the filter's sampled latency snapshot. Safe at any time
// on concurrent filters. With sampling disabled every summary is empty and
// SamplingRate is 0.
func (f *front) Latency() LatencySnapshot { return latencySnapshot(f.rec) }

func (f *front) latencyRecorder() *telemetry.Recorder { return f.rec }

// Events drains the filter's event ring, oldest first, without consuming:
// repeated calls return overlapping windows of the most recent events.
// Safe at any time on concurrent filters. Elastic growth events (kind
// "elastic-grow"/"elastic-swap") land here.
func (f *front) Events() []Event { return f.ring.Events() }
