package vqf

import (
	"vqf/internal/core"
	"vqf/internal/hashing"
	"vqf/internal/stats"
)

// Map is a value-associating vector quotient filter: an approximate map from
// keys to one-byte values (paper §8). It has the same space and cache
// profile as Filter plus one byte per slot. Lookups of keys never stored
// miss with probability ≥ 1−ε; on the ε chance of a fingerprint collision,
// Get returns the colliding key's value.
//
// Applications use the value byte for shard IDs, level numbers, small
// counters, or flags riding along with membership (as the paper's storage
// references do with the CQF's value bits).
type Map struct {
	impl *core.KVFilter8
	seed uint64
}

// NewMap returns a Map sized to hold n keys at ≈90% of capacity.
func NewMap(n uint64, opts ...Option) *Map {
	c, err := buildConfig(opts)
	if err != nil {
		panic(err)
	}
	slots := uint64(float64(n)/c.sizingLoad) + 1
	return &Map{impl: core.NewKV8(slots), seed: c.seed}
}

// Put stores key with value v. It returns ErrFull if both candidate blocks
// are full.
func (m *Map) Put(key []byte, v byte) error { return m.PutHash(hashing.HashBytes(key, m.seed), v) }

// PutString stores a string key with value v.
func (m *Map) PutString(key string, v byte) error {
	return m.PutHash(hashing.HashString(key, m.seed), v)
}

// PutHash stores a pre-hashed key with value v.
func (m *Map) PutHash(h uint64, v byte) error {
	if !m.impl.Put(h, v) {
		return ErrFull
	}
	return nil
}

// Get returns the value stored for key; ok is false if the key's fingerprint
// is absent.
func (m *Map) Get(key []byte) (byte, bool) { return m.impl.Get(hashing.HashBytes(key, m.seed)) }

// GetString looks up a string key.
func (m *Map) GetString(key string) (byte, bool) {
	return m.impl.Get(hashing.HashString(key, m.seed))
}

// GetHash looks up a pre-hashed key.
func (m *Map) GetHash(h uint64) (byte, bool) { return m.impl.Get(h) }

// Update changes the value of a stored key, returning false if absent.
func (m *Map) Update(key []byte, v byte) bool {
	return m.impl.Update(hashing.HashBytes(key, m.seed), v)
}

// UpdateString changes the value of a stored string key.
func (m *Map) UpdateString(key string, v byte) bool {
	return m.impl.Update(hashing.HashString(key, m.seed), v)
}

// UpdateHash changes the value of a stored pre-hashed key.
func (m *Map) UpdateHash(h uint64, v byte) bool { return m.impl.Update(h, v) }

// Delete removes one stored instance of key, returning false if absent.
func (m *Map) Delete(key []byte) bool { return m.impl.Delete(hashing.HashBytes(key, m.seed)) }

// DeleteHash removes one stored instance of a pre-hashed key.
func (m *Map) DeleteHash(h uint64) bool { return m.impl.Delete(h) }

// Count returns the number of stored key/value pairs.
func (m *Map) Count() uint64 { return m.impl.Count() }

// Capacity returns the total number of slots.
func (m *Map) Capacity() uint64 { return m.impl.Capacity() }

// LoadFactor returns Count divided by Capacity.
func (m *Map) LoadFactor() float64 { return m.impl.LoadFactor() }

// SizeBytes returns the Map's memory footprint.
func (m *Map) SizeBytes() uint64 { return m.impl.SizeBytes() }

// FalsePositiveRate returns the Map's analytic false-positive rate at full
// load: the 8-bit geometry's (the Map always uses 8-bit fingerprints); see
// Filter.FalsePositiveRate.
func (m *Map) FalsePositiveRate() float64 { return geom8.fpr }

// Stats returns the Map's cumulative operation counters: Puts count as
// inserts, Gets and Updates as lookups, Deletes as removes. Like every other
// Map method, it must not race with mutations.
func (m *Map) Stats() OpStats { return m.impl.Stats() }

// Snapshot returns a full structural snapshot of the Map; see
// Filter.Snapshot.
func (m *Map) Snapshot() Snapshot {
	return stats.BuildSnapshot(
		m.impl.Count(), m.impl.Capacity(), m.impl.SizeBytes(), geom8.fpr,
		m.impl.BlockOccupancies(), m.impl.SlotsPerBlock(), m.impl.Stats())
}
