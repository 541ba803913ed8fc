// Package bloom implements the Bloom filters used as comparators in the
// vector quotient filter paper: the standard Bloom filter [Bloom 1970] and
// the deletion-capable counting Bloom filter [Fan et al. 2000].
//
// All filters consume pre-hashed 64-bit keys; the k index hashes are derived
// with double hashing, which preserves the asymptotic false-positive rate.
package bloom

import (
	"math"

	"vqf/internal/bitvec"
	"vqf/internal/hashing"
)

// Filter is a standard Bloom filter: k bit positions per key in one shared
// bit array. It supports Insert and Contains; deletion is impossible.
type Filter struct {
	bits *bitvec.Bitset
	m    uint64 // number of bits
	k    uint   // hashes per key
	n    uint64 // inserted items
}

// Params returns the optimal bit count m and hash count k for n items at
// false-positive rate fpr: m = −n·ln(fpr)/ln²2, k = (m/n)·ln2.
func Params(n uint64, fpr float64) (m uint64, k uint) {
	if n == 0 {
		n = 1
	}
	ln2 := math.Ln2
	m = uint64(math.Ceil(-float64(n) * math.Log(fpr) / (ln2 * ln2)))
	k = uint(math.Round(float64(m) / float64(n) * ln2))
	if k < 1 {
		k = 1
	}
	return m, k
}

// New creates a Bloom filter sized for n items at the given target
// false-positive rate.
func New(n uint64, fpr float64) *Filter {
	m, k := Params(n, fpr)
	return &Filter{bits: bitvec.NewBitset(m), m: m, k: k}
}

// indexes derives the i-th bit position for hash h by double hashing.
func (f *Filter) index(h1, h2 uint64, i uint) uint64 {
	return (h1 + uint64(i)*h2) % f.m
}

func deriveHashes(h uint64) (uint64, uint64) {
	h1 := h
	h2 := hashing.Mix64(h) | 1 // odd, so strides cover the table
	return h1, h2
}

// Insert adds the pre-hashed key h. It always succeeds.
func (f *Filter) Insert(h uint64) bool {
	h1, h2 := deriveHashes(h)
	for i := uint(0); i < f.k; i++ {
		f.bits.Set(f.index(h1, h2, i))
	}
	f.n++
	return true
}

// Contains reports whether the pre-hashed key h may be in the filter.
func (f *Filter) Contains(h uint64) bool {
	h1, h2 := deriveHashes(h)
	for i := uint(0); i < f.k; i++ {
		if !f.bits.Test(f.index(h1, h2, i)) {
			return false
		}
	}
	return true
}

// Remove is unsupported on a plain Bloom filter; it always returns false.
func (f *Filter) Remove(uint64) bool { return false }

// Count returns the number of inserted items.
func (f *Filter) Count() uint64 { return f.n }

// Capacity returns the item count the filter was sized for; a Bloom filter
// has no hard capacity, so this reports the optimal-n for its bit count.
func (f *Filter) Capacity() uint64 {
	// n_opt = m · ln²2 / (k · ln2) … for optimally-sized filters n = m·ln2/k.
	return uint64(float64(f.m) * math.Ln2 / float64(f.k))
}

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() uint64 { return f.bits.SizeBits() / 8 }

// K returns the number of hash functions.
func (f *Filter) K() uint { return f.k }

// FillRatio returns the fraction of set bits (diagnostic).
func (f *Filter) FillRatio() float64 {
	return float64(f.bits.Count()) / float64(f.m)
}
