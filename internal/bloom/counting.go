package bloom

// Counting is a counting Bloom filter [Fan et al. 2000]: each bit of the
// standard filter becomes a 4-bit saturating counter, enabling deletion at a
// 4× space cost.
type Counting struct {
	counters []uint8 // one 4-bit counter per nibble, stored one per byte here
	m        uint64
	k        uint
	n        uint64
}

// NewCounting creates a counting Bloom filter sized for n items at the given
// target false-positive rate.
func NewCounting(n uint64, fpr float64) *Counting {
	m, k := Params(n, fpr)
	return &Counting{counters: make([]uint8, m), m: m, k: k}
}

const countingMax = 15 // 4-bit saturating counters

// Insert adds the pre-hashed key h. It always succeeds.
func (f *Counting) Insert(h uint64) bool {
	h1, h2 := deriveHashes(h)
	for i := uint(0); i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.counters[idx] < countingMax {
			f.counters[idx]++
		}
	}
	f.n++
	return true
}

// Contains reports whether the pre-hashed key h may be in the filter.
func (f *Counting) Contains(h uint64) bool {
	h1, h2 := deriveHashes(h)
	for i := uint(0); i < f.k; i++ {
		if f.counters[(h1+uint64(i)*h2)%f.m] == 0 {
			return false
		}
	}
	return true
}

// Remove deletes one inserted instance of the pre-hashed key h. Removing a
// key that was never inserted may corrupt the filter (standard CBF hazard).
// Saturated counters are left untouched, which can only cause false
// positives, never false negatives.
func (f *Counting) Remove(h uint64) bool {
	if !f.Contains(h) {
		return false
	}
	h1, h2 := deriveHashes(h)
	for i := uint(0); i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.counters[idx] > 0 && f.counters[idx] < countingMax {
			f.counters[idx]--
		}
	}
	f.n--
	return true
}

// Count returns the number of inserted items.
func (f *Counting) Count() uint64 { return f.n }

// Capacity mirrors Filter.Capacity.
func (f *Counting) Capacity() uint64 {
	return uint64(float64(f.m) * 0.693 / float64(f.k))
}

// SizeBytes returns the footprint of an ideal 4-bit-packed counter array
// (the in-memory representation here spends a byte per counter for speed;
// space accounting uses the packed size, as the paper's Table 1 does).
func (f *Counting) SizeBytes() uint64 { return f.m / 2 }
