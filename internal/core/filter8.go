package core

import (
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
	"vqf/internal/swar"
)

// Filter8 is a single-threaded vector quotient filter with 8-bit fingerprints
// (target false-positive rate ≈ 2⁻⁸; empirically ≈ 0.004, paper §5). Blocks
// hold 48 slots across 80 buckets in one 64-byte cache line.
type Filter8 struct {
	filter[minifilter.Block8, *minifilter.Block8]
}

// NewFilter8 creates a filter with at least nslots fingerprint slots. The
// block count is rounded up to a power of two (required by the xor trick);
// use Capacity to read the resulting slot count. The filter supports load
// factors up to ≈ 93% of Capacity with the shortcut optimization enabled
// (≈ 94.4% without).
func NewFilter8(nslots uint64, opts Options) *Filter8 {
	f := new(Filter8)
	f.init(Geom8, newBlocks[minifilter.Block8](Geom8.Blocks(nslots)), 0, opts)
	return f
}

// Insert adds the pre-hashed key h to the filter. It returns false if both
// candidate blocks are full, which with high probability does not happen
// below ≈ 93% load factor.
func (f *Filter8) Insert(h uint64) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	blk1 := &f.blocks[b1]
	occ1 := blk1.Occupancy()
	if occ1 < f.thresh {
		// Shortcut (§6.2): the primary block is emptier than the threshold,
		// so skip the secondary block entirely — one cache line touched.
		blk1.Insert(bucket, fp)
		f.count++
		f.st.ShortcutInsert()
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	blk := blk1
	if f.blocks[b2].Occupancy() < occ1 {
		blk = &f.blocks[b2]
	}
	if !blk.Insert(bucket, fp) {
		f.st.InsertFailure()
		return false
	}
	f.count++
	f.st.Insert()
	return true
}

// Contains reports whether the pre-hashed key h may be in the filter. False
// positives occur with probability ≈ 2·(s/b)·2⁻⁸; false negatives never
// occur for inserted keys.
func (f *Filter8) Contains(h uint64) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	f.st.Lookup()
	// Broadcast the fingerprint once; both block probes reuse it.
	bc := swar.BroadcastByte(fp)
	if f.blocks[b1].Probe(bucket, bc) != 0 {
		return true
	}
	return f.blocks[hashing.AltIndex(b1, tag, f.mask)].Probe(bucket, bc) != 0
}

// Remove deletes one previously inserted instance of the pre-hashed key h.
// It returns false if no matching fingerprint is found. Removing a key that
// was never inserted may evict a colliding key (as in all deletion-capable
// filters).
func (f *Filter8) Remove(h uint64) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	b2 := hashing.AltIndex(b1, tag, f.mask)
	bc := swar.BroadcastByte(fp)
	if f.blocks[b1].RemoveB(bucket, bc) || f.blocks[b2].RemoveB(bucket, bc) {
		f.count--
		f.st.Remove()
		return true
	}
	f.st.RemoveMiss()
	return false
}
