package core

import (
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
	"vqf/internal/swar"
)

// Filter16 is a single-threaded vector quotient filter with 16-bit
// fingerprints (target false-positive rate ≈ 2⁻¹⁶; empirically ≈ 0.000023,
// paper §5). Blocks hold 28 slots across 36 buckets in one 64-byte cache
// line.
type Filter16 struct {
	filter[minifilter.Block16, *minifilter.Block16]
}

// NewFilter16 creates a filter with at least nslots fingerprint slots; see
// NewFilter8 for sizing semantics.
func NewFilter16(nslots uint64, opts Options) *Filter16 {
	f := new(Filter16)
	f.init(Geom16, newBlocks[minifilter.Block16](Geom16.Blocks(nslots)), 0, opts)
	return f
}

// Insert adds the pre-hashed key h to the filter; see Filter8.Insert.
func (f *Filter16) Insert(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	blk1 := &f.blocks[b1]
	occ1 := blk1.Occupancy()
	if !f.opts.NoShortcut && occ1 < f.thresh {
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

// Contains reports whether the pre-hashed key h may be in the filter.
func (f *Filter16) Contains(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	f.st.Lookup()
	// Broadcast the fingerprint once; both block probes reuse it.
	bc := swar.BroadcastU16(fp)
	if f.blocks[b1].Probe(bucket, bc) != 0 {
		return true
	}
	return f.blocks[hashing.AltIndex(b1, tag, f.mask)].Probe(bucket, bc) != 0
}

// Remove deletes one previously inserted instance of the pre-hashed key h;
// see Filter8.Remove for the deletion-safety contract.
func (f *Filter16) Remove(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	b2 := hashing.AltIndex(b1, tag, f.mask)
	bc := swar.BroadcastU16(fp)
	if f.blocks[b1].RemoveB(bucket, bc) || f.blocks[b2].RemoveB(bucket, bc) {
		f.count--
		f.st.Remove()
		return true
	}
	f.st.RemoveMiss()
	return false
}
