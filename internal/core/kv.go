package core

import (
	"fmt"

	"vqf/internal/hashing"
	"vqf/internal/minifilter"
)

// KVFilter8 is a value-associating vector quotient filter (paper §8: "like
// the quotient filter, the vector quotient filter also has the ability to
// associate a small value with each item"). Each fingerprint slot carries a
// one-byte value in a parallel array that shifts in lockstep with the
// fingerprints, so Get costs the same two cache lines as Contains plus one
// value access.
//
// Semantics match other fingerprint maps (e.g. the CQF's value bits): Get
// returns the value of *a* matching fingerprint, so a false positive — with
// probability ≈ 2·(s/b)·2⁻⁸ — returns an arbitrary stored value. Keys are a
// multiset; duplicate Puts stack, and Delete removes one instance.
//
// The filter shell supplies the accessors; its options go unused, since
// Put always places two-choice. Its Stats count Puts as inserts, Gets and
// Updates as lookups, Deletes as removes/remove-misses; the shortcut and
// optimistic counters stay zero.
type KVFilter8 struct {
	filter[minifilter.Block8, *minifilter.Block8]
	vals []byte // B8Slots bytes per block, parallel to block fingerprints
}

// NewKV8 creates a value-associating filter with at least nslots slots.
func NewKV8(nslots uint64) *KVFilter8 {
	k := blocksFor(nslots, minifilter.B8Slots)
	f := &KVFilter8{vals: make([]byte, k*minifilter.B8Slots)}
	f.init(geom8, newBlocks[minifilter.Block8](k), 0, Options{})
	return f
}

func (f *KVFilter8) blockVals(b uint64) []byte {
	return f.vals[b*minifilter.B8Slots : (b+1)*minifilter.B8Slots]
}

// Put inserts the pre-hashed key h with value v, placing it in the emptier
// of its two candidate blocks. It returns false if both are full.
func (f *KVFilter8) Put(h uint64, v byte) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	b2 := hashing.AltIndex(b1, tag, f.mask)
	tgt := b1
	if f.blocks[b2].Occupancy() < f.blocks[b1].Occupancy() {
		tgt = b2
	}
	blk := &f.blocks[tgt]
	occ := blk.Occupancy()
	z := blk.InsertAt(bucket, fp)
	if z < 0 {
		f.st.InsertFailure()
		return false
	}
	vals := f.blockVals(tgt)
	copy(vals[z+1:occ+1], vals[z:occ])
	vals[z] = v
	f.count++
	f.st.Insert()
	return true
}

// Get returns the value associated with the pre-hashed key h. For keys never
// Put, ok is false with probability ≥ 1−ε; a colliding fingerprint returns
// its own value (the standard approximate-map contract).
func (f *KVFilter8) Get(h uint64) (v byte, ok bool) {
	b1, bucket, fp, tag := split8(h, f.mask)
	f.st.Lookup()
	if z := f.blocks[b1].FindSlot(bucket, fp); z >= 0 {
		return f.blockVals(b1)[z], true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if z := f.blocks[b2].FindSlot(bucket, fp); z >= 0 {
		return f.blockVals(b2)[z], true
	}
	return 0, false
}

// Update changes the value of one stored instance of h, returning false if
// its fingerprint is absent.
func (f *KVFilter8) Update(h uint64, v byte) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	f.st.Lookup()
	if z := f.blocks[b1].FindSlot(bucket, fp); z >= 0 {
		f.blockVals(b1)[z] = v
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if z := f.blocks[b2].FindSlot(bucket, fp); z >= 0 {
		f.blockVals(b2)[z] = v
		return true
	}
	return false
}

// Delete removes one stored instance of h (and its value), returning false
// if its fingerprint is absent.
func (f *KVFilter8) Delete(h uint64) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	if f.deleteFrom(b1, bucket, fp) {
		f.st.Remove()
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if f.deleteFrom(b2, bucket, fp) {
		f.st.Remove()
		return true
	}
	f.st.RemoveMiss()
	return false
}

func (f *KVFilter8) deleteFrom(b uint64, bucket uint, fp byte) bool {
	blk := &f.blocks[b]
	occ := blk.Occupancy()
	z := blk.RemoveAt(bucket, fp)
	if z < 0 {
		return false
	}
	vals := f.blockVals(b)
	copy(vals[z:occ-1], vals[z+1:occ])
	vals[occ-1] = 0
	f.count--
	return true
}

// SizeBytes returns the footprint of blocks plus values.
func (f *KVFilter8) SizeBytes() uint64 {
	return uint64(len(f.blocks))*64 + uint64(len(f.vals))
}

// CheckInvariants verifies the value-associating filter's structural
// invariants (the value array is opaque bytes, so the block audit is the
// whole check); see Filter8.CheckInvariants.
func (f *KVFilter8) CheckInvariants() error {
	if uint64(len(f.vals)) != uint64(len(f.blocks))*minifilter.B8Slots {
		return fmt.Errorf("value array holds %d bytes for %d blocks", len(f.vals), len(f.blocks))
	}
	return f.filter.CheckInvariants()
}
