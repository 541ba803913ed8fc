package harness

import (
	"vqf/internal/core"
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
)

// The paper's ablations run on their own filter here, so no production
// filter in internal/core checks an ablation flag on its hot paths.
// ablationVQF has core.Filter8/16's geometry, key split, shortcut and
// two-choice placement, but it runs the minifilter's loop-based scalar block
// methods (the *Generic methods: the baseline of the §7.7 AVX-512-vs-AVX2
// experiment), and it can derive the partner block from an independent hash
// of the key (hashing.Mix64) instead of the xor trick (the §3.4
// independent-hash row of the max-load experiment). Removing from an
// independent-hash filter is unsafe (§3.4): only the max-load experiment,
// which never removes, builds one. TestFilter8GenericEquivalence and
// TestFilter16GenericEquivalence check the xor-linked form op-for-op
// against core.

// scalarBlock is the loop-based block surface of minifilter.Block8 and
// Block16, with fingerprints of type F.
type scalarBlock[B any, F byte | uint16] interface {
	*B
	Reset()
	OccupancyGeneric() uint
	InsertGeneric(bucket uint, fp F) bool
	ContainsGeneric(bucket uint, fp F) bool
	RemoveGeneric(bucket uint, fp F) bool
}

type ablationVQF[B any, F byte | uint16, P scalarBlock[B, F]] struct {
	blocks      []B
	mask        uint64
	count       uint64
	slots       uint64
	buckets     uint32
	fpBits      uint
	shift       uint // hash bit offset of the primary block index
	thresh      uint // shortcut threshold in slots; 0 disables the shortcut
	independent bool
	st          stats.Local
}

func newAblation[B any, F byte | uint16, P scalarBlock[B, F]](nslots, slots uint64, buckets uint32, fpBits, shift, thresh uint, independent bool) *ablationVQF[B, F, P] {
	k := core.BlocksFor(nslots, slots)
	a := &ablationVQF[B, F, P]{blocks: make([]B, k), mask: k - 1, slots: slots, buckets: buckets,
		fpBits: fpBits, shift: shift, thresh: thresh, independent: independent}
	for i := range a.blocks {
		P(&a.blocks[i]).Reset()
	}
	return a
}

// newScalar8 is the 8-bit scalar ablation VQF, with core's default 75%
// shortcut threshold (36/48) or none.
func newScalar8(nslots uint64, shortcut, independent bool) *ablationVQF[minifilter.Block8, byte, *minifilter.Block8] {
	thresh := uint(0)
	if shortcut {
		thresh = 36
	}
	return newAblation[minifilter.Block8, byte](nslots, minifilter.B8Slots, minifilter.B8Buckets, 8, 24, thresh, independent)
}

// newScalar16 is the 16-bit scalar ablation VQF, with core's default
// shortcut threshold (18/28) or none.
func newScalar16(nslots uint64, shortcut bool) *ablationVQF[minifilter.Block16, uint16, *minifilter.Block16] {
	thresh := uint(0)
	if shortcut {
		thresh = 18
	}
	return newAblation[minifilter.Block16, uint16](nslots, minifilter.B16Slots, minifilter.B16Buckets, 16, 32, thresh, false)
}

// split decomposes h as core's split8/split16 do and returns its two
// candidate blocks, bucket and fingerprint.
func (a *ablationVQF[B, F, P]) split(h uint64) (b1, b2 uint64, bucket uint, fp F) {
	bucket = uint(uint32(h&0xffff) * a.buckets >> 16)
	fp = F(h >> 16)
	b1 = h >> a.shift & a.mask
	if a.independent {
		return b1, hashing.Mix64(h) & a.mask, bucket, fp
	}
	return b1, hashing.AltIndex(b1, uint64(bucket)<<a.fpBits|uint64(fp), a.mask), bucket, fp
}

func (a *ablationVQF[B, F, P]) Insert(h uint64) bool {
	b1, b2, bucket, fp := a.split(h)
	blk := P(&a.blocks[b1])
	occ1 := blk.OccupancyGeneric()
	if occ1 < a.thresh {
		blk.InsertGeneric(bucket, fp)
		a.count++
		a.st.ShortcutInsert()
		return true
	}
	if blk2 := P(&a.blocks[b2]); blk2.OccupancyGeneric() < occ1 {
		blk = blk2
	}
	if !blk.InsertGeneric(bucket, fp) {
		a.st.InsertFailure()
		return false
	}
	a.count++
	a.st.Insert()
	return true
}

func (a *ablationVQF[B, F, P]) Contains(h uint64) bool {
	b1, b2, bucket, fp := a.split(h)
	a.st.Lookup()
	return P(&a.blocks[b1]).ContainsGeneric(bucket, fp) || P(&a.blocks[b2]).ContainsGeneric(bucket, fp)
}

func (a *ablationVQF[B, F, P]) Remove(h uint64) bool {
	b1, b2, bucket, fp := a.split(h)
	if P(&a.blocks[b1]).RemoveGeneric(bucket, fp) || P(&a.blocks[b2]).RemoveGeneric(bucket, fp) {
		a.count--
		a.st.Remove()
		return true
	}
	a.st.RemoveMiss()
	return false
}

func (a *ablationVQF[B, F, P]) Count() uint64         { return a.count }
func (a *ablationVQF[B, F, P]) Capacity() uint64      { return uint64(len(a.blocks)) * a.slots }
func (a *ablationVQF[B, F, P]) SizeBytes() uint64     { return uint64(len(a.blocks)) * 64 }
func (a *ablationVQF[B, F, P]) LoadFactor() float64   { return float64(a.count) / float64(a.Capacity()) }
func (a *ablationVQF[B, F, P]) SlotsPerBlock() uint   { return uint(a.slots) }
func (a *ablationVQF[B, F, P]) Stats() stats.OpCounts { return a.st.Counts() }

func (a *ablationVQF[B, F, P]) BlockOccupancies() []uint {
	out := make([]uint, len(a.blocks))
	for i := range a.blocks {
		out[i] = P(&a.blocks[i]).OccupancyGeneric()
	}
	return out
}
