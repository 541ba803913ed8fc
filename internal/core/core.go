// Package core implements the vector quotient filter (VQF) of Pandey et al.,
// SIGMOD 2021: an approximate-membership data structure that hashes items to
// two cache-line-sized mini-filter blocks with power-of-two-choices placement.
// Items are never relocated after insertion, so every operation touches at
// most two cache lines and modifies at most one, at any load factor.
//
// Four filter types are provided: Filter8 and Filter16 (single-threaded,
// ε ≈ 2⁻⁸ and ε ≈ 2⁻¹⁶), and CFilter8 and CFilter16 (thread-safe via the
// per-block lock bit of paper §6.3), plus the sharded Sharded8/Sharded16.
//
// One shell, two kernels: each filter type embeds a shell written once,
// generic over the block type (shell.go) — block array, mask, counters,
// accessors, serialization. Only the per-key paths that call a block
// kernel (Insert, Contains, Remove, the batch sweeps) are written once per
// width, on the concrete type. There f.blocks is a concrete
// []minifilter.Block8 or []minifilter.Block16, so every kernel call is
// static and inlines; a block method called on a type parameter would go
// through the generic dictionary instead.
//
// All filters consume pre-hashed 64-bit keys. The bits of a key hash h are
// used as: bucket index (low 16 bits, range-reduced), fingerprint (next 8 or
// 16 bits), and primary block index (bits above those). The secondary block
// is derived with the xor trick b2 = b1 ⊕ (tag·Murmur3Mul) over a
// power-of-two block count, which makes the mapping an involution so that a
// delete can find an item's partner block from either side (§3.4).
package core

import (
	"math/bits"

	"vqf/internal/hashing"
	"vqf/internal/minifilter"
)

// Options configure a filter's insertion policy. The zero value enables the
// paper's recommended configuration: shortcut optimization at the geometry
// default threshold.
type Options struct {
	// NoShortcut disables the §6.2 shortcut optimization (always inspect
	// both candidate blocks and pick the emptier).
	NoShortcut bool

	// ShortcutThreshold is the occupancy (in slots) at or above which the
	// shortcut is abandoned and both blocks are inspected. Zero means the
	// geometry default: the paper's 75% (36/48) for 8-bit fingerprints, and
	// 64% (18/28) for 16-bit fingerprints — the smaller blocks leave only
	// seven slots of two-choice headroom above 75%, which measurably lowers
	// the achievable load factor at scale. Raising the threshold reduces the
	// maximum load factor sharply (§6.2).
	ShortcutThreshold uint
}

func (o Options) threshold(g *geometry) uint {
	t := o.ShortcutThreshold
	if t == 0 {
		t = g.defThresh
	}
	if t > uint(g.slots) {
		t = uint(g.slots) // a threshold beyond capacity would let the shortcut path hit a full block
	}
	return t
}

// blockShift8/blockShift16 are the hash bit offsets of the primary block
// index for the two geometries (see split8/split16).
const (
	blockShift8  = 24
	blockShift16 = 32
)

// geometry is one block width's constants as data, for the shared shell
// (shell.go). The width-specific hot paths use the constants directly.
type geometry struct {
	slots, buckets uint64
	// metaWords is how many of the block's eight words hold metadata: two
	// for Block8 (MetaLo, MetaHi), one for Block16 (Meta). The top bit of
	// the last one is the lock bit in locked mode.
	metaWords int
	// defThresh is the geometry-default shortcut threshold (see
	// Options.ShortcutThreshold).
	defThresh  uint
	blockShift uint
	// fpBits is the fingerprint width; it is also the sharded stream's
	// geometry tag.
	fpBits uint16
	magic  uint32
}

var (
	geom8 = &geometry{slots: minifilter.B8Slots, buckets: minifilter.B8Buckets, metaWords: 2,
		defThresh: 36, blockShift: blockShift8, fpBits: 8, magic: magic8} // threshold 75% of 48
	geom16 = &geometry{slots: minifilter.B16Slots, buckets: minifilter.B16Buckets, metaWords: 1,
		defThresh: 18, blockShift: blockShift16, fpBits: 16, magic: magic16} // threshold 64% of 28
)

// candidates returns h's primary block and its xor-linked partner under
// mask: split8/split16 with the geometry's constants read from g.
func (g *geometry) candidates(h, mask uint64) (uint64, uint64) {
	bucket := uint64(uint32(h&0xffff) * uint32(g.buckets) >> 16)
	fp := h >> 16 & (1<<g.fpBits - 1)
	b1 := h >> g.blockShift & mask
	return b1, hashing.AltIndex(b1, bucket<<g.fpBits|fp, mask)
}

// blocksFor returns the power-of-two number of blocks needed for nslots slots
// of capacity with slotsPerBlock slots each.
func blocksFor(nslots uint64, slotsPerBlock uint64) uint64 {
	if nslots == 0 {
		nslots = 1
	}
	need := (nslots + slotsPerBlock - 1) / slotsPerBlock
	k := uint64(1) << bits.Len64(need-1)
	if k < 2 {
		k = 2 // two-choice placement needs at least two blocks
	}
	return k
}

// split8 decomposes a 64-bit key hash for the 8-bit-fingerprint geometry.
func split8(h uint64, mask uint64) (b1 uint64, bucket uint, fp byte, tag uint64) {
	bucket = uint(uint32(h&0xffff) * minifilter.B8Buckets >> 16)
	fp = byte(h >> 16)
	b1 = (h >> blockShift8) & mask
	// The tag feeding the xor trick is the full mini-filter hash
	// (bucket, fingerprint): items indistinguishable inside a block must map
	// to the same partner block.
	tag = uint64(bucket)<<8 | uint64(fp)
	return
}

// split16 decomposes a 64-bit key hash for the 16-bit-fingerprint geometry.
func split16(h uint64, mask uint64) (b1 uint64, bucket uint, fp uint16, tag uint64) {
	bucket = uint(uint32(h&0xffff) * minifilter.B16Buckets >> 16)
	fp = uint16(h >> 16)
	b1 = (h >> blockShift16) & mask
	tag = uint64(bucket)<<16 | uint64(fp)
	return
}
