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

// threshold returns the occupancy below which an insert takes the shortcut.
// NoShortcut is threshold 0 — no occupancy is below it — so the insert paths
// test only occ1 < f.thresh.
func (o Options) threshold(g *Geometry) uint {
	if o.NoShortcut {
		return 0
	}
	t := o.ShortcutThreshold
	if t == 0 {
		t = g.Threshold
	}
	if t > uint(g.Slots) {
		t = uint(g.Slots) // a threshold beyond capacity would let the shortcut path hit a full block
	}
	return t
}

// blockShift8/blockShift16 are the hash bit offsets of the primary block
// index for the two geometries (see split8/split16).
const (
	blockShift8  = 24
	blockShift16 = 32
)

// Geometry is one of the paper's two block geometries (§6.1) as a value:
// 48 slots over 80 buckets with 8-bit fingerprints, or 28 over 36 with
// 16-bit ones. The width is a type only where a block or fingerprint
// kernel runs per key (Filter8/Filter16, CFilter8/CFilter16 and the split
// functions beneath them); everything above those kernels — the facade,
// the cascade, the frozen tier, the harness — holds a *Geometry and asks
// it. Geom8 and Geom16 are the only values; compare them by pointer.
type Geometry struct {
	// Slots and Buckets are the fingerprint slots and buckets per block.
	Slots, Buckets uint64
	// FPBits is the fingerprint width; it is also the on-disk tag of the
	// geometry (sharded streams, cascade level records).
	FPBits uint
	// BlockShift is the hash bit offset of the primary block index.
	BlockShift uint
	// Threshold is the default shortcut threshold in slots (see
	// Options.ShortcutThreshold).
	Threshold uint
	// FPR is the analytic full-load false-positive rate 2·(s/b)·2⁻ʳ
	// (paper §5).
	FPR float64

	// metaWords is how many of the block's eight words hold metadata: two
	// for Block8 (MetaLo, MetaHi), one for Block16 (Meta). The top bit of
	// the last one is the lock bit in locked mode.
	metaWords int
	magic     uint32
}

// FPR8 and FPR16 are the two geometries' analytic full-load
// false-positive rates 2·(s/b)·2⁻ʳ (paper §5).
const (
	FPR8  = 2.0 * minifilter.B8Slots / minifilter.B8Buckets / (1 << 8)
	FPR16 = 2.0 * minifilter.B16Slots / minifilter.B16Buckets / (1 << 16)
)

var (
	// Geom8 is the 8-bit-fingerprint geometry, with the paper's 75%
	// (36/48) shortcut threshold.
	Geom8 = &Geometry{Slots: minifilter.B8Slots, Buckets: minifilter.B8Buckets, FPBits: 8,
		BlockShift: blockShift8, Threshold: 36, FPR: FPR8, metaWords: 2, magic: magic8}
	// Geom16 is the 16-bit-fingerprint geometry, with a 64% (18/28)
	// shortcut threshold.
	Geom16 = &Geometry{Slots: minifilter.B16Slots, Buckets: minifilter.B16Buckets, FPBits: 16,
		BlockShift: blockShift16, Threshold: 18, FPR: FPR16, metaWords: 1, magic: magic16}
)

// GeometryFor picks the geometry for a target false-positive rate: Geom8
// when its full-load rate — the loosest a VQF meets — satisfies the
// target, Geom16 otherwise.
func GeometryFor(fpr float64) *Geometry {
	if fpr >= Geom8.FPR {
		return Geom8
	}
	return Geom16
}

// GeometryOfBits returns the geometry with bits-bit fingerprints, or nil
// when there is none; readers use it to decode an on-disk geometry tag.
func GeometryOfBits(bits uint) *Geometry {
	switch bits {
	case Geom8.FPBits:
		return Geom8
	case Geom16.FPBits:
		return Geom16
	}
	return nil
}

// Split decomposes h as split8/split16 do, with the geometry's constants
// read from g: its primary block b1, the xor-linked partner b2 under mask
// (equal to b1 when the tag maps the block onto itself), and its bucket
// and fingerprint.
func (g *Geometry) Split(h, mask uint64) (b1, b2 uint64, bucket uint, fp uint64) {
	bucket = uint(uint32(h&0xffff) * uint32(g.Buckets) >> 16)
	fp = h >> 16 & (1<<g.FPBits - 1)
	b1 = h >> g.BlockShift & mask
	return b1, hashing.AltIndex(b1, uint64(bucket)<<g.FPBits|fp, mask), bucket, fp
}

// Candidates returns h's primary block and its xor-linked partner under
// mask. Fold anchors its representative at the smaller of the two;
// callers that must enumerate every block a key can occupy — reconcile's
// stride walk over a frozen fuse level — need both.
func (g *Geometry) Candidates(h, mask uint64) (uint64, uint64) {
	b1, b2, _, _ := g.Split(h, mask)
	return b1, b2
}

// Blocks returns the power-of-two number of blocks (at least two) that
// hold nslots slots of this geometry.
func (g *Geometry) Blocks(nslots uint64) uint64 { return blocksFor(nslots, g.Slots) }

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
