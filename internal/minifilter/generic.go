package minifilter

import "vqf/internal/swar"

// Loop-based ("generic") variants of every block operation. These are the
// ablation baseline for the paper's §7.7 AVX-512-vs-AVX2 experiment: the
// data-structure layout is identical (word-native fingerprint lanes,
// addressed through the scalar lane accessors), but select, compare, and
// shift run as plain scalar loops instead of broadword/SWAR operations. The
// §7.7 scalar filter in internal/harness (ablation.go) is their only
// production caller; the core filters always use the fused kernels.

// selectLoop128 is the naive select over the 128-bit metadata word.
func selectLoop128(lo, hi uint64, k uint) uint {
	for i := uint(0); i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = lo >> i & 1
		} else {
			bit = hi >> (i - 64) & 1
		}
		if bit == 1 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return 128
}

func selectLoop64(x uint64, k uint) uint {
	for i := uint(0); i < 64; i++ {
		if x>>i&1 == 1 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return 64
}

// OccupancyGeneric is Occupancy computed with the naive select loop.
func (b *Block8) OccupancyGeneric() uint {
	return selectLoop128(b.MetaLo, b.MetaHi, B8Buckets-1) - (B8Buckets - 1)
}

func (b *Block8) bucketRangeGeneric(bucket uint) (start, end uint) {
	if bucket == 0 {
		return 0, selectLoop128(b.MetaLo, b.MetaHi, 0)
	}
	start = selectLoop128(b.MetaLo, b.MetaHi, bucket-1) - bucket + 1
	end = selectLoop128(b.MetaLo, b.MetaHi, bucket) - bucket
	return
}

// ContainsGeneric is Contains with a scalar compare loop.
func (b *Block8) ContainsGeneric(bucket uint, fp byte) bool {
	start, end := b.bucketRangeGeneric(bucket)
	for i := start; i < end; i++ {
		if swar.Lane8(&b.Fps, int(i)) == fp {
			return true
		}
	}
	return false
}

// InsertGeneric is Insert with scalar metadata and fingerprint shifts.
func (b *Block8) InsertGeneric(bucket uint, fp byte) bool {
	occ := b.OccupancyGeneric()
	if occ == B8Slots {
		return false
	}
	m := selectLoop128(b.MetaLo, b.MetaHi, bucket)
	z := m - bucket
	for i := occ; i > z; i-- {
		swar.SetLane8(&b.Fps, int(i), swar.Lane8(&b.Fps, int(i-1)))
	}
	swar.SetLane8(&b.Fps, int(z), fp)
	// Shift metadata bits >= m up by one, inserting a 0 at m, bit by bit.
	for i := uint(B8Meta - 1); i > m; i-- {
		setBit128(b, i, getBit128(b, i-1))
	}
	setBit128(b, m, 0)
	return true
}

// RemoveGeneric is Remove with scalar loops.
func (b *Block8) RemoveGeneric(bucket uint, fp byte) bool {
	start, end := b.bucketRangeGeneric(bucket)
	l := -1
	for i := start; i < end; i++ {
		if swar.Lane8(&b.Fps, int(i)) == fp {
			l = int(i)
			break
		}
	}
	if l < 0 {
		return false
	}
	occ := b.OccupancyGeneric()
	m := uint(l) + bucket
	for i := m; i < B8Meta-1; i++ {
		setBit128(b, i, getBit128(b, i+1))
	}
	setBit128(b, B8Meta-1, 0)
	for i := uint(l); i+1 < occ; i++ {
		swar.SetLane8(&b.Fps, int(i), swar.Lane8(&b.Fps, int(i+1)))
	}
	swar.SetLane8(&b.Fps, int(occ-1), 0)
	return true
}

func getBit128(b *Block8, i uint) uint64 {
	if i < 64 {
		return b.MetaLo >> i & 1
	}
	return b.MetaHi >> (i - 64) & 1
}

func setBit128(b *Block8, i uint, v uint64) {
	if i < 64 {
		b.MetaLo = b.MetaLo&^(1<<i) | v<<i
	} else {
		b.MetaHi = b.MetaHi&^(1<<(i-64)) | v<<(i-64)
	}
}

// OccupancyGeneric is Occupancy computed with the naive select loop.
func (b *Block16) OccupancyGeneric() uint {
	return selectLoop64(b.Meta, B16Buckets-1) - (B16Buckets - 1)
}

func (b *Block16) bucketRangeGeneric(bucket uint) (start, end uint) {
	if bucket == 0 {
		return 0, selectLoop64(b.Meta, 0)
	}
	start = selectLoop64(b.Meta, bucket-1) - bucket + 1
	end = selectLoop64(b.Meta, bucket) - bucket
	return
}

// ContainsGeneric is Contains with a scalar compare loop.
func (b *Block16) ContainsGeneric(bucket uint, fp uint16) bool {
	start, end := b.bucketRangeGeneric(bucket)
	for i := start; i < end; i++ {
		if swar.Lane16(&b.Fps, int(i)) == fp {
			return true
		}
	}
	return false
}

// InsertGeneric is Insert with scalar loops.
func (b *Block16) InsertGeneric(bucket uint, fp uint16) bool {
	occ := b.OccupancyGeneric()
	if occ == B16Slots {
		return false
	}
	m := selectLoop64(b.Meta, bucket)
	z := m - bucket
	for i := occ; i > z; i-- {
		swar.SetLane16(&b.Fps, int(i), swar.Lane16(&b.Fps, int(i-1)))
	}
	swar.SetLane16(&b.Fps, int(z), fp)
	for i := uint(B16Meta - 1); i > m; i-- {
		b.Meta = b.Meta&^(1<<i) | (b.Meta >> (i - 1) & 1 << i)
	}
	b.Meta &^= 1 << m
	return true
}

// RemoveGeneric is Remove with scalar loops.
func (b *Block16) RemoveGeneric(bucket uint, fp uint16) bool {
	start, end := b.bucketRangeGeneric(bucket)
	l := -1
	for i := start; i < end; i++ {
		if swar.Lane16(&b.Fps, int(i)) == fp {
			l = int(i)
			break
		}
	}
	if l < 0 {
		return false
	}
	occ := b.OccupancyGeneric()
	m := uint(l) + bucket
	for i := m; i < B16Meta-1; i++ {
		b.Meta = b.Meta&^(1<<i) | (b.Meta >> (i + 1) & 1 << i)
	}
	b.Meta &^= 1 << (B16Meta - 1)
	for i := uint(l); i+1 < occ; i++ {
		swar.SetLane16(&b.Fps, int(i), swar.Lane16(&b.Fps, int(i+1)))
	}
	swar.SetLane16(&b.Fps, int(occ-1), 0)
	return true
}
