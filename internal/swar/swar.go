// Package swar implements SIMD-within-a-register analogs of the AVX-512
// instructions the vector quotient filter paper relies on. VPCMPB (compare 64
// bytes against a broadcast byte, producing a match mask) becomes a
// branch-free zero-detection trick over uint64 words; VPERMB-style fingerprint
// shifts are single-pass funnel shifts across the block's words. Each
// operation executes a small constant number of instructions regardless of how
// full a block is, which is the property the paper's constant-time claim rests
// on.
//
// All kernels operate on the word-native fingerprint layout: a mini-filter's
// fingerprint lanes are stored pre-assembled as little-endian lane words
// (lane i lives at bits 8·(i mod 8) of word i/8 for byte lanes, bits
// 16·(i mod 4) of word i/4 for uint16 lanes), so the hot path never
// re-assembles words from bytes. Kernels take fixed-size array pointers and
// use only constant indices, so the compiler emits no bounds checks — the
// stdlib substitute for the paper's "small constant instruction count per
// probe" (verified with -gcflags=-d=ssa/check_bnd/debug=1: zero checks in
// this package's match and shift kernels).
package swar

const (
	onesBytes uint64 = 0x0101010101010101
	highBytes uint64 = 0x8080808080808080
	onesU16   uint64 = 0x0001000100010001
	highU16   uint64 = 0x8000800080008000
)

// Words8 and Words16 are the word counts of the two mini-filter fingerprint
// arrays: 48 byte lanes and 28 uint16 lanes, each exactly filling the
// fingerprint region of a 64-byte block.
const (
	Words8  = 6 // 48 byte lanes
	Words16 = 7 // 28 uint16 lanes
)

// BroadcastByte returns a word with b replicated into all 8 byte lanes
// (the analog of VPBROADCASTB). Hot paths broadcast once per operation and
// pass the result to the *B kernels, so a two-block probe pays for one
// multiply.
func BroadcastByte(b byte) uint64 { return uint64(b) * onesBytes }

// BroadcastU16 returns a word with v replicated into all 4 uint16 lanes.
func BroadcastU16(v uint16) uint64 { return uint64(v) * onesU16 }

// matchBytesB compares each byte lane of word against the pre-broadcast
// target and returns an 8-bit mask with bit i set iff lane i matches. This is
// the VPCMPB analog for one word. It is exact: the zero-detection expression
// flags a lane iff the lane is zero, and the movemask multiply generates no
// carries for the high-bit-only input pattern.
func matchBytesB(word, bcast uint64) uint64 {
	x := word ^ bcast
	// Exact zero-byte detection: lane arithmetic never crosses lanes because
	// the addend tops out at 0x7f+0x7f per lane. (The textbook v-1 borrow
	// trick is *not* exact — it flags the lane above a zero lane.)
	low7 := x & ^highBytes
	t := (low7 + ^highBytes) | x
	zero := ^t & highBytes
	return ((zero >> 7) * 0x0102040810204080) >> 56
}

// matchU16B compares each 16-bit lane of word against the pre-broadcast
// target and returns a 4-bit mask with bit i set iff lane i matches.
func matchU16B(word, bcast uint64) uint64 {
	x := word ^ bcast
	low15 := x & ^highU16
	t := (low15 + ^highU16) | x
	zero := ^t & highU16
	return ((zero >> 15) * 0x1000200040008000) >> 60
}

// MatchByteMask is the single-word VPCMPB analog against an unbroadcast
// target byte.
func MatchByteMask(word uint64, target byte) uint8 {
	return uint8(matchBytesB(word, BroadcastByte(target)))
}

// MatchU16Mask is the single-word lane compare against an unbroadcast uint16.
func MatchU16Mask(word uint64, target uint16) uint8 {
	return uint8(matchU16B(word, BroadcastU16(target)))
}

// RangeMask returns a bitmask with bits [start, end) set. start <= end <= 64.
func RangeMask(start, end uint) uint64 {
	var hi uint64
	if end >= 64 {
		hi = ^uint64(0)
	} else {
		hi = 1<<end - 1
	}
	return hi &^ (1<<start - 1)
}

// InsertLane8 shifts byte lanes [z, 47) up by one position (lane i moves to
// lane i+1) and writes fp into lane z — the VPERMB analog for making room for
// a fingerprint, fused with the fingerprint store. Lane 47 falls off the top;
// the caller guarantees the block is not full (its top lanes are zero), so no
// stored fingerprint is lost. 0 <= z <= 47.
func InsertLane8(fps *[Words8]uint64, z int, fp byte) {
	s := uint(z&7) * 8
	keep := uint64(1)<<s - 1 // lanes below z within word z/8
	ins := uint64(fp) << s
	switch z >> 3 {
	case 0:
		fps[5] = fps[5]<<8 | fps[4]>>56
		fps[4] = fps[4]<<8 | fps[3]>>56
		fps[3] = fps[3]<<8 | fps[2]>>56
		fps[2] = fps[2]<<8 | fps[1]>>56
		fps[1] = fps[1]<<8 | fps[0]>>56
		fps[0] = fps[0]&keep | (fps[0]&^keep)<<8 | ins
	case 1:
		fps[5] = fps[5]<<8 | fps[4]>>56
		fps[4] = fps[4]<<8 | fps[3]>>56
		fps[3] = fps[3]<<8 | fps[2]>>56
		fps[2] = fps[2]<<8 | fps[1]>>56
		fps[1] = fps[1]&keep | (fps[1]&^keep)<<8 | ins
	case 2:
		fps[5] = fps[5]<<8 | fps[4]>>56
		fps[4] = fps[4]<<8 | fps[3]>>56
		fps[3] = fps[3]<<8 | fps[2]>>56
		fps[2] = fps[2]&keep | (fps[2]&^keep)<<8 | ins
	case 3:
		fps[5] = fps[5]<<8 | fps[4]>>56
		fps[4] = fps[4]<<8 | fps[3]>>56
		fps[3] = fps[3]&keep | (fps[3]&^keep)<<8 | ins
	case 4:
		fps[5] = fps[5]<<8 | fps[4]>>56
		fps[4] = fps[4]&keep | (fps[4]&^keep)<<8 | ins
	default:
		fps[5] = fps[5]&keep | (fps[5]&^keep)<<8 | ins
	}
}

// RemoveLane8 shifts byte lanes (z, 47] down by one position, overwriting
// lane z and feeding zero into lane 47 — the VPERMB analog for deleting a
// fingerprint. Lanes at or above the block's occupancy are zero before and
// after. 0 <= z <= 47.
func RemoveLane8(fps *[Words8]uint64, z int) {
	s := uint(z&7) * 8
	keep := uint64(1)<<s - 1
	switch z >> 3 {
	case 0:
		fps[0] = fps[0]&keep | (fps[0]>>8|fps[1]<<56)&^keep
		fps[1] = fps[1]>>8 | fps[2]<<56
		fps[2] = fps[2]>>8 | fps[3]<<56
		fps[3] = fps[3]>>8 | fps[4]<<56
		fps[4] = fps[4]>>8 | fps[5]<<56
		fps[5] = fps[5] >> 8
	case 1:
		fps[1] = fps[1]&keep | (fps[1]>>8|fps[2]<<56)&^keep
		fps[2] = fps[2]>>8 | fps[3]<<56
		fps[3] = fps[3]>>8 | fps[4]<<56
		fps[4] = fps[4]>>8 | fps[5]<<56
		fps[5] = fps[5] >> 8
	case 2:
		fps[2] = fps[2]&keep | (fps[2]>>8|fps[3]<<56)&^keep
		fps[3] = fps[3]>>8 | fps[4]<<56
		fps[4] = fps[4]>>8 | fps[5]<<56
		fps[5] = fps[5] >> 8
	case 3:
		fps[3] = fps[3]&keep | (fps[3]>>8|fps[4]<<56)&^keep
		fps[4] = fps[4]>>8 | fps[5]<<56
		fps[5] = fps[5] >> 8
	case 4:
		fps[4] = fps[4]&keep | (fps[4]>>8|fps[5]<<56)&^keep
		fps[5] = fps[5] >> 8
	default:
		fps[5] = fps[5]&keep | fps[5]>>8&^keep
	}
}

// InsertLane16 shifts uint16 lanes [z, 27) up by one position and writes fp
// into lane z; see InsertLane8. 0 <= z <= 27.
func InsertLane16(fps *[Words16]uint64, z int, fp uint16) {
	s := uint(z&3) * 16
	keep := uint64(1)<<s - 1
	ins := uint64(fp) << s
	switch z >> 2 {
	case 0:
		fps[6] = fps[6]<<16 | fps[5]>>48
		fps[5] = fps[5]<<16 | fps[4]>>48
		fps[4] = fps[4]<<16 | fps[3]>>48
		fps[3] = fps[3]<<16 | fps[2]>>48
		fps[2] = fps[2]<<16 | fps[1]>>48
		fps[1] = fps[1]<<16 | fps[0]>>48
		fps[0] = fps[0]&keep | (fps[0]&^keep)<<16 | ins
	case 1:
		fps[6] = fps[6]<<16 | fps[5]>>48
		fps[5] = fps[5]<<16 | fps[4]>>48
		fps[4] = fps[4]<<16 | fps[3]>>48
		fps[3] = fps[3]<<16 | fps[2]>>48
		fps[2] = fps[2]<<16 | fps[1]>>48
		fps[1] = fps[1]&keep | (fps[1]&^keep)<<16 | ins
	case 2:
		fps[6] = fps[6]<<16 | fps[5]>>48
		fps[5] = fps[5]<<16 | fps[4]>>48
		fps[4] = fps[4]<<16 | fps[3]>>48
		fps[3] = fps[3]<<16 | fps[2]>>48
		fps[2] = fps[2]&keep | (fps[2]&^keep)<<16 | ins
	case 3:
		fps[6] = fps[6]<<16 | fps[5]>>48
		fps[5] = fps[5]<<16 | fps[4]>>48
		fps[4] = fps[4]<<16 | fps[3]>>48
		fps[3] = fps[3]&keep | (fps[3]&^keep)<<16 | ins
	case 4:
		fps[6] = fps[6]<<16 | fps[5]>>48
		fps[5] = fps[5]<<16 | fps[4]>>48
		fps[4] = fps[4]&keep | (fps[4]&^keep)<<16 | ins
	case 5:
		fps[6] = fps[6]<<16 | fps[5]>>48
		fps[5] = fps[5]&keep | (fps[5]&^keep)<<16 | ins
	default:
		fps[6] = fps[6]&keep | (fps[6]&^keep)<<16 | ins
	}
}

// RemoveLane16 shifts uint16 lanes (z, 27] down by one position, overwriting
// lane z; see RemoveLane8. 0 <= z <= 27.
func RemoveLane16(fps *[Words16]uint64, z int) {
	s := uint(z&3) * 16
	keep := uint64(1)<<s - 1
	switch z >> 2 {
	case 0:
		fps[0] = fps[0]&keep | (fps[0]>>16|fps[1]<<48)&^keep
		fps[1] = fps[1]>>16 | fps[2]<<48
		fps[2] = fps[2]>>16 | fps[3]<<48
		fps[3] = fps[3]>>16 | fps[4]<<48
		fps[4] = fps[4]>>16 | fps[5]<<48
		fps[5] = fps[5]>>16 | fps[6]<<48
		fps[6] = fps[6] >> 16
	case 1:
		fps[1] = fps[1]&keep | (fps[1]>>16|fps[2]<<48)&^keep
		fps[2] = fps[2]>>16 | fps[3]<<48
		fps[3] = fps[3]>>16 | fps[4]<<48
		fps[4] = fps[4]>>16 | fps[5]<<48
		fps[5] = fps[5]>>16 | fps[6]<<48
		fps[6] = fps[6] >> 16
	case 2:
		fps[2] = fps[2]&keep | (fps[2]>>16|fps[3]<<48)&^keep
		fps[3] = fps[3]>>16 | fps[4]<<48
		fps[4] = fps[4]>>16 | fps[5]<<48
		fps[5] = fps[5]>>16 | fps[6]<<48
		fps[6] = fps[6] >> 16
	case 3:
		fps[3] = fps[3]&keep | (fps[3]>>16|fps[4]<<48)&^keep
		fps[4] = fps[4]>>16 | fps[5]<<48
		fps[5] = fps[5]>>16 | fps[6]<<48
		fps[6] = fps[6] >> 16
	case 4:
		fps[4] = fps[4]&keep | (fps[4]>>16|fps[5]<<48)&^keep
		fps[5] = fps[5]>>16 | fps[6]<<48
		fps[6] = fps[6] >> 16
	case 5:
		fps[5] = fps[5]&keep | (fps[5]>>16|fps[6]<<48)&^keep
		fps[6] = fps[6] >> 16
	default:
		fps[6] = fps[6]&keep | fps[6]>>16&^keep
	}
}

// Lane8 returns byte lane i of the word-native fingerprint array. Lane
// accessors serve the cold paths — the scalar ablation variant,
// serialization, and tests; hot paths use the range and shift kernels.
func Lane8(fps *[Words8]uint64, i int) byte {
	return byte(fps[i>>3] >> (uint(i&7) * 8))
}

// SetLane8 stores v into byte lane i.
func SetLane8(fps *[Words8]uint64, i int, v byte) {
	s := uint(i&7) * 8
	fps[i>>3] = fps[i>>3]&^(0xff<<s) | uint64(v)<<s
}

// Lane16 returns uint16 lane i of the word-native fingerprint array.
func Lane16(fps *[Words16]uint64, i int) uint16 {
	return uint16(fps[i>>2] >> (uint(i&3) * 16))
}

// SetLane16 stores v into uint16 lane i.
func SetLane16(fps *[Words16]uint64, i int, v uint16) {
	s := uint(i&3) * 16
	fps[i>>2] = fps[i>>2]&^(0xffff<<s) | uint64(v)<<s
}
