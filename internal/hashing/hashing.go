// Package hashing provides the hash functions every filter in this repository
// is built on: a 64-bit finalizer-quality mixer, a seeded byte-string hash,
// Lemire's multiplicative range reduction, and the multiply-xor derivation of
// a secondary block index from a primary index and a fingerprint (the "xor
// trick" of the cuckoo and vector quotient filters).
package hashing

// Murmur3Mul is the 32-bit MurmurHash3 multiplication constant the vector
// quotient filter and cuckoo filter use to spread a small fingerprint across
// block-index bits before xor-ing ("a simple multiply-and-xor technique").
const Murmur3Mul = 0x5bd1e995

// Mix64 is the splitmix64 finalizer: a fast, high-quality bijective mixer on
// 64-bit values. Filters apply it to caller-provided hashes when they need
// additional independent bits.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix64Seeded mixes x with a seed, producing an independent 64-bit hash per
// seed. Used to derive the k hash functions of a Bloom filter and independent
// hash families in tests.
func Mix64Seeded(x, seed uint64) uint64 {
	return Mix64(x + seed*0x9e3779b97f4a7c15)
}

// AltIndex derives the partner block index for a (block, tag) pair under a
// power-of-two block count: alt = (idx ^ (tag * Murmur3Mul)) & mask. Because
// xor is an involution, AltIndex(AltIndex(i, tag, mask), tag, mask) == i,
// which is what allows a deletion to locate an item's other candidate block
// from whichever block it is found in.
func AltIndex(idx, tag, mask uint64) uint64 {
	return (idx ^ (tag * Murmur3Mul)) & mask
}
