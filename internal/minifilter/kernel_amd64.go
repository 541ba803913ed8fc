//go:build amd64 && !purego

package minifilter

import "vqf/internal/swar"

// The fused assembly kernels. The generic probe is two dependent steps — a
// SWAR metadata select (bucketRange128/bucketRange64: byte-wise popcount
// prefix plus a table lookup) feeding a lane match — and the select
// dominates the critical path. With BMI2 the select collapses to two
// instructions (PDEP to isolate the bucket's terminator, TZCNT for its
// position), so the whole probe — select, slot-range arithmetic, SSE2 lane
// compare, range mask — fits in one assembly routine with no function-call
// boundary in the middle.

// cpuid executes the CPUID instruction with the given leaf (EAX) and
// subleaf (ECX); implemented in kernel_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// hasAsm reports whether the CPU has the instructions the kernels need:
// POPCNT (CPUID leaf 1 ECX bit 23), and BMI1/BMI2 for TZCNT and PDEP (leaf
// 7 subleaf 0 EBX bits 3 and 8). They are not part of the amd64 baseline,
// so the kernels are gated at runtime.
var hasAsm = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const popcntBit = 1 << 23
	_, b7, _, _ := cpuid(7, 0)
	const bmi1Bit = 1 << 3
	const bmi2Bit = 1 << 8
	return c1&popcntBit != 0 && b7&bmi1Bit != 0 && b7&bmi2Bit != 0
}()

func probe8(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) uint64 {
	if useAsm.Load() {
		return fusedProbe8Asm(lo, hi, fps, bucket, bcast)
	}
	return probe8Generic(lo, hi, fps, bucket, bcast)
}

func probe16(meta uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) uint64 {
	if useAsm.Load() {
		return fusedProbe16Asm(meta, fps, bucket, bcast)
	}
	return probe16Generic(meta, fps, bucket, bcast)
}

// fusedProbe8Asm is probe8Generic in one assembly routine: PDEP/TZCNT
// metadata select over the 128-bit terminator words, then the SSE2 lane
// match restricted to the bucket's slot range. Requires hasAsm and *valid*
// block metadata (80 terminators among the 128 bits, bucket < 80); both are
// guaranteed by the callers, which probe only plain blocks, locked blocks
// or validated snapshots.
//
//go:noescape
func fusedProbe8Asm(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) uint64

// fusedProbe16Asm is the 16-bit-fingerprint analog of fusedProbe8Asm
// (36 terminators in one 64-bit word, bucket < 36).
//
//go:noescape
func fusedProbe16Asm(meta uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) uint64

// probeBatchChunk bounds the keys one batch-kernel call handles. Assembly
// cannot be preempted asynchronously, so a single call over a huge batch
// would hold off a GC stop-the-world. 1024 keys take about 15 µs from L2
// and about 120 µs from DRAM.
const probeBatchChunk = 1024

// ProbeBatch8 answers a batch of lookups against a filter's block array:
// out[i] reports whether key hash hs[i]'s fingerprint is stored in its
// bucket of either candidate block. Keys use internal/core's split8 layout
// (bucket from bits 0..15, fingerprint from bits 16..23, primary block from
// bits 24 and up) and the xor-trick partner; len(blocks) must be a power of
// two and len(out) at least len(hs). It runs the branch-free assembly loop
// in caller order and reports true, or writes nothing and reports false when
// the fused kernels are unavailable or switched off (the caller then loops
// over its per-key Contains).
func ProbeBatch8(blocks []Block8, hs []uint64, out []bool) bool {
	return probeBatch(blocks, hs, out, probeBatch8Asm)
}

// ProbeBatch16 is ProbeBatch8 for Block16 arrays and internal/core's
// split16 layout (fingerprint from bits 16..31, primary block from bits 32
// and up).
func ProbeBatch16(blocks []Block16, hs []uint64, out []bool) bool {
	return probeBatch(blocks, hs, out, probeBatch16Asm)
}

// probeBatch runs kernel over hs in chunks of probeBatchChunk keys. It
// enforces the memory-safety preconditions the assembly does not check:
// every masked block index is in bounds and every result lands inside out.
func probeBatch[B any](blocks []B, hs []uint64, out []bool, kernel func(*B, uint64, *uint64, *bool, int)) bool {
	if !useAsm.Load() {
		return false
	}
	nb := len(blocks)
	if nb == 0 || nb&(nb-1) != 0 || len(out) < len(hs) {
		panic("minifilter: batch probe needs a power-of-two block array and room for every result")
	}
	mask := uint64(nb - 1)
	for len(hs) > 0 {
		n := min(len(hs), probeBatchChunk)
		kernel(&blocks[0], mask, &hs[0], &out[0], n)
		hs, out = hs[n:], out[n:]
	}
	return true
}

// probeBatch8Asm writes out[i] for the n ≥ 0 keys at hs; see ProbeBatch8
// and kernel_amd64.s. Requires hasAsm and valid plain-mode block metadata.
//
//go:noescape
func probeBatch8Asm(blocks *Block8, mask uint64, hs *uint64, out *bool, n int)

// probeBatch16Asm is probeBatch8Asm for Block16 arrays.
//
//go:noescape
func probeBatch16Asm(blocks *Block16, mask uint64, hs *uint64, out *bool, n int)
