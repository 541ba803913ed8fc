//go:build amd64 && !purego

package minifilter

import (
	"math/bits"
	"sync/atomic"

	"vqf/internal/swar"
)

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

func insertSlot8(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, fp byte) (newLo, newHi uint64, z int) {
	if useAsm.Load() {
		return insert8Asm(lo, hi, fps, bucket, fp)
	}
	return insertSlot8Generic(lo, hi, fps, bucket, fp)
}

func insertSlot16(meta uint64, fps *[swar.Words16]uint64, bucket uint, fp uint16) (newMeta uint64, z int) {
	if useAsm.Load() {
		return insert16Asm(meta, fps, bucket, fp)
	}
	return insertSlot16Generic(meta, fps, bucket, fp)
}

func removeSlot8(lo, hiSel, hiLog uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) (newLo, newHi uint64, z int) {
	if useAsm.Load() {
		return remove8Asm(lo, hiSel, hiLog, fps, bucket, bcast)
	}
	return removeSlot8Generic(lo, hiSel, hiLog, fps, bucket, bcast)
}

func removeSlot16(metaSel, metaLog uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) (newMeta uint64, z int) {
	if useAsm.Load() {
		return remove16Asm(metaSel, metaLog, fps, bucket, bcast)
	}
	return removeSlot16Generic(metaSel, metaLog, fps, bucket, bcast)
}

func commit8(b *Block8, fps *[swar.Words8]uint64, lo, hi uint64, seq *atomic.Uint64) {
	if useAsm.Load() {
		commit8Asm(b, fps, lo, hi, seq)
		return
	}
	commit8Generic(b, fps, lo, hi, seq)
}

func commit16(b *Block16, fps *[swar.Words16]uint64, meta uint64, seq *atomic.Uint64) {
	if useAsm.Load() {
		commit16Asm(b, fps, meta, seq)
		return
	}
	commit16Generic(b, fps, meta, seq)
}

func unlock(w *uint64) {
	if useAsm.Load() {
		unlockAsm(w)
		return
	}
	unlockGeneric(w)
}

// commit8Asm is commit8Generic with ordered plain stores: the fingerprint
// words and MetaLo, a LOCK XADD of seq, then MetaHi = hi. See the write
// commits in kernel_amd64.s for why x86-TSO makes the plain stores safe.
//
//go:noescape
func commit8Asm(b *Block8, fps *[swar.Words8]uint64, lo, hi uint64, seq *atomic.Uint64)

// commit16Asm is commit16Generic with ordered plain stores; see
// commit8Asm.
//
//go:noescape
func commit16Asm(b *Block16, fps *[swar.Words16]uint64, meta uint64, seq *atomic.Uint64)

// unlockAsm is unlockGeneric with a plain store.
//
//go:noescape
func unlockAsm(w *uint64)

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

// insert8Asm is insertSlot8Generic in one branch-free assembly routine:
// the PDEP/TZCNT select of the bucket's terminator (both word candidates,
// picked by CMOV), the metadata zero inserted with BZHI/ANDN, and the SSE2
// lane shift with the fingerprint blended in through keep and insert lane
// masks. Requires hasAsm and valid metadata with room for one more
// fingerprint, as insertSlot8Generic does.
//
//go:noescape
func insert8Asm(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, fp byte) (newLo, newHi uint64, z int)

// insert16Asm is insert8Asm for Block16 (one metadata word, 28 two-byte
// lanes in three SSE2 words and an 8-byte tail).
//
//go:noescape
func insert16Asm(meta uint64, fps *[swar.Words16]uint64, bucket uint, fp uint16) (newMeta uint64, z int)

// remove8Asm is removeSlot8Generic in one assembly routine: the branch-free
// range match of the batch kernels (SELECT128 in kernel_amd64.s),
// then, when the fingerprint is present, the SSE2 lane shift-down and the
// metadata bit removal with BZHI/ANDN. Requires hasAsm and valid metadata.
//
//go:noescape
func remove8Asm(lo, hiSel, hiLog uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) (newLo, newHi uint64, z int)

// remove16Asm is remove8Asm for Block16.
//
//go:noescape
func remove16Asm(metaSel, metaLog uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) (newMeta uint64, z int)

// probeBatchChunk bounds the keys one batch-kernel call handles. Assembly
// cannot be preempted asynchronously, so a single call over a huge batch
// would hold off a GC stop-the-world. On a 2-vCPU Xeon, 1024 half-stored
// keys at 85% load take about 10 µs (8-bit) and 8 µs (16-bit) from a
// 512 KiB block array in L2, and about 21 and 31 µs from a 64 MiB one in
// its 300 MiB L3. The validated kernels, timed through the concurrent
// filters' ContainsBatch, take about 16 µs at either width in L2 and
// 26–27 µs in L3.
const probeBatchChunk = 1024

// ProbeBatch8 answers a batch of lookups against a filter's block array:
// out[i] reports whether key hash hs[i]'s fingerprint is stored in its
// bucket of either candidate block. Keys use internal/core's split8 layout
// (bucket from bits 0..15, fingerprint from bits 16..23, primary block from
// bits 24 and up) and the xor-trick partner; len(blocks) must be a power of
// two and len(out) at least len(hs). It runs the assembly kernel and reports
// true, or writes nothing and reports false when the fused kernels are
// unavailable or switched off (the caller then loops over its per-key
// Contains). The kernel makes two passes over each 256 keys, neither
// branching on data: the first compares each key's fingerprint with every
// lane of both candidate blocks and records the blocks holding a match, the
// second selects the bucket's slot range in those blocks alone. Absent keys
// rarely match a lane, so a half-absent batch selects in under one block a
// key where a one-pass probe selects in two. Its records live in the
// kernel's 8 KiB frame, so the first call grows a small goroutine stack
// once and nothing is allocated.
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
// and kernel_amd64.s. Requires hasAsm. Its frame (8 KiB of match records)
// exceeds the nosplit limit, so it checks the stack on entry like a Go
// function and calls nothing. It reads the stored metadata words as
// they stand, so it is only meaningful on plain-mode arrays, which no other
// goroutine writes: a locked-mode array's top bit is the lock, and its
// writers run concurrently — ProbeLocked8 serves those. Invalid metadata
// yields wrong answers, never an out-of-bounds access: addresses depend only
// on the hash and the mask.
//
//go:noescape
func probeBatch8Asm(blocks *Block8, mask uint64, hs *uint64, out *bool, n int)

// probeBatch16Asm is probeBatch8Asm for Block16 arrays, in one pass with
// no frame: its range is one 64-bit select a block.
//
//go:noescape
func probeBatch16Asm(blocks *Block16, mask uint64, hs *uint64, out *bool, n int)

// ProbeLocked8 answers lookups against a table of locked-mode Block8 arrays
// (the concurrent filters' form, whose top metadata bit is the lock) while
// writers run: out[i] reports whether hs[i]'s fingerprint is stored in its
// bucket of either candidate block. Key h is answered by tab[s], s the top
// log2(len(tab)) bits of h (internal/core's shardOf), and split as
// ProbeBatch8 splits it. Every key is validated with the seqlock protocol of
// Block8.Snapshot, over both candidates at once: the kernel loads the two
// version stripes, then per block its MetaHi (the lock pre-check), MetaLo,
// the fingerprint lanes and MetaHi again, then both stripes again. Its
// reads stand only if neither lock bit was set and neither version moved.
// Like ProbeBatch8 it compares first, in two passes over each 256 keys:
// the first makes those validated reads, compares the fingerprint with
// every lane and prefetches the blocks of the key 8 ahead, keeping a
// record — lane mask and the two metadata words as read, with the lock bit
// forced (the locked-mode logical form) — for each block with a matching
// lane; the second selects the bucket's range from the records alone. It
// reads no shared word, so every answer rests on validated reads. The
// records live in the kernel's 12 KiB frame.
//
// It answers keys in caller order until the first conflict and returns how
// many it answered, n: out[:n] is written, and n < len(hs) means key n
// overlapped a writer and is left to the caller's per-key path, which
// retries and falls back to the lock. It reports ok = false, writing
// nothing, where the fused kernels are unavailable or switched off. len(tab)
// must be a power of two of at most 256, every entry built by
// NewLockedArray, and len(out) at least len(hs).
func ProbeLocked8(tab []LockedArray, hs []uint64, out []bool) (n int, ok bool) {
	return probeLocked(tab, hs, out, probeLocked8Asm)
}

// ProbeLocked16 is ProbeLocked8 for Block16 arrays and split16 keys.
func ProbeLocked16(tab []LockedArray, hs []uint64, out []bool) (n int, ok bool) {
	return probeLocked(tab, hs, out, probeLocked16Asm)
}

// probeLocked runs kernel over hs in chunks of probeBatchChunk keys until a
// key conflicts. It enforces the preconditions the assembly does not check:
// every shard index lands in tab and every result inside out.
func probeLocked(tab []LockedArray, hs []uint64, out []bool, kernel func(*LockedArray, uint, *uint64, *bool, int) int) (int, bool) {
	if !useAsm.Load() {
		return 0, false
	}
	nt := len(tab)
	if nt == 0 || nt > 256 || nt&(nt-1) != 0 || len(out) < len(hs) {
		panic("minifilter: locked batch probe needs a power-of-two table of at most 256 arrays and room for every result")
	}
	shift := uint(8 - bits.TrailingZeros(uint(nt))) // shard = h>>56>>shift
	done := 0
	for done < len(hs) {
		n := min(len(hs)-done, probeBatchChunk)
		k := kernel(&tab[0], shift, &hs[done], &out[done], n)
		done += k
		if k < n {
			break
		}
	}
	return done, true
}

// probeLocked8Asm answers the n ≥ 0 keys at hs until the first conflict and
// returns how many it answered; see ProbeLocked8 and kernel_amd64.s.
// Requires hasAsm. Like probeBatch8Asm it checks the stack on entry: its
// frame (12 KiB of match records) exceeds the nosplit limit.
//
//go:noescape
func probeLocked8Asm(tab *LockedArray, shift uint, hs *uint64, out *bool, n int) int

// probeLocked16Asm is probeLocked8Asm for Block16 arrays.
//
//go:noescape
func probeLocked16Asm(tab *LockedArray, shift uint, hs *uint64, out *bool, n int) int
