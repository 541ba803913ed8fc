//go:build amd64 && !purego

#include "textflag.h"

// Fused probe kernels: metadata select + slot-range arithmetic + lane match
// in one routine. The select uses the BMI2 trick
//
//	position of k-th set bit of m  =  TZCNT(PDEP(1 << k, m))
//
// which replaces the generic SWAR popcount-prefix select. The bucket's slot
// range [start, end) then falls out of two terminator positions, and an
// SSE2 PCMPEQB/PCMPEQW lane compare with a PMOVMSKB movemask, masked to the
// range, yields the match mask. Callers guarantee valid block metadata (see kernel_amd64.go), which bounds every
// shift count below 64:
//
//   - a terminator always follows terminator bucket-1 (bucket is in range),
//     so the "rest" mask TZCNT operates on is nonzero wherever the code
//     relies on it;
//   - "bits strictly above p" is built as (-1 << p) << 1 — two shifts each
//     < 64 — rather than -1 << (p+1), which would wrap at p = 63.
//
// Requires POPCNT + BMI1 + BMI2 (hasAsm); gated by the caller.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func fusedProbe8Asm(lo, hi uint64, fps *[6]uint64, bucket uint, bcast uint64) uint64
TEXT ·fusedProbe8Asm(SB), NOSPLIT, $0-48
	MOVQ    lo+0(FP), R8
	MOVQ    hi+8(FP), R9
	MOVQ    bucket+24(FP), BX
	XORQ    R10, R10            // start = 0 (bucket-0 case)
	TESTQ   BX, BX
	JEQ     firstBucket8
	LEAQ    -1(BX), DX          // k = bucket-1
	POPCNTQ R8, R12             // terminators in the low word
	CMPQ    DX, R12
	JCC     selectHi8           // k >= popcount(lo): terminator k is in hi

	// p = TZCNT(PDEP(1<<k, lo)), the k-th terminator's bit position.
	MOVQ    DX, CX
	MOVQ    $1, R13
	SHLQ    CX, R13
	PDEPQ   R8, R13, R13
	TZCNTQ  R13, R13            // p (0..63)
	MOVQ    $-1, R12
	MOVQ    R13, CX
	SHLQ    CX, R12
	SHLQ    $1, R12             // bits strictly above p
	ANDQ    R8, R12             // rest of lo
	JNE     nextInLo8
	TZCNTQ  R9, R11             // next terminator is in hi
	ADDQ    $64, R11            // q = 64 + TZCNT(hi)
	JMP     haveRange8

nextInLo8:
	TZCNTQ  R12, R11            // q
	JMP     haveRange8

selectHi8:
	SUBQ    R12, DX             // k' = k - popcount(lo)
	MOVQ    DX, CX
	MOVQ    $1, R13
	SHLQ    CX, R13
	PDEPQ   R9, R13, R13
	TZCNTQ  R13, R13            // p - 64
	MOVQ    $-1, R12
	MOVQ    R13, CX
	SHLQ    CX, R12
	SHLQ    $1, R12
	ANDQ    R9, R12             // rest of hi; nonzero (terminator bucket follows)
	TZCNTQ  R12, R11
	ADDQ    $64, R11            // q
	ADDQ    $64, R13            // p

haveRange8:
	SUBQ    BX, R11             // end = q - bucket
	SUBQ    BX, R13
	LEAQ    1(R13), R10         // start = p - bucket + 1
	JMP     match8

firstBucket8:
	TZCNTQ  R8, R11             // end = TZCNT(lo), or into hi when lo == 0
	CMPQ    R11, $64
	JNE     match8
	TZCNTQ  R9, R11
	ADDQ    $64, R11

match8:
	CMPQ    R10, R11
	JCC     empty8              // start >= end: empty bucket, skip the loads
	MOVQ    fps+16(FP), SI
	MOVQ    bcast+32(FP), AX
	MOVQ    AX, X0
	PUNPCKLQDQ X0, X0
	MOVOU   (SI), X1
	MOVOU   16(SI), X2
	MOVOU   32(SI), X3
	PCMPEQB X0, X1
	PCMPEQB X0, X2
	PCMPEQB X0, X3
	PMOVMSKB X1, AX
	PMOVMSKB X2, BX
	PMOVMSKB X3, DX
	SHLQ    $16, BX
	SHLQ    $32, DX
	ORQ     BX, AX
	ORQ     DX, AX
	MOVQ    $-1, R9
	MOVQ    R10, CX
	SHLQ    CX, R9              // -1 << start
	ANDQ    R9, AX
	MOVQ    $1, R9
	MOVQ    R11, CX
	SHLQ    CX, R9
	DECQ    R9                  // (1 << end) - 1; end <= 48
	ANDQ    R9, AX
	MOVQ    AX, ret+40(FP)
	RET

empty8:
	MOVQ    $0, ret+40(FP)
	RET

// func fusedProbe16Asm(meta uint64, fps *[7]uint64, bucket uint, bcast uint64) uint64
TEXT ·fusedProbe16Asm(SB), NOSPLIT, $0-40
	MOVQ    meta+0(FP), R8
	MOVQ    bucket+16(FP), BX
	XORQ    R10, R10            // start = 0 (bucket-0 case)
	TESTQ   BX, BX
	JEQ     firstBucket16
	LEAQ    -1(BX), CX          // k = bucket-1
	MOVQ    $1, R12
	SHLQ    CX, R12
	PDEPQ   R8, R12, R12
	TZCNTQ  R12, R13            // p
	MOVQ    $-1, R12
	MOVQ    R13, CX
	SHLQ    CX, R12
	SHLQ    $1, R12             // bits strictly above p
	ANDQ    R8, R12             // nonzero: terminator bucket follows
	TZCNTQ  R12, R11            // q
	SUBQ    BX, R11             // end = q - bucket
	SUBQ    BX, R13
	LEAQ    1(R13), R10         // start = p - bucket + 1
	JMP     match16

firstBucket16:
	TZCNTQ  R8, R11             // end = TZCNT(meta); meta != 0 always

match16:
	CMPQ    R10, R11
	JCC     empty16             // start >= end: empty bucket, skip the loads
	MOVQ    fps+8(FP), SI
	MOVQ    bcast+24(FP), AX
	MOVQ    AX, X0
	PUNPCKLQDQ X0, X0
	MOVOU   (SI), X1
	MOVOU   16(SI), X2
	MOVOU   32(SI), X3
	MOVQ    48(SI), X4
	PCMPEQW X0, X1
	PCMPEQW X0, X2
	PCMPEQW X0, X3
	PCMPEQW X0, X4
	PACKSSWB X2, X1
	PACKSSWB X4, X3
	PMOVMSKB X1, AX
	PMOVMSKB X3, BX
	SHLQ    $16, BX
	ORQ     BX, AX
	MOVQ    $-1, R9
	MOVQ    R10, CX
	SHLQ    CX, R9              // -1 << start
	ANDQ    R9, AX
	MOVQ    $1, R9
	MOVQ    R11, CX
	SHLQ    CX, R9
	DECQ    R9                  // (1 << end) - 1; end <= 28 strips the tail lanes
	ANDQ    R9, AX
	MOVQ    AX, ret+32(FP)
	RET

empty16:
	MOVQ    $0, ret+32(FP)
	RET

// Batched contains kernels. One call answers n keys in caller order:
// out[i] = 1 iff hs[i]'s fingerprint sits in its bucket of either candidate
// block. Every key is split as internal/core's split8/split16 do, its
// partner block derived with the xor trick (Murmur3Mul), and both blocks
// probed with no data-dependent branch, so the only branches are the
// loops' own and out-of-order execution overlaps independent keys.
//
// The bucket's slot range is [start, end) with
//
//	end   = select(meta, bucket)        - bucket
//	start = select(meta<<1 | 1, bucket) - bucket
//
// (the shifted word's first one stands in for a terminator before bucket 0,
// so bucket 0 needs no special case), and the range mask is
// BZHI(-1 << start, end). A 128-bit select computes both the low- and
// high-word PDEP/TZCNT candidates and picks one with CMOV; the unused
// candidate's shift counts wrap modulo 64 harmlessly. POPCNT gets a zeroed
// destination first: on some cores its output carries a false dependency
// that would chain one key's select to the previous key's.
//
// The 16-bit kernel (and the validated kernels below) probe each key in one
// pass: select, compare, mask. The 8-bit kernel compares first and selects
// only on a match, in two passes over chunks of BATCH8_KEYS keys. Its
// range costs two 128-bit selects a block, and an absent key's fingerprint
// sits anywhere in a 48-lane block only about 17% of the time
// (1 - (255/256)^48), so most blocks need none. Pass 1 splits each key,
// compares its fingerprint with all 48 lanes of both blocks, zeroes out[i]
// and prefetches the blocks of the key 8 ahead. Each block's record, {lane
// mask | bucket<<48 | i<<56, block offset}, is stored unconditionally and
// kept by advancing the record cursor by (mask != 0) with no branch. Pass
// 2 computes each record's range and ORs (mask & range) != 0 into out[i]:
// a key's two records may both hit or miss, or one each. Pass 2 shares one
// POPCNT between its two selects and picks each select's word before a
// single PDEP/TZCNT (SELECTC128): five uops a record on the port Intel
// cores run PDEP, TZCNT and POPCNT on, where two SELECT128s take ten.
// Pass 1 avoids that port too: LEA and a shift for the bucket's multiply
// by 80, SSE2 unpacks for the fingerprint broadcast. On a 2-vCPU Xeon,
// 4096-key batches, half of them stored keys, on 2^13 blocks (512 KiB) at
// 85% load read 16.3 ns/key through a one-pass 8-bit loop (MATCH8 on both
// blocks of every key) and 11.2 ns through the two passes; with pass 2 cut
// out (wrong answers, for sizing only) 8.2 ns. Medians of 7 alternating
// runs.
//
// Each per-key loop head sits behind PCALIGN $64, which pads it to a cache
// line and raises the routine's own alignment to match, so code added
// elsewhere in the binary cannot slide the loop across fetch and uop-cache
// boundaries and move the kernel benchmarks with it. The write kernels
// align their entries the same way.
//
// Registers of the one-pass loops: DI blocks, SI/R9 one past the end of
// hs/out, CX the negative remaining count, BX bucket, AX and R10 the two
// block byte offsets (each then holds its block's match mask), X0 the
// broadcast fingerprint; DX, R8 and R11-R15 are scratch. The 16-bit loop
// keeps 1 << bucket in R8. The 8-bit kernel's passes name theirs in place.

// SELECT128(lo, hi, out): out = position of terminator BX among the 128
// bits hi:lo. Clobbers DX, R8, R15 and flags.
#define SELECT128(lo, hi, out) \
	XORL    DX, DX; \
	POPCNTQ lo, DX; \
	XORL    out, out; \
	BTSQ    BX, out; \
	PDEPQ   lo, out, out; \
	TZCNTQ  out, out; \
	MOVQ    BX, R15; \
	SUBQ    DX, R15; \
	XORL    R8, R8; \
	BTSQ    R15, R8; \
	PDEPQ   hi, R8, R8; \
	TZCNTQ  R8, R8; \
	ADDQ    $64, R8; \
	CMPQ    BX, DX; \
	CMOVQCC R8, out

// LANES8(off, m): m = the 48-bit mask of the fingerprint lanes of the
// Block8 at DI+off (bytes 16..63) that equal X0. Clobbers X1-X3 and R11.
#define LANES8(off, m) \
	MOVOU    16(DI)(off*1), X1; \
	MOVOU    32(DI)(off*1), X2; \
	MOVOU    48(DI)(off*1), X3; \
	PCMPEQB  X0, X1; \
	PCMPEQB  X0, X2; \
	PCMPEQB  X0, X3; \
	PMOVMSKB X1, m; \
	PMOVMSKB X2, R11; \
	SHLQ     $16, R11; \
	ORQ      R11, m; \
	PMOVMSKB X3, R11; \
	SHLQ     $32, R11; \
	ORQ      R11, m

// MATCH8(off): off = match mask of X0 within bucket BX of the Block8 at
// DI+off, once its metadata words are in R12 (lo) and R13 (hi): compare
// the lanes, then select the range.
#define MATCH8(off) \
	LANES8(off, R14); \
	SELECT128(R12, R13, R11); \
	SUBQ     BX, R11; \
	ADDQ     R12, R12; \
	ADCQ     R13, R13; \
	ORQ      $1, R12; \
	SELECT128(R12, R13, off); \
	SUBQ     BX, off; \
	MOVQ     $-1, R12; \
	SHLXQ    off, R12, off; \
	BZHIQ    R11, off, off; \
	ANDQ     R14, off

// SPLIT8(h, bucket, fp, o2, m): split key hash h as internal/core's split8
// does into bucket and fp, then turn h into its primary block's byte offset
// and o2 into its partner's, under block-index mask m.
#define SPLIT8(h, bucket, fp, o2, m) \
	MOVWQZX h, bucket; \
	LEAQ    (bucket)(bucket*4), bucket; \
	SHRQ    $12, bucket; \
	MOVQ    h, fp; \
	SHRQ    $16, fp; \
	MOVBQZX fp, fp; \
	MOVQ    bucket, o2; \
	SHLQ    $8, o2; \
	ORQ     fp, o2; \
	IMUL3Q  $0x5bd1e995, o2, o2; \
	SHRQ    $24, h; \
	ANDQ    m, h; \
	XORQ    h, o2; \
	ANDQ    m, o2; \
	SHLQ    $6, h; \
	SHLQ    $6, o2

// SELECTC128(lo, hi, c, out): SELECT128 with c = POPCNT(lo) given, which
// picks the word holding terminator BX before one PDEP/TZCNT rather than
// after two. Clobbers R8, R10, R15 and flags.
#define SELECTC128(lo, hi, c, out) \
	MOVQ    BX, R15; \
	SUBQ    c, R15; \
	MOVQ    hi, R10; \
	CMPQ    BX, c; \
	CMOVQCS BX, R15; \
	CMOVQCS lo, R10; \
	SBBQ    out, out; \
	INCQ    out; \
	SHLQ    $6, out; \
	XORL    R8, R8; \
	BTSQ    R15, R8; \
	PDEPQ   R10, R8, R8; \
	TZCNTQ  R8, R8; \
	ADDQ    R8, out

// BATCH8_KEYS keys make one chunk of the two-pass 8-bit kernel. Its
// 8224-byte frame holds the chunk's records (16 bytes each, at most two
// per key: 8192 bytes) below the locals left, keys, next and last.
#define BATCH8_KEYS 256

// Pass 1 registers: DI blocks, SI the chunk's keys, R9 its out, CX i, R12
// the record cursor, AX/R10 the block offsets, R13/R14 their lane masks.
// Pass 2: SI the record, CX one past the last, R14 its first word, AX its
// block offset, then the hit mask.
//
// func probeBatch8Asm(blocks *Block8, mask uint64, hs *uint64, out *bool, n int)
TEXT ·probeBatch8Asm(SB), 0, $8224-40
	MOVQ    blocks+0(FP), DI
	MOVQ    hs+16(FP), SI
	MOVQ    out+24(FP), R9
	MOVQ    n+32(FP), AX
	MOVQ    AX, left-8(SP)
	LEAQ    -8(SI)(AX*8), AX
	MOVQ    AX, last-32(SP)     // &hs[n-1]

chunk8:
	MOVQ    left-8(SP), DX
	TESTQ   DX, DX
	JLE     done8
	MOVQ    $BATCH8_KEYS, AX
	CMPQ    DX, AX
	CMOVQLT DX, AX              // keys in this chunk
	SUBQ    AX, DX
	MOVQ    DX, left-8(SP)
	MOVQ    AX, keys-16(SP)
	XORL    CX, CX
	LEAQ    recs-8224(SP), R12  // record cursor
	PCALIGN $64

compare8:
	LEAQ    64(SI)(CX*8), R8
	CMPQ    R8, last-32(SP)
	CMOVQHI last-32(SP), R8
	MOVQ    (R8), R8            // the key 8 ahead, or the batch's last
	SPLIT8(R8, R15, R11, R13, mask+8(FP))
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 (DI)(R13*1)
	MOVQ    (SI)(CX*8), AX      // h
	SPLIT8(AX, BX, DX, R10, mask+8(FP))
	MOVQ    DX, X0
	PUNPCKLBW X0, X0
	PSHUFLW $0, X0, X0
	PUNPCKLQDQ X0, X0           // fp in every byte
	LANES8(AX, R13)
	LANES8(R10, R14)
	MOVB    $0, (R9)(CX*1)
	MOVQ    CX, R11
	SHLQ    $8, R11
	ORQ     BX, R11
	SHLQ    $48, R11            // bucket<<48 | i<<56
	XORL    R8, R8
	TESTQ   R13, R13
	SETNE   R8                  // block 1 has a candidate
	XORL    R15, R15
	TESTQ   R14, R14
	SETNE   R15                 // block 2 has a candidate
	ORQ     R11, R13
	ORQ     R11, R14
	MOVQ    R13, 0(R12)
	MOVQ    AX, 8(R12)
	SHLQ    $1, R8
	MOVQ    R14, 0(R12)(R8*8)
	MOVQ    R10, 8(R12)(R8*8)
	LEAQ    (R8)(R15*2), R8
	LEAQ    (R12)(R8*8), R12    // cursor += records made
	INCQ    CX
	CMPQ    CX, keys-16(SP)
	JNE     compare8

	LEAQ    (SI)(CX*8), SI
	MOVQ    SI, next-24(SP)     // the next chunk's keys
	MOVQ    R12, CX             // one past the last record
	LEAQ    recs-8224(SP), SI
	CMPQ    SI, CX
	JEQ     nextChunk8
	PCALIGN $64

select8:
	MOVQ    0(SI), R14          // match mask | bucket<<48 | i<<56
	MOVQ    8(SI), AX           // block offset
	MOVQ    R14, BX
	SHRQ    $48, BX
	MOVBQZX BX, BX              // bucket
	MOVQ    0(DI)(AX*1), R12
	MOVQ    8(DI)(AX*1), R13
	XORL    DX, DX
	POPCNTQ R12, DX
	SELECTC128(R12, R13, DX, R11)
	SUBQ    BX, R11             // end
	BTQ     $63, R12
	SBBQ    $-1, DX             // popcount of the shifted low word
	ADDQ    R12, R12
	ADCQ    R13, R13
	ORQ     $1, R12
	SELECTC128(R12, R13, DX, AX)
	SUBQ    BX, AX              // start
	MOVQ    $-1, R12
	SHLXQ   AX, R12, AX
	BZHIQ   R11, AX, AX
	ANDQ    R14, AX             // end <= 48 drops bucket and i
	SETNE   R12
	SHRQ    $56, R14            // i
	ORB     R12, (R9)(R14*1)
	ADDQ    $16, SI
	CMPQ    SI, CX
	JNE     select8

nextChunk8:
	MOVQ    next-24(SP), SI
	ADDQ    keys-16(SP), R9
	JMP     chunk8

done8:
	RET

// PROBE16(off): off = match mask of X0 within bucket BX of the Block16 at
// DI+off (Meta at 0, uint16 lanes at 8..63). Lanes 28..31 of the last
// compare read zero padding; end <= 28 strips them.
#define PROBE16(off) \
	MOVQ     0(DI)(off*1), R12; \
	MATCH16(off)

// MATCH16(off): the body of PROBE16 once the metadata word is in R12.
#define MATCH16(off) \
	MOVOU    8(DI)(off*1), X1; \
	MOVOU    24(DI)(off*1), X2; \
	MOVOU    40(DI)(off*1), X3; \
	MOVQ     56(DI)(off*1), X4; \
	PCMPEQW  X0, X1; \
	PCMPEQW  X0, X2; \
	PCMPEQW  X0, X3; \
	PCMPEQW  X0, X4; \
	PACKSSWB X2, X1; \
	PACKSSWB X4, X3; \
	PMOVMSKB X1, R14; \
	PMOVMSKB X3, R11; \
	SHLQ     $16, R11; \
	ORQ      R11, R14; \
	PDEPQ    R12, R8, R11; \
	TZCNTQ   R11, R11; \
	SUBQ     BX, R11; \
	LEAQ     1(R12)(R12*1), R12; \
	PDEPQ    R12, R8, off; \
	TZCNTQ   off, off; \
	SUBQ     BX, off; \
	MOVQ     $-1, R12; \
	SHLXQ    off, R12, off; \
	BZHIQ    R11, off, off; \
	ANDQ     R14, off

// func probeBatch16Asm(blocks *Block16, mask uint64, hs *uint64, out *bool, n int)
TEXT ·probeBatch16Asm(SB), NOSPLIT, $0-40
	MOVQ    blocks+0(FP), DI
	MOVQ    hs+16(FP), SI
	MOVQ    out+24(FP), R9
	MOVQ    n+32(FP), CX
	TESTQ   CX, CX
	JLE     done16
	LEAQ    (SI)(CX*8), SI
	ADDQ    CX, R9
	NEGQ    CX
	PCALIGN $64

loop16:
	MOVQ    (SI)(CX*8), AX      // h
	MOVWQZX AX, BX
	IMUL3Q  $36, BX, BX
	SHRQ    $16, BX             // bucket = (h & 0xffff) * 36 >> 16
	MOVQ    AX, DX
	SHRQ    $16, DX
	MOVWQZX DX, DX              // fp = uint16(h >> 16)
	MOVQ    BX, R10
	SHLQ    $16, R10
	ORQ     DX, R10             // tag = bucket<<16 | fp
	IMUL3Q  $0x5bd1e995, R10, R10
	SHRQ    $32, AX
	ANDQ    mask+8(FP), AX      // b1
	XORQ    AX, R10
	ANDQ    mask+8(FP), R10     // b2 = (b1 ^ tag*Murmur3Mul) & mask
	SHLQ    $6, AX
	SHLQ    $6, R10
	MOVQ    $0x0001000100010001, R11
	IMULQ   R11, DX
	MOVQ    DX, X0
	PUNPCKLQDQ X0, X0
	XORL    R8, R8
	BTSQ    BX, R8              // 1 << bucket
	PROBE16(AX)
	PROBE16(R10)
	ORQ     R10, AX
	SETNE   (R9)(CX*1)
	INCQ    CX
	JNE     loop16

done16:
	RET

// Validated batch kernels for locked-mode arrays, which writers change
// while the kernel reads them. Each key is split and probed as above, but
// its two blocks come from a table entry {blocks, mask, seqs, seqMask}
// (LockedArray) picked by the key's top bits, and its answer is validated
// with Snapshot's seqlock protocol, loads in this order:
//
//	1. both version stripes, summed into ver;
//	2. per block, the lock word (MetaHi, or Meta) — ORed into lk, then
//	   probed with the lock bit forced, the locked-mode logical form —
//	   followed by the block's other words;
//	3. both lock words again;
//	4. both version stripes again.
//
// x86-TSO keeps loads in program order and writers' stores in program
// order (see the write commits below), so plain MOVs are the acquire loads
// the protocol needs (Go's atomic loads are the same MOVs). The answer stands if no lock bit was set
// in 2 or 3 and the stripes still sum to ver; stripes only grow, so an
// unchanged sum means neither moved. Otherwise the kernel stops and returns
// the key's index for the per-key path to retry.
//
// Memory safety does not depend on the words read: every address comes
// from the hash, the entry's masks and the table, and metadata feeds only
// shift counts and bit selects, which cannot fault. A torn or invalid
// metadata word yields an answer the validation discards, never an
// out-of-bounds load.
//
// Registers as in the plain loop, plus R8 the table entry until the probes;
// the stripe addresses, block offsets, ver and lk live in the frame.

// PROBE8L(off): PROBE8 on a locked-mode Block8: MetaHi first, its raw
// value ORed into lk, probed with the lock bit forced.
#define PROBE8L(off) \
	MOVQ     8(DI)(off*1), R13; \
	ORQ      R13, lk-48(SP); \
	BTSQ     $63, R13; \
	MOVQ     0(DI)(off*1), R12; \
	MATCH8(off)

// func probeLocked8Asm(tab *LockedArray, shift uint, hs *uint64, out *bool, n int) int
TEXT ·probeLocked8Asm(SB), NOSPLIT, $48-48
	MOVQ    hs+16(FP), SI
	MOVQ    out+24(FP), R9
	MOVQ    n+32(FP), CX
	TESTQ   CX, CX
	JLE     lockedDone8
	LEAQ    (SI)(CX*8), SI
	ADDQ    CX, R9
	NEGQ    CX
	PCALIGN $64

lockedLoop8:
	MOVQ    (SI)(CX*8), AX      // h
	MOVQ    AX, R8
	SHRQ    $56, R8
	MOVQ    shift+8(FP), R11
	SHRXQ   R11, R8, R8         // shard = h>>56>>shift
	SHLQ    $5, R8
	ADDQ    tab+0(FP), R8       // R8 = &tab[shard]
	MOVQ    0(R8), DI           // blocks
	MOVWQZX AX, BX
	IMUL3Q  $80, BX, BX
	SHRQ    $16, BX             // bucket = (h & 0xffff) * 80 >> 16
	MOVQ    AX, DX
	SHRQ    $16, DX
	MOVBQZX DX, DX              // fp = byte(h >> 16)
	MOVQ    BX, R10
	SHLQ    $8, R10
	ORQ     DX, R10             // tag = bucket<<8 | fp
	IMUL3Q  $0x5bd1e995, R10, R10
	SHRQ    $24, AX
	ANDQ    8(R8), AX           // b1
	XORQ    AX, R10
	ANDQ    8(R8), R10          // b2 = (b1 ^ tag*Murmur3Mul) & mask
	MOVQ    16(R8), R11         // seqs
	MOVQ    24(R8), R12         // seqMask
	MOVQ    R12, R13
	ANDQ    AX, R13
	LEAQ    (R11)(R13*8), R13
	MOVQ    R13, s1-16(SP)
	MOVQ    (R13), R14          // 1. version of b1's stripe
	ANDQ    R10, R12
	LEAQ    (R11)(R12*8), R12
	MOVQ    R12, s2-24(SP)
	ADDQ    (R12), R14          //    plus b2's
	MOVQ    R14, ver-8(SP)
	MOVQ    $0, lk-48(SP)
	SHLQ    $6, AX
	SHLQ    $6, R10
	MOVQ    AX, o1-32(SP)
	MOVQ    R10, o2-40(SP)
	MOVQ    $0x0101010101010101, R11
	IMULQ   R11, DX
	MOVQ    DX, X0
	PUNPCKLQDQ X0, X0
	PROBE8L(AX)                 // 2.
	PROBE8L(R10)
	ORQ     R10, AX             // nonzero: found
	MOVQ    o1-32(SP), R11
	MOVQ    o2-40(SP), R12
	MOVQ    8(DI)(R11*1), R13   // 3. lock words again
	ORQ     8(DI)(R12*1), R13
	ORQ     lk-48(SP), R13
	MOVQ    s1-16(SP), R11
	MOVQ    (R11), R11          // 4. stripes again
	MOVQ    s2-24(SP), R12
	ADDQ    (R12), R11
	SUBQ    ver-8(SP), R11
	SHRQ    $63, R13
	ORQ     R11, R13
	JNE     lockedConflict8
	TESTQ   AX, AX
	SETNE   (R9)(CX*1)
	INCQ    CX
	JNE     lockedLoop8

lockedDone8:
	MOVQ    n+32(FP), AX
	MOVQ    AX, ret+40(FP)
	RET

lockedConflict8:
	MOVQ    n+32(FP), AX
	ADDQ    CX, AX              // the conflicted key's index
	MOVQ    AX, ret+40(FP)
	RET

// PROBE16L(off): PROBE16 on a locked-mode Block16: Meta ORed into lk, then
// probed with the lock bit forced.
#define PROBE16L(off) \
	MOVQ     0(DI)(off*1), R12; \
	ORQ      R12, lk-48(SP); \
	BTSQ     $63, R12; \
	MATCH16(off)

// func probeLocked16Asm(tab *LockedArray, shift uint, hs *uint64, out *bool, n int) int
TEXT ·probeLocked16Asm(SB), NOSPLIT, $48-48
	MOVQ    hs+16(FP), SI
	MOVQ    out+24(FP), R9
	MOVQ    n+32(FP), CX
	TESTQ   CX, CX
	JLE     lockedDone16
	LEAQ    (SI)(CX*8), SI
	ADDQ    CX, R9
	NEGQ    CX
	PCALIGN $64

lockedLoop16:
	MOVQ    (SI)(CX*8), AX      // h
	MOVQ    AX, R8
	SHRQ    $56, R8
	MOVQ    shift+8(FP), R11
	SHRXQ   R11, R8, R8         // shard = h>>56>>shift
	SHLQ    $5, R8
	ADDQ    tab+0(FP), R8       // R8 = &tab[shard]
	MOVQ    0(R8), DI           // blocks
	MOVWQZX AX, BX
	IMUL3Q  $36, BX, BX
	SHRQ    $16, BX             // bucket = (h & 0xffff) * 36 >> 16
	MOVQ    AX, DX
	SHRQ    $16, DX
	MOVWQZX DX, DX              // fp = uint16(h >> 16)
	MOVQ    BX, R10
	SHLQ    $16, R10
	ORQ     DX, R10             // tag = bucket<<16 | fp
	IMUL3Q  $0x5bd1e995, R10, R10
	SHRQ    $32, AX
	ANDQ    8(R8), AX           // b1
	XORQ    AX, R10
	ANDQ    8(R8), R10          // b2 = (b1 ^ tag*Murmur3Mul) & mask
	MOVQ    16(R8), R11         // seqs
	MOVQ    24(R8), R12         // seqMask
	MOVQ    R12, R13
	ANDQ    AX, R13
	LEAQ    (R11)(R13*8), R13
	MOVQ    R13, s1-16(SP)
	MOVQ    (R13), R14          // 1. version of b1's stripe
	ANDQ    R10, R12
	LEAQ    (R11)(R12*8), R12
	MOVQ    R12, s2-24(SP)
	ADDQ    (R12), R14          //    plus b2's
	MOVQ    R14, ver-8(SP)
	MOVQ    $0, lk-48(SP)
	SHLQ    $6, AX
	SHLQ    $6, R10
	MOVQ    AX, o1-32(SP)
	MOVQ    R10, o2-40(SP)
	MOVQ    $0x0001000100010001, R11
	IMULQ   R11, DX
	MOVQ    DX, X0
	PUNPCKLQDQ X0, X0
	XORL    R8, R8
	BTSQ    BX, R8              // 1 << bucket
	PROBE16L(AX)                // 2.
	PROBE16L(R10)
	ORQ     R10, AX             // nonzero: found
	MOVQ    o1-32(SP), R11
	MOVQ    o2-40(SP), R12
	MOVQ    0(DI)(R11*1), R13   // 3. lock words again
	ORQ     0(DI)(R12*1), R13
	ORQ     lk-48(SP), R13
	MOVQ    s1-16(SP), R11
	MOVQ    (R11), R11          // 4. stripes again
	MOVQ    s2-24(SP), R12
	ADDQ    (R12), R11
	SUBQ    ver-8(SP), R11
	SHRQ    $63, R13
	ORQ     R11, R13
	JNE     lockedConflict16
	TESTQ   AX, AX
	SETNE   (R9)(CX*1)
	INCQ    CX
	JNE     lockedLoop16

lockedDone16:
	MOVQ    n+32(FP), AX
	MOVQ    AX, ret+40(FP)
	RET

lockedConflict16:
	MOVQ    n+32(FP), AX
	ADDQ    CX, AX              // the conflicted key's index
	MOVQ    AX, ret+40(FP)
	RET

// Fused write kernels: one routine per width and op does everything an
// insert or a remove changes in a block, with no call in the middle and no
// branch on the bucket's position.
//
// Insert. The bucket's terminator m = select(meta, bucket) is found as in
// SELECT128 (both word candidates, CMOV), the new fingerprint's slot is
// z = m - bucket, and the metadata zero goes in at m:
//
//	new = meta&M | (meta&^M)<<1,    M = the bits below m
//
// over the 128-bit (or 64-bit) word. Mlo = BZHI(-1, m) is all ones once m
// reaches the high word, and Mhi is BZHI(-1, m-64) picked by the same CMOV
// as m, else zero. The fingerprint lanes are shifted up one lane with
// PSLLO/PSRLO (PSLLDQ/PSRLDQ, the carry lane ORed in from the word below),
// and each 16-byte word is blended from three sources by two lane masks read
// out of laneMask: keep K (lanes below z: the old lane), insert K' (lanes up
// to z: the new fingerprint where K is clear), and elsewhere the shifted
// lane. Each blend is x ^ ((x ^ y) & mask), three SSE2 ops.
//
// Remove. The match runs as in MATCH8/MATCH16 (branch-free range), the
// first match z is freed, and the metadata bit at p = z + bucket is removed:
//
//	new = meta&M | (meta>>1)&^M,    M = the bits below p
//
// with the lanes above z shifted down one lane, zero fed in at the top. An
// absent fingerprint returns the words unchanged and z = -1 before any
// store.
//
// Every mask-table load stays inside laneMask whatever the metadata: an
// insert reduces z modulo the lane count's power of two, and a remove's z
// is the TZCNT of a nonzero lane mask (below 48, or 32 for 16-bit lanes).
// Invalid metadata yields a wrong block, never an out-of-bounds load, and
// the fingerprint loads and stores touch exactly the block's lanes.

// laneMask is 64 bytes of 0xff followed by 64 bytes of 0x00: the n-byte
// prefix mask of any window starts at laneMask+64-n.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $-1
DATA laneMask<>+40(SB)/8, $-1
DATA laneMask<>+48(SB)/8, $-1
DATA laneMask<>+56(SB)/8, $-1
DATA laneMask<>+64(SB)/8, $0
DATA laneMask<>+72(SB)/8, $0
DATA laneMask<>+80(SB)/8, $0
DATA laneMask<>+88(SB)/8, $0
DATA laneMask<>+96(SB)/8, $0
DATA laneMask<>+104(SB)/8, $0
DATA laneMask<>+112(SB)/8, $0
DATA laneMask<>+120(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $128

// BLEND(mask, y, x): x = mask ? y : x, bytewise; y is clobbered.
#define BLEND(mask, y, x) \
	PXOR    x, y; \
	PAND    mask, y; \
	PXOR    y, x

// func insert8Asm(lo, hi uint64, fps *[6]uint64, bucket uint, fp byte) (newLo, newHi uint64, z int)
TEXT ·insert8Asm(SB), NOSPLIT, $0-64
	PCALIGN $64
	MOVQ    lo+0(FP), R8
	MOVQ    hi+8(FP), R9
	MOVQ    bucket+24(FP), BX
	XORL    DX, DX
	POPCNTQ R8, DX              // terminators in lo
	XORL    R10, R10
	BTSQ    BX, R10
	PDEPQ   R8, R10, R10
	TZCNTQ  R10, R10            // m if terminator bucket is in lo
	MOVQ    BX, R11
	SUBQ    DX, R11
	XORL    R12, R12
	BTSQ    R11, R12
	PDEPQ   R9, R12, R12
	TZCNTQ  R12, R12            // m - 64 if it is in hi
	MOVQ    $-1, R13
	BZHIQ   R12, R13, R13       // Mhi candidate
	ADDQ    $64, R12
	XORL    R15, R15
	CMPQ    BX, DX
	CMOVQCC R12, R10            // m
	CMOVQCC R13, R15            // Mhi
	MOVQ    $-1, R14
	BZHIQ   R10, R14, R14       // Mlo
	ANDNQ   R8, R14, R11        // lo &^ Mlo
	ANDQ    R14, R8
	LEAQ    (R8)(R11*2), R8     // new lo
	SHRQ    $63, R11            // bit 63 carries into hi
	ANDNQ   R9, R15, R12        // hi &^ Mhi
	ANDQ    R15, R9
	ORQ     R11, R9
	LEAQ    (R9)(R12*2), R9     // new hi
	SUBQ    BX, R10             // z = m - bucket
	MOVQ    R8, newLo+40(FP)
	MOVQ    R9, newHi+48(FP)
	MOVQ    R10, z+56(FP)

	MOVBQZX fp+32(FP), AX
	MOVQ    $0x0101010101010101, DX
	IMULQ   DX, AX
	MOVQ    AX, X0
	PUNPCKLQDQ X0, X0           // fp in every lane
	ANDQ    $63, R10
	LEAQ    laneMask<>+64(SB), DI
	SUBQ    R10, DI             // K at DI, K' at DI-1
	MOVQ    fps+16(FP), SI
	MOVOU   (SI), X1
	MOVOU   16(SI), X2
	MOVOU   32(SI), X3
	MOVO    X1, X4
	PSLLO   $1, X4              // lanes shifted up: word 0
	MOVO    X1, X8
	PSRLO   $15, X8
	MOVO    X2, X5
	PSLLO   $1, X5
	POR     X8, X5              // word 1
	MOVO    X2, X8
	PSRLO   $15, X8
	MOVO    X3, X6
	PSLLO   $1, X6
	POR     X8, X6              // word 2
	MOVOU   -1(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X4)           // fp at lanes <= z
	MOVOU   (DI), X8
	BLEND(X8, X1, X4)           // old lanes below z
	MOVOU   15(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X5)
	MOVOU   16(DI), X8
	BLEND(X8, X2, X5)
	MOVOU   31(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X6)
	MOVOU   32(DI), X8
	BLEND(X8, X3, X6)
	MOVOU   X4, (SI)
	MOVOU   X5, 16(SI)
	MOVOU   X6, 32(SI)
	RET

// func insert16Asm(meta uint64, fps *[7]uint64, bucket uint, fp uint16) (newMeta uint64, z int)
TEXT ·insert16Asm(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ    meta+0(FP), R8
	MOVQ    bucket+16(FP), BX
	XORL    R10, R10
	BTSQ    BX, R10
	PDEPQ   R8, R10, R10
	TZCNTQ  R10, R10            // m
	MOVQ    $-1, R14
	BZHIQ   R10, R14, R14       // M
	ANDNQ   R8, R14, R11
	ANDQ    R14, R8
	LEAQ    (R8)(R11*2), R8     // new meta
	SUBQ    BX, R10             // z = m - bucket
	MOVQ    R8, newMeta+32(FP)
	MOVQ    R10, z+40(FP)

	MOVWQZX fp+24(FP), AX
	MOVQ    $0x0001000100010001, DX
	IMULQ   DX, AX
	MOVQ    AX, X0
	PUNPCKLQDQ X0, X0           // fp in every lane
	ANDQ    $31, R10
	LEAQ    laneMask<>+64(SB), DI
	SUBQ    R10, DI
	SUBQ    R10, DI             // K at DI, K' at DI-2
	MOVQ    fps+8(FP), SI
	MOVOU   (SI), X1
	MOVOU   16(SI), X2
	MOVOU   32(SI), X3
	MOVQ    48(SI), X7          // lanes 24..27
	MOVO    X1, X4
	PSLLO   $2, X4              // lanes shifted up: word 0
	MOVO    X1, X8
	PSRLO   $14, X8
	MOVO    X2, X5
	PSLLO   $2, X5
	POR     X8, X5              // word 1
	MOVO    X2, X8
	PSRLO   $14, X8
	MOVO    X3, X6
	PSLLO   $2, X6
	POR     X8, X6              // word 2
	MOVO    X3, X8
	PSRLO   $14, X8
	MOVO    X7, X10
	PSLLO   $2, X10
	POR     X8, X10             // tail; lane 27 falls off at the store
	MOVOU   -2(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X4)
	MOVOU   (DI), X8
	BLEND(X8, X1, X4)
	MOVOU   14(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X5)
	MOVOU   16(DI), X8
	BLEND(X8, X2, X5)
	MOVOU   30(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X6)
	MOVOU   32(DI), X8
	BLEND(X8, X3, X6)
	MOVQ    46(DI), X8
	MOVO    X0, X9
	BLEND(X8, X9, X10)
	MOVQ    48(DI), X8
	BLEND(X8, X7, X10)
	MOVOU   X4, (SI)
	MOVOU   X5, 16(SI)
	MOVOU   X6, 32(SI)
	MOVQ    X10, 48(SI)
	RET

// func remove8Asm(lo, hiSel, hiLog uint64, fps *[6]uint64, bucket uint, bcast uint64) (newLo, newHi uint64, z int)
TEXT ·remove8Asm(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ    lo+0(FP), R12
	MOVQ    hiSel+8(FP), R13
	MOVQ    fps+24(FP), SI
	MOVQ    bucket+32(FP), BX
	MOVQ    bcast+40(FP), X0
	PUNPCKLQDQ X0, X0
	MOVOU   (SI), X1
	MOVOU   16(SI), X2
	MOVOU   32(SI), X3
	MOVO    X1, X4
	MOVO    X2, X5
	MOVO    X3, X6
	PCMPEQB X0, X4
	PCMPEQB X0, X5
	PCMPEQB X0, X6
	PMOVMSKB X4, R14
	PMOVMSKB X5, R11
	SHLQ    $16, R11
	ORQ     R11, R14
	PMOVMSKB X6, R11
	SHLQ    $32, R11
	ORQ     R11, R14            // lane matches
	SELECT128(R12, R13, R11)
	SUBQ    BX, R11             // end
	MOVQ    R12, R9
	MOVQ    R13, R10
	ADDQ    R9, R9
	ADCQ    R10, R10
	ORQ     $1, R9
	SELECT128(R9, R10, AX)
	SUBQ    BX, AX              // start
	MOVQ    $-1, R9
	SHLXQ   AX, R9, AX
	BZHIQ   R11, AX, AX
	ANDQ    R14, AX             // matches in [start, end)
	JEQ     absent8
	TZCNTQ  AX, AX              // z
	MOVQ    AX, z+64(FP)
	LEAQ    (AX)(BX*1), CX      // p = z + bucket
	MOVQ    hiLog+16(FP), R13
	MOVQ    $-1, R9
	BZHIQ   CX, R9, R10         // Mlo
	LEAQ    -64(CX), DX
	BZHIQ   DX, R9, R11         // Mhi candidate
	XORL    R8, R8
	CMPQ    CX, $64
	CMOVQCC R11, R8             // Mhi
	MOVQ    R12, DX
	SHRQ    $1, DX
	MOVQ    R13, R9
	SHLQ    $63, R9
	ORQ     R9, DX              // low word of (hi:lo) >> 1
	ANDNQ   DX, R10, DX
	ANDQ    R10, R12
	ORQ     DX, R12             // new lo
	MOVQ    R13, DX
	SHRQ    $1, DX
	ANDNQ   DX, R8, DX
	ANDQ    R8, R13
	ORQ     DX, R13             // new hi
	MOVQ    R12, newLo+48(FP)
	MOVQ    R13, newHi+56(FP)

	LEAQ    laneMask<>+64(SB), DI
	SUBQ    AX, DI              // K at DI; z < 48 as the TZCNT of a nonzero 48-bit mask
	MOVO    X2, X4
	PSLLO   $15, X4
	MOVO    X1, X7
	PSRLO   $1, X7
	POR     X4, X7              // lanes shifted down: word 0
	MOVO    X3, X4
	PSLLO   $15, X4
	MOVO    X2, X8
	PSRLO   $1, X8
	POR     X4, X8              // word 1
	MOVO    X3, X9
	PSRLO   $1, X9              // word 2, zero in lane 47
	MOVOU   (DI), X4
	BLEND(X4, X1, X7)
	MOVOU   16(DI), X4
	BLEND(X4, X2, X8)
	MOVOU   32(DI), X4
	BLEND(X4, X3, X9)
	MOVOU   X7, (SI)
	MOVOU   X8, 16(SI)
	MOVOU   X9, 32(SI)
	RET

absent8:
	MOVQ    R12, newLo+48(FP)
	MOVQ    hiLog+16(FP), AX
	MOVQ    AX, newHi+56(FP)
	MOVQ    $-1, z+64(FP)
	RET

// func remove16Asm(metaSel, metaLog uint64, fps *[7]uint64, bucket uint, bcast uint64) (newMeta uint64, z int)
TEXT ·remove16Asm(SB), NOSPLIT, $0-56
	PCALIGN $64
	MOVQ    metaSel+0(FP), R12
	MOVQ    fps+16(FP), SI
	MOVQ    bucket+24(FP), BX
	MOVQ    bcast+32(FP), X0
	PUNPCKLQDQ X0, X0
	MOVOU   (SI), X1
	MOVOU   16(SI), X2
	MOVOU   32(SI), X3
	MOVQ    48(SI), X4          // lanes 24..27, zero above
	MOVO    X1, X5
	MOVO    X2, X6
	MOVO    X3, X7
	MOVO    X4, X8
	PCMPEQW X0, X5
	PCMPEQW X0, X6
	PCMPEQW X0, X7
	PCMPEQW X0, X8
	PACKSSWB X6, X5
	PACKSSWB X8, X7
	PMOVMSKB X5, R14
	PMOVMSKB X7, R11
	SHLQ    $16, R11
	ORQ     R11, R14            // lane matches
	XORL    R8, R8
	BTSQ    BX, R8              // 1 << bucket
	PDEPQ   R12, R8, R11
	TZCNTQ  R11, R11
	SUBQ    BX, R11             // end
	LEAQ    1(R12)(R12*1), R9
	PDEPQ   R9, R8, AX
	TZCNTQ  AX, AX
	SUBQ    BX, AX              // start
	MOVQ    $-1, R9
	SHLXQ   AX, R9, AX
	BZHIQ   R11, AX, AX         // end <= 28 strips lanes 28..31
	ANDQ    R14, AX
	JEQ     absent16
	TZCNTQ  AX, AX              // z
	MOVQ    AX, z+48(FP)
	LEAQ    (AX)(BX*1), CX      // p = z + bucket
	MOVQ    metaLog+8(FP), R13
	MOVQ    $-1, R9
	BZHIQ   CX, R9, R10         // M
	MOVQ    R13, DX
	SHRQ    $1, DX
	ANDNQ   DX, R10, DX
	ANDQ    R10, R13
	ORQ     DX, R13
	MOVQ    R13, newMeta+40(FP)

	LEAQ    laneMask<>+64(SB), DI
	SUBQ    AX, DI
	SUBQ    AX, DI              // K at DI; z < 32 as the TZCNT of a 32-bit mask
	MOVO    X2, X5
	PSLLO   $14, X5
	MOVO    X1, X9
	PSRLO   $2, X9
	POR     X5, X9              // lanes shifted down: word 0
	MOVO    X3, X5
	PSLLO   $14, X5
	MOVO    X2, X10
	PSRLO   $2, X10
	POR     X5, X10             // word 1
	MOVO    X4, X5
	PSLLO   $14, X5
	MOVO    X3, X11
	PSRLO   $2, X11
	POR     X5, X11             // word 2
	MOVO    X4, X12
	PSRLO   $2, X12             // tail, zero in lane 27
	MOVOU   (DI), X5
	BLEND(X5, X1, X9)
	MOVOU   16(DI), X5
	BLEND(X5, X2, X10)
	MOVOU   32(DI), X5
	BLEND(X5, X3, X11)
	MOVQ    48(DI), X5
	BLEND(X5, X4, X12)
	MOVOU   X9, (SI)
	MOVOU   X10, 16(SI)
	MOVOU   X11, 32(SI)
	MOVQ    X12, 48(SI)
	RET

absent16:
	MOVQ    metaLog+8(FP), AX
	MOVQ    AX, newMeta+40(FP)
	MOVQ    $-1, z+48(FP)
	RET

// Write commits for locked-mode blocks. The writer holds the block's lock
// bit, taken with a LOCK CMPXCHG (a full barrier), and has prepared the
// block's new words on its stack. The commit publishes them in this order:
//
//	1. every word except the lock word (Block8: the fingerprint words and
//	   MetaLo; Block16: the fingerprint words), with plain MOVs;
//	2. LOCK XADD of the block's version stripe;
//	3. the lock word, once, with the lock bit clear.
//
// x86-TSO never reorders a store with an earlier store, so a reader that
// sees the lock word of step 3 also sees every store of steps 1 and 2, and
// a reader that loads any word of step 1 before step 3 is visible sees the
// lock bit at its post-check or the moved stripe at its version re-read
// (Snapshot and probeLocked8Asm/probeLocked16Asm load in that order). The
// race detector does not see these stores; commit8Generic and
// commit16Generic are the instrumented reference.

// func commit8Asm(b *Block8, fps *[6]uint64, lo, hi uint64, seq *atomic.Uint64)
TEXT ·commit8Asm(SB), NOSPLIT, $0-40
	MOVQ    b+0(FP), DI
	MOVQ    fps+8(FP), SI
	MOVQ    0(SI), AX           // 1. fingerprint words
	MOVQ    AX, 16(DI)
	MOVQ    8(SI), AX
	MOVQ    AX, 24(DI)
	MOVQ    16(SI), AX
	MOVQ    AX, 32(DI)
	MOVQ    24(SI), AX
	MOVQ    AX, 40(DI)
	MOVQ    32(SI), AX
	MOVQ    AX, 48(DI)
	MOVQ    40(SI), AX
	MOVQ    AX, 56(DI)
	MOVQ    lo+16(FP), AX
	MOVQ    AX, 0(DI)           //    and MetaLo
	MOVQ    seq+32(FP), SI
	MOVL    $1, AX
	LOCK
	XADDQ   AX, (SI)            // 2. version stripe
	MOVQ    hi+24(FP), AX
	MOVQ    AX, 8(DI)           // 3. MetaHi, lock bit clear
	RET

// func commit16Asm(b *Block16, fps *[7]uint64, meta uint64, seq *atomic.Uint64)
TEXT ·commit16Asm(SB), NOSPLIT, $0-32
	MOVQ    b+0(FP), DI
	MOVQ    fps+8(FP), SI
	MOVQ    0(SI), AX           // 1. fingerprint words
	MOVQ    AX, 8(DI)
	MOVQ    8(SI), AX
	MOVQ    AX, 16(DI)
	MOVQ    16(SI), AX
	MOVQ    AX, 24(DI)
	MOVQ    24(SI), AX
	MOVQ    AX, 32(DI)
	MOVQ    32(SI), AX
	MOVQ    AX, 40(DI)
	MOVQ    40(SI), AX
	MOVQ    AX, 48(DI)
	MOVQ    48(SI), AX
	MOVQ    AX, 56(DI)
	MOVQ    seq+24(FP), SI
	MOVL    $1, AX
	LOCK
	XADDQ   AX, (SI)            // 2. version stripe
	MOVQ    meta+16(FP), AX
	MOVQ    AX, 0(DI)           // 3. Meta, lock bit clear
	RET

// func unlockAsm(w *uint64)
//
// Releases a lock word the caller holds and did not change: one plain
// store, ordered after the holder's loads and stores by x86-TSO.
TEXT ·unlockAsm(SB), NOSPLIT, $0-8
	MOVQ    w+0(FP), DI
	MOVQ    (DI), AX
	BTRQ    $63, AX
	MOVQ    AX, (DI)
	RET
