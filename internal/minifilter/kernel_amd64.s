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
// probed with no data-dependent branch, so the only branch per key is the
// loop's own and out-of-order execution overlaps independent keys.
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
// Registers: DI blocks, SI/R9 one past the end of hs/out, CX the negative
// remaining count, BX bucket, AX and R10 the two block byte offsets (each
// then holds its block's match mask), X0 the broadcast fingerprint; DX, R8
// and R11-R15 are scratch. The 16-bit loop keeps 1 << bucket in R8.

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

// PROBE8(off): off = match mask of X0 within bucket BX of the Block8 at
// DI+off (MetaLo at 0, MetaHi at 8, fingerprint bytes at 16..63).
#define PROBE8(off) \
	MOVQ     0(DI)(off*1), R12; \
	MOVQ     8(DI)(off*1), R13; \
	MATCH8(off)

// MATCH8(off): the body of PROBE8 once the metadata words are in R12 (lo)
// and R13 (hi): load the fingerprint lanes, compare, select the range.
#define MATCH8(off) \
	MOVOU    16(DI)(off*1), X1; \
	MOVOU    32(DI)(off*1), X2; \
	MOVOU    48(DI)(off*1), X3; \
	PCMPEQB  X0, X1; \
	PCMPEQB  X0, X2; \
	PCMPEQB  X0, X3; \
	PMOVMSKB X1, R14; \
	PMOVMSKB X2, R11; \
	SHLQ     $16, R11; \
	ORQ      R11, R14; \
	PMOVMSKB X3, R11; \
	SHLQ     $32, R11; \
	ORQ      R11, R14; \
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

// func probeBatch8Asm(blocks *Block8, mask uint64, hs *uint64, out *bool, n int)
TEXT ·probeBatch8Asm(SB), NOSPLIT, $0-40
	MOVQ    blocks+0(FP), DI
	MOVQ    hs+16(FP), SI
	MOVQ    out+24(FP), R9
	MOVQ    n+32(FP), CX
	TESTQ   CX, CX
	JLE     done8
	LEAQ    (SI)(CX*8), SI
	ADDQ    CX, R9
	NEGQ    CX

loop8:
	MOVQ    (SI)(CX*8), AX      // h
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
	ANDQ    mask+8(FP), AX      // b1
	XORQ    AX, R10
	ANDQ    mask+8(FP), R10     // b2 = (b1 ^ tag*Murmur3Mul) & mask
	SHLQ    $6, AX
	SHLQ    $6, R10
	MOVQ    $0x0101010101010101, R11
	IMULQ   R11, DX
	MOVQ    DX, X0
	PUNPCKLQDQ X0, X0
	PROBE8(AX)
	PROBE8(R10)
	ORQ     R10, AX
	SETNE   (R9)(CX*1)
	INCQ    CX
	JNE     loop8

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
// x86-TSO keeps loads in program order and writers publish with locked
// instructions, so plain MOVs are the acquire loads the protocol needs (Go's
// atomic loads are the same MOVs). The answer stands if no lock bit was set
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
