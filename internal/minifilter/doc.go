// Package minifilter implements the vector quotient filter's blocks
// (Section 3.2 of the paper): each block is itself a small quotient filter —
// a "mini-filter" — consisting of b logical buckets, s fingerprint slots, and
// b+s metadata bits that record, in unary, how many fingerprints each bucket
// holds. Fingerprints are stored in bucket order, so the k-th bucket's run is
// located with a select on the metadata word.
//
// Two concrete geometries are provided, both exactly one 64-byte cache line,
// mirroring the paper's Section 6.1 parameter choices:
//
//   - Block8:  8-bit fingerprints, s = 48 slots, b = 80 buckets, 128 metadata
//     bits. Per-block false-positive rate (s/b)·2⁻⁸, filter target ε ≈ 2⁻⁸.
//   - Block16: 16-bit fingerprints, s = 28 slots, b = 36 buckets, 64 metadata
//     bits. Filter target ε ≈ 2⁻¹⁶.
//
// All operations run in a constant number of word operations: select on the
// metadata (the PDEP trick of Section 3.3), a compare over the fingerprint
// lanes (the VPCMPB analog), and a single in-block shift (the VPERMB
// analog). On amd64 with BMI2 they are assembly kernels (PDEP select, SSE2
// compare and shift); elsewhere, or with SetAsmKernels(false), they are
// portable Go bodies (broadword select, SWAR compare and shift). The two
// agree bit for bit, and the pair is the analog of the paper's Section 7.7
// AVX-512-vs-AVX2 comparison (vqfbench ablation).
//
// The top metadata bit of each block (bit b+s−1) doubles as a spin-lock bit
// for the thread-safe filter (Section 6.3): it is only ever 1 in unlocked
// state when the block is completely full, in which case it coincides with
// the final bucket terminator. Lock-aware operation variants preserve it.
package minifilter
