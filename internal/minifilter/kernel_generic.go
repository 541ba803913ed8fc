//go:build !amd64 || purego

package minifilter

import "vqf/internal/swar"

// Builds without the fused assembly kernels (another GOARCH, or -tags
// purego) run the generic kernels; see kernel_amd64.go.

const hasAsm = false

func probe8(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) uint64 {
	return probe8Generic(lo, hi, fps, bucket, bcast)
}

func probe16(meta uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) uint64 {
	return probe16Generic(meta, fps, bucket, bcast)
}

// ProbeBatch8 has no portable body: the batch kernel is assembly only, so
// it reports false and the caller loops over its per-key Contains.
func ProbeBatch8(blocks []Block8, hs []uint64, out []bool) bool { return false }

// ProbeBatch16 is ProbeBatch8 for Block16 arrays.
func ProbeBatch16(blocks []Block16, hs []uint64, out []bool) bool { return false }
