//go:build !amd64 || purego

package minifilter

import (
	"sync/atomic"

	"vqf/internal/swar"
)

// Builds without the fused assembly kernels (another GOARCH, or -tags
// purego) run the generic kernels; see kernel_amd64.go.

const hasAsm = false

func probe8(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) uint64 {
	return probe8Generic(lo, hi, fps, bucket, bcast)
}

func probe16(meta uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) uint64 {
	return probe16Generic(meta, fps, bucket, bcast)
}

func commit8(b *Block8, fps *[swar.Words8]uint64, lo, hi uint64, seq *atomic.Uint64) {
	commit8Generic(b, fps, lo, hi, seq)
}

func commit16(b *Block16, fps *[swar.Words16]uint64, meta uint64, seq *atomic.Uint64) {
	commit16Generic(b, fps, meta, seq)
}

func unlock(w *uint64) { unlockGeneric(w) }

// ProbeBatch8 has no portable body: the batch kernel is assembly only, so
// it reports false and the caller loops over its per-key Contains.
func ProbeBatch8(blocks []Block8, hs []uint64, out []bool) bool { return false }

// ProbeBatch16 is ProbeBatch8 for Block16 arrays.
func ProbeBatch16(blocks []Block16, hs []uint64, out []bool) bool { return false }

// ProbeLocked8 has no portable body either: it reports false and the caller
// answers every key through its per-key optimistic path.
func ProbeLocked8(tab []LockedArray, hs []uint64, out []bool) (int, bool) { return 0, false }

// ProbeLocked16 is ProbeLocked8 for Block16 arrays.
func ProbeLocked16(tab []LockedArray, hs []uint64, out []bool) (int, bool) { return 0, false }
