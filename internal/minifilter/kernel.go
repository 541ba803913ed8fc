package minifilter

import (
	"math/bits"
	"sync/atomic"

	"vqf/internal/bitvec"
	"vqf/internal/swar"
	"vqf/internal/telemetry"
)

// Kernel dispatch. Every bucket search — lookup, remove, and the
// slot-reporting variants, in plain, locked and optimistic mode — runs
// probe8/probe16, and every locked-mode write commits through
// commit8/commit16 (locked.go). On amd64 (without purego) on a CPU with
// BMI1, BMI2 and POPCNT those are assembly routines (kernel_amd64.s);
// everywhere else, or with the assembly switched off, they are the portable
// bodies (probe8Generic/probe16Generic, commit8Generic/commit16Generic),
// which are also the differential reference the parity tests compare the
// assembly against.
//
// The switch is a package-level atomic so one process can benchmark both
// paths (vqfbench -kernels-impl, the asm-vs-generic regression gate) and so
// toggling under -race tests is sound. It is read once per kernel call; the
// load is a plain MOV on amd64 and the branch predicts perfectly.

// useAsm holds whether the assembly kernels are selected. It is only ever
// true when hasAsm is.
var useAsm atomic.Bool

func init() { SetAsmKernels(true) }

// AsmSupported reports whether the assembly kernels can run here: an amd64
// build without the purego tag, on a CPU with BMI1, BMI2 and POPCNT.
func AsmSupported() bool { return hasAsm }

// AsmEnabled reports whether the assembly kernels are currently selected.
func AsmEnabled() bool { return useAsm.Load() }

// SetAsmKernels selects between the assembly and generic kernels and
// reports the resulting state: enabling has no effect where AsmSupported is
// false. Each call records the selection (A = enabled, B = supported) as an
// asm-dispatch event in the global ring, so a process's event stream shows
// which implementation its numbers came from. Intended for benchmarks,
// parity gates and tests; concurrent use with running filter operations is
// safe (operations observe one implementation or the other, which agree
// bit for bit).
func SetAsmKernels(enable bool) bool {
	on := enable && hasAsm
	useAsm.Store(on)
	telemetry.Global().Record(telemetry.EvAsmDispatch, b2u(on), b2u(hasAsm), 0)
	return on
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Hot-path kernels. Each kernel takes a block's *logical* metadata
// words explicitly — the plain paths pass the stored words, the locked paths
// pass the lock-bit-adjusted form, and the optimistic paths pass a validated
// snapshot — so one zero-allocation implementation serves Contains, Insert,
// and Remove across all execution modes. A kernel computes the metadata
// select, the bucket's slot-range offsets, and the SWAR match or funnel shift
// in a single pass; the fingerprint target arrives pre-broadcast so a
// two-block probe pays for one broadcast.

// probe8Generic returns the match mask of the pre-broadcast fingerprint
// within bucket: bit i is set iff slot i belongs to bucket and holds the
// fingerprint. An empty bucket yields an empty range mask, so no branch is
// needed for that case.
//
// This is the portable body behind probe8, which is build-tagged: on amd64
// (without purego) kernel_amd64.go dispatches to a fused assembly kernel that
// folds the metadata select and the lane match into one routine, falling back
// here when the assembly kernels are unsupported or switched off; everywhere
// else kernel_generic.go aliases probe8 to this directly.
func probe8Generic(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) uint64 {
	start, end := bucketRange128(lo, hi, bucket)
	return swar.Match48Range(fps, bcast, start, end)
}

// probe16Generic is the 16-bit-fingerprint analog of probe8Generic.
func probe16Generic(meta uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) uint64 {
	start, end := bucketRange64(meta, bucket)
	return swar.Match28Range(fps, bcast, start, end)
}

// insertSlot8 makes room for fp at the head of bucket and stores it, mutating
// fps in place, and returns the updated metadata words plus the slot index
// used. The funnel shift moves the whole lane tail, so occupancy is not
// needed here — the caller must have verified the block is not full (lanes at
// and above occupancy are zero, so nothing real falls off the top).
func insertSlot8(lo, hi uint64, fps *[swar.Words8]uint64, bucket uint, fp byte) (newLo, newHi uint64, z int) {
	m := bitvec.Select128(lo, hi, bucket)
	z = int(m - bucket)
	swar.InsertLane8(fps, z, fp)
	newLo, newHi = bitvec.InsertZero128(lo, hi, m)
	return
}

// insertSlot16 is the 16-bit-fingerprint analog of insertSlot8.
func insertSlot16(meta uint64, fps *[swar.Words16]uint64, bucket uint, fp uint16) (newMeta uint64, z int) {
	m := bitvec.Select64(meta, bucket)
	z = int(m - bucket)
	swar.InsertLane16(fps, z, fp)
	return bitvec.InsertZero64(meta, m), z
}

// removeSlot8 deletes one instance of the pre-broadcast fingerprint from
// bucket, mutating fps in place, and returns the updated metadata words plus
// the slot index freed — or z = −1 with fps untouched when the fingerprint is
// absent. hiSel is the select form of the high word (top bit forced in locked
// mode); hiLog is the arithmetic form fed to the metadata shift (top bit set
// only when it is a real terminator, i.e. the block is full). Plain callers
// pass the stored word for both. The down shift feeds zero at the top, so
// the freed lane needs no explicit clear and occupancy is not consulted.
func removeSlot8(lo, hiSel, hiLog uint64, fps *[swar.Words8]uint64, bucket uint, bcast uint64) (newLo, newHi uint64, z int) {
	mask := probe8(lo, hiSel, fps, bucket, bcast)
	if mask == 0 {
		return lo, hiLog, -1
	}
	z = bits.TrailingZeros64(mask)
	swar.RemoveLane8(fps, z)
	newLo, newHi = bitvec.RemoveBit128(lo, hiLog, uint(z)+bucket)
	return
}

// removeSlot16 is the 16-bit-fingerprint analog of removeSlot8.
func removeSlot16(metaSel, metaLog uint64, fps *[swar.Words16]uint64, bucket uint, bcast uint64) (newMeta uint64, z int) {
	mask := probe16(metaSel, fps, bucket, bcast)
	if mask == 0 {
		return metaLog, -1
	}
	z = bits.TrailingZeros64(mask)
	swar.RemoveLane16(fps, z)
	return bitvec.RemoveBit64(metaLog, uint(z)+bucket), z
}
