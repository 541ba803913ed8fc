package minifilter

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"vqf/internal/swar"
)

// Lock-free optimistic reads (seqlock style). A reader never acquires the
// block lock on the common path: it copies the block with atomic word loads
// and validates that no writer overlapped the copy, retrying (and eventually
// falling back to the lock) on conflict. Writers keep the lock bit set
// through their atomic write-back and bump an external version counter
// before releasing it (Block8.UnlockBump), which gives readers two conflict
// signals:
//
//   - the lock bit, observed before the copy and again after it, catches any
//     writer active while the copy was in flight;
//   - the version counter, read before the lock-bit pre-check and re-read
//     after the lock-bit post-check, catches any writer that ran to
//     completion inside the window.
//
// The explicit version is what defeats the ABA hazard: a remove-then-insert
// on the same bucket restores bit-identical metadata words while changing
// fingerprint bytes, so revalidating the metadata alone would accept a torn
// snapshot. Every mutation bumps the (monotonic, 64-bit) version, so the
// reader's version check fails no matter how the words compare.
//
// Validation order matters. snapRead loads the version BEFORE the lock-bit
// check and the copy; snapValidate re-checks the lock bit BEFORE re-reading
// the version. For any writer storing during the copy window: if it had the
// lock at the pre-check the reader bailed immediately; if it still holds the
// lock at the post-check the reader sees the bit; and if it released in
// between, its version bump (which precedes release) lands between the two
// version reads. A writer that completed entirely before the version
// pre-read finished its stores before the copy began, so the snapshot is
// consistent. Go's sync/atomic operations are sequentially consistent, which
// is what makes these orderings global.
//
// The version counters live outside the 64-byte blocks (there is no spare
// bit inside) and are owned by the concurrent filters in internal/core,
// striped across blocks; sharing a stripe only causes spurious retries,
// never missed conflicts.

// optRetries bounds optimistic attempts before falling back to the lock. A
// conflict means a writer is active on the block (or a stripe neighbor), so
// the reader yields between attempts rather than spinning.
const optRetries = 4

// OptRetryBudget is the per-read retry budget (optRetries), exported for
// callers that reason about retry/fallback counter accounting: a read that
// fell back reports exactly this many retries.
const OptRetryBudget = optRetries

// Snap8 is a reader's private point-in-time copy of a locked-mode Block8,
// filled by Block8.Snapshot. Its metadata is in the locked-mode logical
// form (top bit forced to 1), so it is probed with the same fused kernel the
// plain and locked paths use. ver is the version snapRead observed.
type Snap8 struct {
	lo, hi uint64
	fps    [swar.Words8]uint64
	ver    uint64
}

// snapRead copies the block without taking the lock. It fails if a writer
// holds the lock bit. On success the copy must still be checked with
// snapValidate before use.
func (b *Block8) snapRead(seq *atomic.Uint64, s *Snap8) bool {
	s.ver = seq.Load()
	hi := atomic.LoadUint64(&b.MetaHi)
	if hi&lockBit != 0 {
		return false
	}
	s.hi = hi | lockBit
	s.lo = atomic.LoadUint64(&b.MetaLo)
	for i := range s.fps {
		s.fps[i] = atomic.LoadUint64(&b.Fps[i])
	}
	return true
}

// snapValidate reports whether the copy taken by snapRead is consistent:
// no writer was active at any point during the copy.
func (b *Block8) snapValidate(seq *atomic.Uint64, s *Snap8) bool {
	if atomic.LoadUint64(&b.MetaHi)&lockBit != 0 {
		return false
	}
	return seq.Load() == s.ver
}

// Snapshot fills s with a consistent copy of the block without taking the
// lock in the common case: it copies the block and validates the copy
// against the version stripe seq. After optRetries conflicts it copies the
// block under its lock instead, so the read always terminates even under a
// continuous writer storm. It reports the conflicted attempts (retries) and
// whether the budget ran out (fellBack); the counts feed the
// internal/stats counters. Every optimistic read — lookups, instance
// counts, iteration and occupancy — goes through it.
func (b *Block8) Snapshot(seq *atomic.Uint64, s *Snap8) (retries uint, fellBack bool) {
	for i := 0; i < optRetries; i++ {
		if b.snapRead(seq, s) && b.snapValidate(seq, s) {
			return uint(i), false
		}
		runtime.Gosched()
	}
	b.Lock()
	s.lo, s.hi = b.metaLocked()
	s.fps = b.Fps // plain read is safe under the lock
	b.Unlock()
	return optRetries, true
}

// Probe returns the slot match mask of the pre-broadcast fingerprint within
// bucket of the copied block; see Block8.Probe.
func (s *Snap8) Probe(bucket uint, bcast uint64) uint64 {
	return probe8(s.lo, s.hi, &s.fps, bucket, bcast)
}

// OccupancySnapshot returns the block occupancy from a Snapshot.
func (b *Block8) OccupancySnapshot(seq *atomic.Uint64) uint {
	var s Snap8
	b.Snapshot(seq, &s)
	return occupancy128(s.lo, s.hi)
}

// Snap16 is a reader's private copy of a locked-mode Block16; see Snap8.
type Snap16 struct {
	meta uint64
	fps  [swar.Words16]uint64
	ver  uint64
}

// snapRead copies the block without taking the lock; see Block8.snapRead.
func (b *Block16) snapRead(seq *atomic.Uint64, s *Snap16) bool {
	s.ver = seq.Load()
	meta := atomic.LoadUint64(&b.Meta)
	if meta&lockBit != 0 {
		return false
	}
	s.meta = meta | lockBit
	for i := range s.fps {
		s.fps[i] = atomic.LoadUint64(&b.Fps[i])
	}
	return true
}

// snapValidate reports whether the copy taken by snapRead is consistent.
func (b *Block16) snapValidate(seq *atomic.Uint64, s *Snap16) bool {
	if atomic.LoadUint64(&b.Meta)&lockBit != 0 {
		return false
	}
	return seq.Load() == s.ver
}

// Snapshot fills s with a consistent copy of the block; see
// Block8.Snapshot.
func (b *Block16) Snapshot(seq *atomic.Uint64, s *Snap16) (retries uint, fellBack bool) {
	for i := 0; i < optRetries; i++ {
		if b.snapRead(seq, s) && b.snapValidate(seq, s) {
			return uint(i), false
		}
		runtime.Gosched()
	}
	b.Lock()
	s.meta = b.metaLocked()
	s.fps = b.Fps
	b.Unlock()
	return optRetries, true
}

// Probe returns the slot match mask within bucket of the copied block; see
// Block8.Probe.
func (s *Snap16) Probe(bucket uint, bcast uint64) uint64 {
	return probe16(s.meta, &s.fps, bucket, bcast)
}

// OccupancySnapshot returns the block occupancy from a Snapshot.
func (b *Block16) OccupancySnapshot(seq *atomic.Uint64) uint {
	var s Snap16
	b.Snapshot(seq, &s)
	return occupancy64(s.meta)
}

// LockedArray is one locked-mode block array with its seqlock version
// stripes, as the validated batch kernels (ProbeLocked8/16) read it: a
// concurrent filter is a one-entry table of them, a sharded filter one
// entry per shard. Build entries with NewLockedArray, which checks what the
// kernels rely on: both lengths are powers of two, so every masked index
// stays inside its array whatever the hash.
type LockedArray struct {
	blocks  unsafe.Pointer // first of mask+1 64-byte blocks
	mask    uint64
	seqs    *atomic.Uint64 // first of seqMask+1 version stripes
	seqMask uint64
}

// The kernels index table entries by their 32-byte stride and read the
// fields at fixed offsets.
var (
	_ [0]struct{} = [unsafe.Sizeof(LockedArray{}) - 32]struct{}{}
	_ [0]struct{} = [unsafe.Offsetof(LockedArray{}.seqMask) - 24]struct{}{}
)

// NewLockedArray describes blocks and its version stripes seqs (the array
// UnlockBump bumps, block i on stripe i & (len(seqs)-1)) as a table entry.
// It panics unless both are non-empty powers of two in length.
func NewLockedArray[B Block8 | Block16](blocks []B, seqs []atomic.Uint64) LockedArray {
	nb, ns := len(blocks), len(seqs)
	if nb == 0 || nb&(nb-1) != 0 || ns == 0 || ns&(ns-1) != 0 {
		panic("minifilter: a locked array needs power-of-two block and stripe counts")
	}
	return LockedArray{unsafe.Pointer(&blocks[0]), uint64(nb - 1), &seqs[0], uint64(ns - 1)}
}
