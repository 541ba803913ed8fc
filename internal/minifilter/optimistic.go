package minifilter

import (
	"runtime"
	"sync/atomic"

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

// snap8 is an optimistic reader's private copy of a Block8, plus the version
// observed before the copy. Fields hold the locked-mode logical form (top
// metadata bit forced to 1); fps is the word-native fingerprint array,
// probed with the same fused kernel the plain and locked paths use.
type snap8 struct {
	lo, hi uint64
	fps    [swar.Words8]uint64
	ver    uint64
}

// snapRead copies the block without taking the lock. It fails if a writer
// holds the lock bit. On success the copy must still be checked with
// snapValidate before use.
func (b *Block8) snapRead(seq *atomic.Uint64, s *snap8) bool {
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
func (b *Block8) snapValidate(seq *atomic.Uint64, s *snap8) bool {
	if atomic.LoadUint64(&b.MetaHi)&lockBit != 0 {
		return false
	}
	return seq.Load() == s.ver
}

// ContainsOptimistic reports whether fp is present in bucket without taking
// the block lock in the common case: it snapshots the block against the
// version stripe seq and scans the private copy. After optRetries conflicts
// it falls back to a locked scan, so the operation always terminates even
// under a continuous writer storm.
func (b *Block8) ContainsOptimistic(seq *atomic.Uint64, bucket uint, fp byte) bool {
	found, _, _ := b.ContainsOptimisticCountedB(seq, bucket, swar.BroadcastByte(fp))
	return found
}

// ContainsOptimisticCounted is ContainsOptimistic reporting how the read
// resolved: retries is the number of conflicted snapshot attempts, and
// fellBack is true when the retry budget was exhausted and the scan ran
// under the block lock. The counts feed the internal/stats counters.
func (b *Block8) ContainsOptimisticCounted(seq *atomic.Uint64, bucket uint, fp byte) (found bool, retries uint, fellBack bool) {
	return b.ContainsOptimisticCountedB(seq, bucket, swar.BroadcastByte(fp))
}

// ContainsOptimisticCountedB is ContainsOptimisticCounted with a
// pre-broadcast fingerprint, so a two-block probe broadcasts once.
func (b *Block8) ContainsOptimisticCountedB(seq *atomic.Uint64, bucket uint, bcast uint64) (found bool, retries uint, fellBack bool) {
	var s snap8
	for i := 0; i < optRetries; i++ {
		if b.snapRead(seq, &s) && b.snapValidate(seq, &s) {
			return probe8(s.lo, s.hi, &s.fps, bucket, bcast) != 0, uint(i), false
		}
		runtime.Gosched()
	}
	b.Lock()
	found = b.ContainsLockedB(bucket, bcast)
	b.Unlock()
	return found, optRetries, true
}

// OccupancyOptimistic returns the block occupancy from a validated lock-free
// read of the metadata words. ok is false after repeated conflicts; the
// caller should then fall back to its locked path.
func (b *Block8) OccupancyOptimistic(seq *atomic.Uint64) (occ uint, ok bool) {
	for i := 0; i < optRetries; i++ {
		ver := seq.Load()
		hi := atomic.LoadUint64(&b.MetaHi)
		if hi&lockBit == 0 {
			lo := atomic.LoadUint64(&b.MetaLo)
			if atomic.LoadUint64(&b.MetaHi)&lockBit == 0 && seq.Load() == ver {
				return occupancy128(lo, hi|lockBit), true
			}
		}
		runtime.Gosched()
	}
	return 0, false
}

// snap16 is an optimistic reader's private copy of a Block16; see snap8.
type snap16 struct {
	meta uint64
	fps  [swar.Words16]uint64
	ver  uint64
}

// snapRead copies the block without taking the lock; see Block8.snapRead.
func (b *Block16) snapRead(seq *atomic.Uint64, s *snap16) bool {
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
func (b *Block16) snapValidate(seq *atomic.Uint64, s *snap16) bool {
	if atomic.LoadUint64(&b.Meta)&lockBit != 0 {
		return false
	}
	return seq.Load() == s.ver
}

// ContainsOptimistic is the lock-free lookup; see Block8.ContainsOptimistic.
func (b *Block16) ContainsOptimistic(seq *atomic.Uint64, bucket uint, fp uint16) bool {
	found, _, _ := b.ContainsOptimisticCountedB(seq, bucket, swar.BroadcastU16(fp))
	return found
}

// ContainsOptimisticCounted is the counted lock-free lookup; see
// Block8.ContainsOptimisticCounted.
func (b *Block16) ContainsOptimisticCounted(seq *atomic.Uint64, bucket uint, fp uint16) (found bool, retries uint, fellBack bool) {
	return b.ContainsOptimisticCountedB(seq, bucket, swar.BroadcastU16(fp))
}

// ContainsOptimisticCountedB is the counted lock-free lookup with a
// pre-broadcast fingerprint; see Block8.ContainsOptimisticCountedB.
func (b *Block16) ContainsOptimisticCountedB(seq *atomic.Uint64, bucket uint, bcast uint64) (found bool, retries uint, fellBack bool) {
	var s snap16
	for i := 0; i < optRetries; i++ {
		if b.snapRead(seq, &s) && b.snapValidate(seq, &s) {
			return probe16(s.meta, &s.fps, bucket, bcast) != 0, uint(i), false
		}
		runtime.Gosched()
	}
	b.Lock()
	found = b.ContainsLockedB(bucket, bcast)
	b.Unlock()
	return found, optRetries, true
}

// OccupancyOptimistic is the lock-free occupancy probe; see
// Block8.OccupancyOptimistic.
func (b *Block16) OccupancyOptimistic(seq *atomic.Uint64) (occ uint, ok bool) {
	for i := 0; i < optRetries; i++ {
		ver := seq.Load()
		meta := atomic.LoadUint64(&b.Meta)
		if meta&lockBit == 0 {
			if atomic.LoadUint64(&b.Meta)&lockBit == 0 && seq.Load() == ver {
				return occupancy64(meta | lockBit), true
			}
		}
		runtime.Gosched()
	}
	return 0, false
}
