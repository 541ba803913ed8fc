package minifilter

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"vqf/internal/bitvec"
	"vqf/internal/swar"
)

// Thread-safe block operations (paper §6.3). The top metadata bit — bit 63 of
// Block8.MetaHi, bit 63 of Block16.Meta — is a spin-lock bit. In this mode
// the stored top bit is *only* the lock flag; every metadata read forces it
// to 1, which is harmless when the block is not full (the forced bit lies
// above all bucket terminators) and exactly reconstructs the final bucket
// terminator when it is ("treat it as though it were 1 in the bucket-size
// bitvector"). Locks are acquired with compare-and-swap, the analog of the
// paper's __sync_fetch_and_or.
//
// A write runs in three steps: take the lock (Lock), prepare the block's new
// words on a private copy while holding it, then commit them and release the
// lock in one call (InsertUnlock, RemoveUnlock). The commit stores every word
// except the lock word, bumps the block's seqlock version stripe, and stores
// the lock word last, once, with the lock bit clear, so lock-free optimistic
// readers (see optimistic.go) that overlap it see the held lock bit or the
// moved version. On amd64 the commit is a short assembly routine of plain
// MOVs around one LOCK XADD: under x86-TSO the lock's CAS orders the data
// stores after the acquisition and stores are never reordered with one
// another, which is all the readers' validation needs (kernel_amd64.s spells
// the argument out). The portable body (commit8Generic, commit16Generic)
// publishes with sync/atomic word stores instead: under the Go memory model
// a plain store racing an atomic load is a data race even when a seqlock
// discards the torn value, and it is the body the race detector checks.
// Lock holders may still *read* their own block with plain loads (loads never
// race with loads, and no other thread stores while the lock is held).

const lockBit = uint64(1) << 63

// LockBit exposes the locked-mode lock flag (the top metadata bit) to
// internal/core, whose serializer converts between the locked and plain
// metadata conventions.
const LockBit = lockBit

// The locked-mode protocol depends on blocks being exactly one 64-byte cache
// line with word-aligned fingerprint storage; both are asserted at compile
// time.
var (
	_ [0]struct{} = [unsafe.Offsetof(Block8{}.Fps) % 8]struct{}{}
	_ [0]struct{} = [unsafe.Offsetof(Block16{}.Fps) % 8]struct{}{}
	_ [0]struct{} = [64 - unsafe.Sizeof(Block8{})]struct{}{}
	_ [0]struct{} = [64 - unsafe.Sizeof(Block16{})]struct{}{}
)

// TryLock attempts to acquire the block's lock bit; it reports success.
func (b *Block8) TryLock() bool {
	old := atomic.LoadUint64(&b.MetaHi)
	if old&lockBit != 0 {
		return false
	}
	return atomic.CompareAndSwapUint64(&b.MetaHi, old, old|lockBit)
}

// Lock spins until the block's lock bit is acquired.
func (b *Block8) Lock() {
	for i := 0; ; i++ {
		if b.TryLock() {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

// Unlock releases the block's lock bit. The caller must hold it and must not
// have changed the block: a mutation is released by its commit.
func (b *Block8) Unlock() { unlock(&b.MetaHi) }

// unlockGeneric is the portable body of unlock: it clears the lock bit of
// the held lock word w with an atomic store.
func unlockGeneric(w *uint64) {
	atomic.StoreUint64(w, atomic.LoadUint64(w)&^lockBit)
}

// metaLocked returns the logical metadata words while the lock is held (or
// for a read that tolerates tearing, such as the shortcut occupancy probe):
// the stored words with the top bit forced to 1.
func (b *Block8) metaLocked() (uint64, uint64) {
	return b.MetaLo, atomic.LoadUint64(&b.MetaHi) | lockBit
}

// occupancy128 computes the locked-mode occupancy from explicit metadata
// words: with the lock bit stripped, a full block shows only 79 terminators
// (its final terminator is represented by the forced top bit); otherwise all
// 80 are stored and the highest one gives the occupancy.
func occupancy128(lo, hi uint64) uint {
	hiReal := hi &^ lockBit
	if bits.OnesCount64(lo)+bits.OnesCount64(hiReal) == B8Buckets-1 {
		return B8Slots
	}
	if hiReal != 0 {
		return 64 + uint(bits.Len64(hiReal)) - B8Buckets
	}
	return uint(bits.Len64(lo)) - B8Buckets
}

// OccupancyLocked returns the block occupancy under the locked-mode metadata
// convention; see occupancy128.
func (b *Block8) OccupancyLocked() uint {
	lo, hi := b.metaLocked()
	return occupancy128(lo, hi)
}

// bucketRange128 computes a bucket's slot range on explicit metadata words
// (shared by the plain, locked, and optimistic paths, which read the words
// once).
func bucketRange128(lo, hi uint64, bucket uint) (start, end uint) {
	if bucket == 0 {
		if t := uint(bits.TrailingZeros64(lo)); t < 64 {
			return 0, t
		}
		return 0, 64 + uint(bits.TrailingZeros64(hi))
	}
	p := bitvec.Select128(lo, hi, bucket-1)
	var q uint
	if p < 64 {
		if rest := lo >> (p + 1) << (p + 1); rest != 0 {
			q = uint(bits.TrailingZeros64(rest))
		} else {
			q = 64 + uint(bits.TrailingZeros64(hi))
		}
	} else {
		rest := hi >> (p - 63) << (p - 63)
		q = 64 + uint(bits.TrailingZeros64(rest))
	}
	return p - bucket + 1, q - bucket
}

// ContainsLocked reports whether fp is present in bucket. The caller must
// hold the block lock.
func (b *Block8) ContainsLocked(bucket uint, fp byte) bool {
	lo, hi := b.metaLocked()
	return probe8(lo, hi, &b.Fps, bucket, swar.BroadcastByte(fp)) != 0
}

// InsertUnlock adds fp to bucket, commits the block and releases its lock,
// which the caller must hold. It returns false, releasing the lock with the
// block unchanged, if the block is full. The mutation is prepared on a
// private copy and committed by commit8, which bumps seq, the block's
// version stripe.
func (b *Block8) InsertUnlock(bucket uint, fp byte, seq *atomic.Uint64) bool {
	lo, hi := b.metaLocked()
	if occupancy128(lo, hi) == B8Slots {
		b.Unlock()
		return false
	}
	buf := b.Fps // private copy; plain read is safe under the lock
	// The forced top bit (spurious when not full) is discarded by the shift.
	// The stored top bit is the lock alone, so the commit leaves it clear;
	// if the insert filled the block, readers force it back as the final
	// terminator.
	newLo, newHi, _ := insertSlot8(lo, hi, &buf, bucket, fp)
	commit8(b, &buf, newLo, newHi&^lockBit, seq)
	return true
}

// RemoveUnlock deletes one instance of fp from bucket, commits the block and
// releases its lock, which the caller must hold. It returns false, releasing
// the lock with the block unchanged, if fp is not present in bucket.
func (b *Block8) RemoveUnlock(bucket uint, fp byte, seq *atomic.Uint64) bool {
	lo, hi := b.metaLocked()
	// The logical top bit is 1 only when the block is full; otherwise the
	// forced lock bit must not shift down into the metadata body.
	hiLog := hi &^ lockBit
	if occupancy128(lo, hi) == B8Slots {
		hiLog |= lockBit
	}
	buf := b.Fps
	newLo, newHi, z := removeSlot8(lo, hi, hiLog, &buf, bucket, swar.BroadcastByte(fp))
	if z < 0 {
		b.Unlock()
		return false
	}
	commit8(b, &buf, newLo, newHi&^lockBit, seq)
	return true
}

// commit8Generic is the portable body of commit8, and the reference the
// parity tests hold the assembly to: it stores the prepared fingerprint
// words and lo with atomic word stores while the lock is held, bumps seq,
// then stores hi, which must have the lock bit clear, releasing the lock.
// An optimistic reader overlapping the write observes either the held lock
// bit or the changed version — never a silently torn snapshot.
func commit8Generic(b *Block8, fps *[swar.Words8]uint64, lo, hi uint64, seq *atomic.Uint64) {
	for i := range fps {
		atomic.StoreUint64(&b.Fps[i], fps[i])
	}
	atomic.StoreUint64(&b.MetaLo, lo)
	seq.Add(1)
	atomic.StoreUint64(&b.MetaHi, hi)
}

// TryLock attempts to acquire the block's lock bit; it reports success.
func (b *Block16) TryLock() bool {
	old := atomic.LoadUint64(&b.Meta)
	if old&lockBit != 0 {
		return false
	}
	return atomic.CompareAndSwapUint64(&b.Meta, old, old|lockBit)
}

// Lock spins until the block's lock bit is acquired.
func (b *Block16) Lock() {
	for i := 0; ; i++ {
		if b.TryLock() {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

// Unlock releases the block's lock bit; see Block8.Unlock.
func (b *Block16) Unlock() { unlock(&b.Meta) }

func (b *Block16) metaLocked() uint64 {
	return atomic.LoadUint64(&b.Meta) | lockBit
}

// occupancy64 computes the locked-mode occupancy from an explicit metadata
// word; see occupancy128.
func occupancy64(meta uint64) uint {
	real := meta &^ lockBit
	if bits.OnesCount64(real) == B16Buckets-1 {
		return B16Slots
	}
	return uint(bits.Len64(real)) - B16Buckets
}

// OccupancyLocked returns the block occupancy under the locked-mode metadata
// convention; see Block8.OccupancyLocked.
func (b *Block16) OccupancyLocked() uint {
	return occupancy64(atomic.LoadUint64(&b.Meta))
}

func bucketRange64(meta uint64, bucket uint) (start, end uint) {
	if bucket == 0 {
		return 0, uint(bits.TrailingZeros64(meta))
	}
	p := bitvec.Select64(meta, bucket-1)
	rest := meta >> (p + 1) << (p + 1)
	q := uint(bits.TrailingZeros64(rest))
	return p - bucket + 1, q - bucket
}

// ContainsLocked reports whether fp is present in bucket. The caller must
// hold the block lock.
func (b *Block16) ContainsLocked(bucket uint, fp uint16) bool {
	return probe16(b.metaLocked(), &b.Fps, bucket, swar.BroadcastU16(fp)) != 0
}

// InsertUnlock adds fp to bucket, commits the block and releases its lock;
// see Block8.InsertUnlock.
func (b *Block16) InsertUnlock(bucket uint, fp uint16, seq *atomic.Uint64) bool {
	meta := b.metaLocked()
	if occupancy64(meta) == B16Slots {
		b.Unlock()
		return false
	}
	buf := b.Fps
	newMeta, _ := insertSlot16(meta, &buf, bucket, fp)
	commit16(b, &buf, newMeta&^lockBit, seq)
	return true
}

// RemoveUnlock deletes one instance of fp from bucket, commits the block and
// releases its lock; see Block8.RemoveUnlock.
func (b *Block16) RemoveUnlock(bucket uint, fp uint16, seq *atomic.Uint64) bool {
	meta := b.metaLocked()
	metaLog := meta &^ lockBit
	if occupancy64(meta) == B16Slots {
		metaLog |= lockBit
	}
	buf := b.Fps
	newMeta, z := removeSlot16(meta, metaLog, &buf, bucket, swar.BroadcastU16(fp))
	if z < 0 {
		b.Unlock()
		return false
	}
	commit16(b, &buf, newMeta&^lockBit, seq)
	return true
}

// commit16Generic is the portable body of commit16; see commit8Generic.
// meta must have the lock bit clear.
func commit16Generic(b *Block16, fps *[swar.Words16]uint64, meta uint64, seq *atomic.Uint64) {
	for i := range fps {
		atomic.StoreUint64(&b.Fps[i], fps[i])
	}
	seq.Add(1)
	atomic.StoreUint64(&b.Meta, meta)
}
