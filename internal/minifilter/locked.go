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
// Mutations are written back with atomic word stores so that lock-free
// optimistic readers (see optimistic.go) can snapshot a block with atomic
// word loads: under the Go memory model a plain store racing an atomic load
// is a data race even when a seqlock discards the torn value, so every word
// a reader may touch is published atomically. The word-native fingerprint
// layout makes this direct: Fps already is the array of uint64 words readers
// snapshot, no reinterpreting cast needed. Lock holders may still *read*
// their own block with plain loads (loads never race with loads, and no
// other thread stores while the lock is held).

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

// Unlock releases the block's lock bit.
func (b *Block8) Unlock() {
	atomic.StoreUint64(&b.MetaHi, atomic.LoadUint64(&b.MetaHi)&^lockBit)
}

// UnlockBump publishes a mutation and releases the lock: it bumps the
// seqlock version stripe associated with this block, then clears the lock
// bit. An optimistic reader overlapping the write observes either the held
// lock bit or the changed version — never a silently torn snapshot. Callers
// that did not mutate the block release with plain Unlock.
func (b *Block8) UnlockBump(seq *atomic.Uint64) {
	seq.Add(1)
	b.Unlock()
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

// InsertLocked adds fp to bucket. The caller must hold the block lock; the
// lock bit is preserved. It returns false if the block is full. The mutation
// is prepared on a private copy and written back with atomic word stores so
// concurrent optimistic snapshots never race with it.
func (b *Block8) InsertLocked(bucket uint, fp byte) bool {
	lo, hi := b.metaLocked()
	if occupancy128(lo, hi) == B8Slots {
		return false
	}
	buf := b.Fps // private copy; plain read is safe under the lock
	// The forced top bit (spurious when not full) is discarded by the shift;
	// re-set it afterwards: it is the still-held lock, and coincides with the
	// final terminator if the insert filled the block.
	newLo, newHi, _ := insertSlot8(lo, hi, &buf, bucket, fp)
	b.publishFps(&buf)
	atomic.StoreUint64(&b.MetaLo, newLo)
	atomic.StoreUint64(&b.MetaHi, newHi|lockBit)
	return true
}

// RemoveLocked deletes one instance of fp from bucket. The caller must hold
// the block lock; the lock bit is preserved. It returns false if fp is not
// present in bucket.
func (b *Block8) RemoveLocked(bucket uint, fp byte) bool {
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
		return false
	}
	b.publishFps(&buf)
	atomic.StoreUint64(&b.MetaLo, newLo)
	atomic.StoreUint64(&b.MetaHi, newHi|lockBit)
	return true
}

// publishFps stores the prepared fingerprint words with atomic word stores.
// The caller must hold the block lock.
func (b *Block8) publishFps(buf *[swar.Words8]uint64) {
	for i := range buf {
		atomic.StoreUint64(&b.Fps[i], buf[i])
	}
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

// Unlock releases the block's lock bit.
func (b *Block16) Unlock() {
	atomic.StoreUint64(&b.Meta, atomic.LoadUint64(&b.Meta)&^lockBit)
}

// UnlockBump publishes a mutation and releases the lock; see
// Block8.UnlockBump.
func (b *Block16) UnlockBump(seq *atomic.Uint64) {
	seq.Add(1)
	b.Unlock()
}

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

// InsertLocked adds fp to bucket. The caller must hold the block lock. The
// mutation is prepared on a private copy and written back atomically; see
// Block8.InsertLocked.
func (b *Block16) InsertLocked(bucket uint, fp uint16) bool {
	meta := b.metaLocked()
	if occupancy64(meta) == B16Slots {
		return false
	}
	buf := b.Fps
	newMeta, _ := insertSlot16(meta, &buf, bucket, fp)
	b.publishFps(&buf)
	atomic.StoreUint64(&b.Meta, newMeta|lockBit)
	return true
}

// RemoveLocked deletes one instance of fp from bucket. The caller must hold
// the block lock.
func (b *Block16) RemoveLocked(bucket uint, fp uint16) bool {
	meta := b.metaLocked()
	metaLog := meta &^ lockBit
	if occupancy64(meta) == B16Slots {
		metaLog |= lockBit
	}
	buf := b.Fps
	newMeta, z := removeSlot16(meta, metaLog, &buf, bucket, swar.BroadcastU16(fp))
	if z < 0 {
		return false
	}
	b.publishFps(&buf)
	atomic.StoreUint64(&b.Meta, newMeta|lockBit)
	return true
}

// publishFps stores the prepared fingerprint words with atomic word stores.
// The caller must hold the block lock.
func (b *Block16) publishFps(buf *[swar.Words16]uint64) {
	for i := range buf {
		atomic.StoreUint64(&b.Fps[i], buf[i])
	}
}
