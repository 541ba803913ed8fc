package core

import (
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
	"vqf/internal/swar"
)

// Concurrent filter variants (paper §6.3, extended). Writers take per-block
// spin locks (the top metadata bit of each block), at most two per
// operation, always in increasing index order. Queries are lock-free on the
// common path: they use the seqlock-style optimistic snapshot protocol of
// internal/minifilter/optimistic.go, validated against a striped array of
// version counters that every write's commit bumps (InsertUnlock and
// RemoveUnlock take the stripe). A lookup therefore costs zero atomic
// read-modify-writes unless it collides with an in-flight writer on the same
// block, in which case it retries and eventually falls back to the lock.

// CFilter8 is the thread-safe vector quotient filter with 8-bit
// fingerprints. Inserts and removes lock at most two blocks; Contains is
// lock-free (optimistic) on the common path.
type CFilter8 struct {
	cfilter[minifilter.Block8, *minifilter.Block8]
}

// NewCFilter8 creates a thread-safe filter with at least nslots slots; see
// NewFilter8 for sizing semantics.
func NewCFilter8(nslots uint64, opts Options) *CFilter8 {
	// Locked-mode convention: the stored top bit is purely the lock flag.
	// A fresh block is empty, so the natural top bit is already 0.
	f := new(CFilter8)
	f.init(Geom8, newBlocks[minifilter.Block8](Geom8.Blocks(nslots)), 0, opts, f)
	return f
}

// Insert adds the pre-hashed key h, returning false if both candidate blocks
// are full. Safe for concurrent use. The shortcut decision reads the
// primary block's occupancy under its lock, so the common low-occupancy
// insert acquires exactly one lock.
func (f *CFilter8) Insert(h uint64) bool { return f.recordInsert(h>>blockShift8, f.insert(h)) }

// insert is Insert without the bookkeeping: it reports what it did and
// leaves the operation counters and the count to its caller (see
// cfilter.recordInsert and cfilter.sweep).
func (f *CFilter8) insert(h uint64) writeOutcome {
	b1, bucket, fp, tag := split8(h, f.mask)
	blk1 := &f.blocks[b1]
	seq1 := f.seq(b1)
	blk1.Lock()
	occ1 := blk1.OccupancyLocked()
	if occ1 < f.thresh {
		blk1.InsertUnlock(bucket, fp, seq1)
		return writeShortcut
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return outcome(blk1.InsertUnlock(bucket, fp, seq1))
	}
	blk2 := &f.blocks[b2]
	// Lock-ordering protocol: if the secondary block has the lower index,
	// release the primary and re-acquire in increasing order (§6.3).
	if b2 < b1 {
		blk1.Unlock()
		blk2.Lock()
		blk1.Lock()
		occ1 = blk1.OccupancyLocked()
	} else {
		blk2.Lock()
	}
	occ2 := blk2.OccupancyLocked()
	tgt, other, tgtSeq := blk1, blk2, seq1
	if occ2 < occ1 {
		tgt, other, tgtSeq = blk2, blk1, f.seq(b2)
	}
	other.Unlock()
	return outcome(tgt.InsertUnlock(bucket, fp, tgtSeq))
}

// Contains reports whether the pre-hashed key h may be in the filter. Safe
// for concurrent use and lock-free on the common path: each candidate block
// is snapshotted optimistically and scanned without acquiring its lock.
func (f *CFilter8) Contains(h uint64) bool { return f.contains(h, h>>blockShift8) }

// contains is Contains counting on stats stripe sel: a point lookup
// stripes by its primary block, a batch range by its first key (see
// cfilter.containsRange), which also sends here the keys the batch kernel
// hands back.
func (f *CFilter8) contains(h, sel uint64) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	f.st.Lookup(sel)
	bc := swar.BroadcastByte(fp)
	var s minifilter.Snap8
	retries, fellBack := f.blocks[b1].Snapshot(f.seq(b1), &s)
	f.st.Optimistic(sel, retries, fellBack)
	if fellBack {
		f.fallbackEvent(b1, retries)
	}
	if s.Probe(bucket, bc) != 0 {
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return false
	}
	retries, fellBack = f.blocks[b2].Snapshot(f.seq(b2), &s)
	f.st.Optimistic(sel, retries, fellBack)
	if fellBack {
		f.fallbackEvent(b2, retries)
	}
	return s.Probe(bucket, bc) != 0
}

// ContainsLocked is the pre-optimistic lookup path: it acquires each
// candidate block's spin lock for the duration of its fingerprint scan. It
// is retained as the locked variant `vqfbench multicore` compares the
// optimistic path against, and as the reference the oracle's
// optimistic-equivalence property checks Contains against; application
// code should use Contains.
func (f *CFilter8) ContainsLocked(h uint64) bool {
	b1, bucket, fp, tag := split8(h, f.mask)
	f.st.Lookup(b1)
	blk1 := &f.blocks[b1]
	blk1.Lock()
	found := blk1.ContainsLocked(bucket, fp)
	blk1.Unlock()
	if found {
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return false
	}
	blk2 := &f.blocks[b2]
	blk2.Lock()
	found = blk2.ContainsLocked(bucket, fp)
	blk2.Unlock()
	return found
}

// Remove deletes one previously inserted instance of the pre-hashed key h.
// Safe for concurrent use.
func (f *CFilter8) Remove(h uint64) bool { return f.recordRemove(h>>blockShift8, f.remove(h)) }

// remove is Remove without the bookkeeping; see CFilter8.insert.
func (f *CFilter8) remove(h uint64) writeOutcome {
	b1, bucket, fp, tag := split8(h, f.mask)
	blk1 := &f.blocks[b1]
	blk1.Lock()
	if blk1.RemoveUnlock(bucket, fp, f.seq(b1)) {
		return writeDone
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return writeMissed
	}
	blk2 := &f.blocks[b2]
	blk2.Lock()
	return outcome(blk2.RemoveUnlock(bucket, fp, f.seq(b2)))
}

// CFilter16 is the thread-safe vector quotient filter with 16-bit
// fingerprints; see CFilter8.
type CFilter16 struct {
	cfilter[minifilter.Block16, *minifilter.Block16]
}

// NewCFilter16 creates a thread-safe 16-bit-fingerprint filter.
func NewCFilter16(nslots uint64, opts Options) *CFilter16 {
	f := new(CFilter16)
	f.init(Geom16, newBlocks[minifilter.Block16](Geom16.Blocks(nslots)), 0, opts, f)
	return f
}

// Insert adds the pre-hashed key h. Safe for concurrent use; see
// CFilter8.Insert.
func (f *CFilter16) Insert(h uint64) bool { return f.recordInsert(h>>blockShift16, f.insert(h)) }

// insert is Insert without the bookkeeping; see CFilter8.insert.
func (f *CFilter16) insert(h uint64) writeOutcome {
	b1, bucket, fp, tag := split16(h, f.mask)
	blk1 := &f.blocks[b1]
	seq1 := f.seq(b1)
	blk1.Lock()
	occ1 := blk1.OccupancyLocked()
	if occ1 < f.thresh {
		blk1.InsertUnlock(bucket, fp, seq1)
		return writeShortcut
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return outcome(blk1.InsertUnlock(bucket, fp, seq1))
	}
	blk2 := &f.blocks[b2]
	if b2 < b1 {
		blk1.Unlock()
		blk2.Lock()
		blk1.Lock()
		occ1 = blk1.OccupancyLocked()
	} else {
		blk2.Lock()
	}
	occ2 := blk2.OccupancyLocked()
	tgt, other, tgtSeq := blk1, blk2, seq1
	if occ2 < occ1 {
		tgt, other, tgtSeq = blk2, blk1, f.seq(b2)
	}
	other.Unlock()
	return outcome(tgt.InsertUnlock(bucket, fp, tgtSeq))
}

// Contains reports whether the pre-hashed key h may be in the filter. Safe
// for concurrent use and lock-free on the common path.
func (f *CFilter16) Contains(h uint64) bool { return f.contains(h, h>>blockShift16) }

// contains is Contains counting on stats stripe sel; see
// CFilter8.contains.
func (f *CFilter16) contains(h, sel uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	f.st.Lookup(sel)
	bc := swar.BroadcastU16(fp)
	var s minifilter.Snap16
	retries, fellBack := f.blocks[b1].Snapshot(f.seq(b1), &s)
	f.st.Optimistic(sel, retries, fellBack)
	if fellBack {
		f.fallbackEvent(b1, retries)
	}
	if s.Probe(bucket, bc) != 0 {
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return false
	}
	retries, fellBack = f.blocks[b2].Snapshot(f.seq(b2), &s)
	f.st.Optimistic(sel, retries, fellBack)
	if fellBack {
		f.fallbackEvent(b2, retries)
	}
	return s.Probe(bucket, bc) != 0
}

// ContainsLocked is the lock-acquiring lookup baseline; see
// CFilter8.ContainsLocked.
func (f *CFilter16) ContainsLocked(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	f.st.Lookup(b1)
	blk1 := &f.blocks[b1]
	blk1.Lock()
	found := blk1.ContainsLocked(bucket, fp)
	blk1.Unlock()
	if found {
		return true
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return false
	}
	blk2 := &f.blocks[b2]
	blk2.Lock()
	found = blk2.ContainsLocked(bucket, fp)
	blk2.Unlock()
	return found
}

// Remove deletes one previously inserted instance of the pre-hashed key h.
// Safe for concurrent use.
func (f *CFilter16) Remove(h uint64) bool { return f.recordRemove(h>>blockShift16, f.remove(h)) }

// remove is Remove without the bookkeeping; see CFilter8.insert.
func (f *CFilter16) remove(h uint64) writeOutcome {
	b1, bucket, fp, tag := split16(h, f.mask)
	blk1 := &f.blocks[b1]
	blk1.Lock()
	if blk1.RemoveUnlock(bucket, fp, f.seq(b1)) {
		return writeDone
	}
	b2 := hashing.AltIndex(b1, tag, f.mask)
	if b2 == b1 {
		return writeMissed
	}
	blk2 := &f.blocks[b2]
	blk2.Lock()
	return outcome(blk2.RemoveUnlock(bucket, fp, f.seq(b2)))
}
