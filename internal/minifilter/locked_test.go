package minifilter

import (
	"math/rand"
	"sync"
	"testing"

	"vqf/internal/swar"
)

// logicalState8 extracts the lock-independent view of a locked-mode block:
// metadata with the top bit forced to (full ? 1 : 0), plus the fingerprints.
func logicalState8(b *Block8) (uint64, uint64, [swar.Words8]uint64) {
	lo, hi := b.MetaLo, b.MetaHi|lockBit
	occ := b.OccupancyLocked()
	hi &^= lockBit
	if occ == B8Slots {
		hi |= lockBit
	}
	return lo, hi, b.Fps
}

// TestBlock8LockedEquivalence runs an identical op sequence through the plain
// and locked variants and requires the same logical state at every step. The
// sequence runs with the assembly kernels on and then off; both runs must
// agree op for op and leave bit-identical blocks.
func TestBlock8LockedEquivalence(t *testing.T) {
	replayBothKernels(t, func() ([]uint64, []bool) { return lockedEquivalence8(t) })
}

func lockedEquivalence8(t *testing.T) ([]uint64, []bool) {
	var plain, locked Block8
	plain.Reset()
	locked.Reset()
	locked.Lock()
	defer locked.Unlock()
	rng := rand.New(rand.NewSource(1))
	var results []bool
	for step := 0; step < 20000; step++ {
		bucket := uint(rng.Intn(B8Buckets))
		fp := byte(rng.Intn(16))
		var a, b bool
		switch rng.Intn(3) {
		case 0:
			a, b = plain.Insert(bucket, fp), locked.InsertLocked(bucket, fp)
		case 1:
			a, b = plain.Remove(bucket, fp), locked.RemoveLocked(bucket, fp)
		case 2:
			a, b = plain.Contains(bucket, fp), locked.ContainsLocked(bucket, fp)
		}
		if a != b {
			t.Fatalf("step %d: plain=%v locked=%v", step, a, b)
		}
		results = append(results, a)
		if plain.Occupancy() != locked.OccupancyLocked() {
			t.Fatalf("step %d: occupancy diverged %d vs %d",
				step, plain.Occupancy(), locked.OccupancyLocked())
		}
		lo, hi, fps := logicalState8(&locked)
		if lo != plain.MetaLo || hi != plain.MetaHi || fps != plain.Fps {
			t.Fatalf("step %d: logical state diverged", step)
		}
	}
	return append(blockWords(&plain), blockWords(&locked)...), results
}

func TestBlock8LockedFullBlock(t *testing.T) {
	var b Block8
	b.Reset()
	b.Lock()
	// Fill to capacity through the locked path.
	rng := rand.New(rand.NewSource(2))
	type entry struct {
		bucket uint
		fp     byte
	}
	var entries []entry
	for i := 0; i < B8Slots; i++ {
		e := entry{uint(rng.Intn(B8Buckets)), byte(rng.Intn(256))}
		if !b.InsertLocked(e.bucket, e.fp) {
			t.Fatalf("locked insert %d failed", i)
		}
		entries = append(entries, e)
	}
	if b.OccupancyLocked() != B8Slots {
		t.Fatal("block not full")
	}
	if b.InsertLocked(0, 0) {
		t.Fatal("insert into full block succeeded")
	}
	b.Unlock()

	// After unlock the stored top bit is the lock flag (0), but a fresh
	// lock/read cycle must still see a full block with all entries.
	b.Lock()
	if b.OccupancyLocked() != B8Slots {
		t.Fatal("occupancy lost across unlock of full block")
	}
	for _, e := range entries {
		if !b.ContainsLocked(e.bucket, e.fp) {
			t.Fatalf("entry (%d,%d) lost across unlock", e.bucket, e.fp)
		}
	}
	// Remove from the full block, then re-insert.
	if !b.RemoveLocked(entries[3].bucket, entries[3].fp) {
		t.Fatal("remove from full block failed")
	}
	if b.OccupancyLocked() != B8Slots-1 {
		t.Fatal("occupancy wrong after remove")
	}
	if !b.InsertLocked(9, 123) {
		t.Fatal("insert after remove failed")
	}
	b.Unlock()
}

func TestBlock8TryLock(t *testing.T) {
	var b Block8
	b.Reset()
	if !b.TryLock() {
		t.Fatal("TryLock on unlocked block failed")
	}
	if b.TryLock() {
		t.Fatal("TryLock on locked block succeeded")
	}
	b.Unlock()
	if !b.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	b.Unlock()
}

// TestBlock16LockedEquivalence is the 16-bit analog of
// TestBlock8LockedEquivalence.
func TestBlock16LockedEquivalence(t *testing.T) {
	replayBothKernels(t, func() ([]uint64, []bool) { return lockedEquivalence16(t) })
}

func lockedEquivalence16(t *testing.T) ([]uint64, []bool) {
	var plain, locked Block16
	plain.Reset()
	locked.Reset()
	locked.Lock()
	defer locked.Unlock()
	rng := rand.New(rand.NewSource(3))
	var results []bool
	for step := 0; step < 20000; step++ {
		bucket := uint(rng.Intn(B16Buckets))
		fp := uint16(rng.Intn(16))
		var a, b bool
		switch rng.Intn(3) {
		case 0:
			a, b = plain.Insert(bucket, fp), locked.InsertLocked(bucket, fp)
		case 1:
			a, b = plain.Remove(bucket, fp), locked.RemoveLocked(bucket, fp)
		case 2:
			a, b = plain.Contains(bucket, fp), locked.ContainsLocked(bucket, fp)
		}
		if a != b {
			t.Fatalf("step %d: plain=%v locked=%v", step, a, b)
		}
		results = append(results, a)
		if plain.Occupancy() != locked.OccupancyLocked() {
			t.Fatalf("step %d: occupancy diverged", step)
		}
		if plain.Fps != locked.Fps {
			t.Fatalf("step %d: fingerprints diverged", step)
		}
	}
	return append(blockWords(&plain), blockWords(&locked)...), results
}

func TestBlock16LockedFullBlock(t *testing.T) {
	var b Block16
	b.Reset()
	b.Lock()
	for i := 0; i < B16Slots; i++ {
		if !b.InsertLocked(uint(i%B16Buckets), uint16(i)) {
			t.Fatalf("locked insert %d failed", i)
		}
	}
	if b.InsertLocked(0, 999) {
		t.Fatal("insert into full block succeeded")
	}
	b.Unlock()
	b.Lock()
	if b.OccupancyLocked() != B16Slots {
		t.Fatal("occupancy lost across unlock of full block")
	}
	if !b.RemoveLocked(0, 0) {
		t.Fatal("remove failed")
	}
	b.Unlock()
}

// TestBlock8ConcurrentStress hammers one block from several goroutines. Run
// with -race to exercise the memory-ordering contract: MetaHi is only touched
// atomically, everything else only under the lock.
func TestBlock8ConcurrentStress(t *testing.T) {
	var b Block8
	b.Reset()
	const workers = 4
	const opsPerWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			inserted := []modelKey{}
			for i := 0; i < opsPerWorker; i++ {
				bucket := uint(rng.Intn(B8Buckets))
				fp := byte(rng.Intn(256))
				b.Lock()
				switch {
				case len(inserted) > 0 && rng.Intn(3) == 0:
					k := inserted[len(inserted)-1]
					inserted = inserted[:len(inserted)-1]
					if !b.RemoveLocked(k.bucket, byte(k.fp)) {
						t.Errorf("own insertion (%d,%d) missing", k.bucket, k.fp)
					}
				case rng.Intn(2) == 0:
					if b.InsertLocked(bucket, fp) {
						inserted = append(inserted, modelKey{bucket, uint16(fp)})
					}
				default:
					b.ContainsLocked(bucket, fp)
				}
				b.Unlock()
			}
			// Drain our own insertions.
			for _, k := range inserted {
				b.Lock()
				if !b.RemoveLocked(k.bucket, byte(k.fp)) {
					t.Errorf("own insertion (%d,%d) missing at drain", k.bucket, k.fp)
				}
				b.Unlock()
			}
		}(int64(w + 100))
	}
	wg.Wait()
	b.Lock()
	if occ := b.OccupancyLocked(); occ != 0 {
		t.Fatalf("occupancy %d after all workers drained", occ)
	}
	b.Unlock()
}
