package minifilter

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/swar"
)

// lockedOp8 runs op (0 insert, 1 remove, 2 lookup) through the locked-mode
// path the concurrent filters take: lock, then InsertUnlock or RemoveUnlock,
// whose commit bumps seq and releases, or ContainsLocked and Unlock.
func lockedOp8(b *Block8, seq *atomic.Uint64, op int, bucket uint, fp byte) bool {
	b.Lock()
	switch op {
	case 0:
		return b.InsertUnlock(bucket, fp, seq)
	case 1:
		return b.RemoveUnlock(bucket, fp, seq)
	}
	ok := b.ContainsLocked(bucket, fp)
	b.Unlock()
	return ok
}

// lockedOp16 is lockedOp8 for Block16.
func lockedOp16(b *Block16, seq *atomic.Uint64, op int, bucket uint, fp uint16) bool {
	b.Lock()
	switch op {
	case 0:
		return b.InsertUnlock(bucket, fp, seq)
	case 1:
		return b.RemoveUnlock(bucket, fp, seq)
	}
	ok := b.ContainsLocked(bucket, fp)
	b.Unlock()
	return ok
}

// bothKernels runs body with the assembly kernels selected and then with the
// generic ones, leaving the assembly selected. Under -race the generic pass
// is the one the detector checks: it does not see the assembly's stores.
func bothKernels(body func()) {
	defer SetAsmKernels(true)
	for _, asm := range []bool{true, false} {
		SetAsmKernels(asm)
		body()
	}
}

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
	var seq atomic.Uint64
	plain.Reset()
	locked.Reset()
	rng := rand.New(rand.NewSource(1))
	var results []bool
	for step := 0; step < 20000; step++ {
		bucket := uint(rng.Intn(B8Buckets))
		fp := byte(rng.Intn(16))
		var a bool
		op := rng.Intn(3)
		switch op {
		case 0:
			a = plain.Insert(bucket, fp)
		case 1:
			a = plain.Remove(bucket, fp)
		case 2:
			a = plain.Contains(bucket, fp)
		}
		b := lockedOp8(&locked, &seq, op, bucket, fp)
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
	var seq atomic.Uint64
	b.Reset()
	// Fill to capacity through the locked path.
	rng := rand.New(rand.NewSource(2))
	type entry struct {
		bucket uint
		fp     byte
	}
	var entries []entry
	for i := 0; i < B8Slots; i++ {
		e := entry{uint(rng.Intn(B8Buckets)), byte(rng.Intn(256))}
		if !lockedOp8(&b, &seq, 0, e.bucket, e.fp) {
			t.Fatalf("locked insert %d failed", i)
		}
		entries = append(entries, e)
	}
	if b.OccupancyLocked() != B8Slots {
		t.Fatal("block not full")
	}
	ver := seq.Load()
	if lockedOp8(&b, &seq, 0, 0, 0) {
		t.Fatal("insert into full block succeeded")
	}
	if seq.Load() != ver || b.MetaHi&lockBit != 0 {
		t.Fatal("a failed insert bumped the version or kept the lock")
	}

	// After unlock the stored top bit is the lock flag (0), but a fresh
	// lock/read cycle must still see a full block with all entries.
	if b.OccupancyLocked() != B8Slots {
		t.Fatal("occupancy lost across unlock of full block")
	}
	for _, e := range entries {
		if !lockedOp8(&b, &seq, 2, e.bucket, e.fp) {
			t.Fatalf("entry (%d,%d) lost across unlock", e.bucket, e.fp)
		}
	}
	// Remove from the full block, then re-insert.
	if !lockedOp8(&b, &seq, 1, entries[3].bucket, entries[3].fp) {
		t.Fatal("remove from full block failed")
	}
	if b.OccupancyLocked() != B8Slots-1 {
		t.Fatal("occupancy wrong after remove")
	}
	if !lockedOp8(&b, &seq, 0, 9, 123) {
		t.Fatal("insert after remove failed")
	}
	if got := seq.Load(); got != B8Slots+2 {
		t.Fatalf("version %d after %d committed writes", got, B8Slots+2)
	}
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
	var seq atomic.Uint64
	plain.Reset()
	locked.Reset()
	rng := rand.New(rand.NewSource(3))
	var results []bool
	for step := 0; step < 20000; step++ {
		bucket := uint(rng.Intn(B16Buckets))
		fp := uint16(rng.Intn(16))
		var a bool
		op := rng.Intn(3)
		switch op {
		case 0:
			a = plain.Insert(bucket, fp)
		case 1:
			a = plain.Remove(bucket, fp)
		case 2:
			a = plain.Contains(bucket, fp)
		}
		b := lockedOp16(&locked, &seq, op, bucket, fp)
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
	var seq atomic.Uint64
	b.Reset()
	for i := 0; i < B16Slots; i++ {
		if !lockedOp16(&b, &seq, 0, uint(i%B16Buckets), uint16(i)) {
			t.Fatalf("locked insert %d failed", i)
		}
	}
	if lockedOp16(&b, &seq, 0, 0, 999) {
		t.Fatal("insert into full block succeeded")
	}
	if b.OccupancyLocked() != B16Slots {
		t.Fatal("occupancy lost across unlock of full block")
	}
	if !lockedOp16(&b, &seq, 1, 0, 0) {
		t.Fatal("remove failed")
	}
	if lockedOp16(&b, &seq, 1, 0, 0) {
		t.Fatal("second remove of a single instance succeeded")
	}
	if got := seq.Load(); got != B16Slots+1 || b.Meta&lockBit != 0 {
		t.Fatalf("version %d after %d committed writes, lock word %#x", got, B16Slots+1, b.Meta)
	}
}

// TestBlock8ConcurrentStress hammers one block from several goroutines,
// once through each kernel selection. Run with -race to exercise the
// memory-ordering contract on the generic pass: MetaHi is only touched
// atomically, everything else only under the lock.
func TestBlock8ConcurrentStress(t *testing.T) {
	bothKernels(func() { block8ConcurrentStress(t) })
}

func block8ConcurrentStress(t *testing.T) {
	var b Block8
	var seq atomic.Uint64
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
				switch {
				case len(inserted) > 0 && rng.Intn(3) == 0:
					k := inserted[len(inserted)-1]
					inserted = inserted[:len(inserted)-1]
					if !lockedOp8(&b, &seq, 1, k.bucket, byte(k.fp)) {
						t.Errorf("own insertion (%d,%d) missing", k.bucket, k.fp)
					}
				case rng.Intn(2) == 0:
					if lockedOp8(&b, &seq, 0, bucket, fp) {
						inserted = append(inserted, modelKey{bucket, uint16(fp)})
					}
				default:
					lockedOp8(&b, &seq, 2, bucket, fp)
				}
			}
			// Drain our own insertions.
			for _, k := range inserted {
				if !lockedOp8(&b, &seq, 1, k.bucket, byte(k.fp)) {
					t.Errorf("own insertion (%d,%d) missing at drain", k.bucket, k.fp)
				}
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
