package minifilter

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/swar"
)

// containsOpt8 is the optimistic lookup the concurrent filters run: a
// Snapshot probed for fp. It fails the test if a quiescent read (want
// quiet) retried or fell back.
func containsOpt8(t *testing.T, b *Block8, seq *atomic.Uint64, bucket uint, fp byte, quiet bool) bool {
	var s Snap8
	retries, fellBack := b.Snapshot(seq, &s)
	if quiet && (retries != 0 || fellBack) {
		t.Fatalf("quiescent snapshot retried %d times (fell back: %v)", retries, fellBack)
	}
	return s.Probe(bucket, swar.BroadcastByte(fp)) != 0
}

// containsOpt16 is containsOpt8 for Block16.
func containsOpt16(t *testing.T, b *Block16, seq *atomic.Uint64, bucket uint, fp uint16, quiet bool) bool {
	var s Snap16
	retries, fellBack := b.Snapshot(seq, &s)
	if quiet && (retries != 0 || fellBack) {
		t.Fatalf("quiescent snapshot retried %d times (fell back: %v)", retries, fellBack)
	}
	return s.Probe(bucket, swar.BroadcastU16(fp)) != 0
}

// TestBlock8OptimisticEquivalence checks that, absent concurrent writers,
// the optimistic lookup agrees with the locked one across a random op mix.
func TestBlock8OptimisticEquivalence(t *testing.T) {
	var b Block8
	b.Reset()
	var seq atomic.Uint64
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		bucket := uint(rng.Intn(B8Buckets))
		fp := byte(rng.Intn(16))
		switch rng.Intn(3) {
		case 0:
			b.Lock()
			if b.InsertLocked(bucket, fp) {
				b.UnlockBump(&seq)
			} else {
				b.Unlock()
			}
		case 1:
			b.Lock()
			if b.RemoveLocked(bucket, fp) {
				b.UnlockBump(&seq)
			} else {
				b.Unlock()
			}
		default:
			opt := containsOpt8(t, &b, &seq, bucket, fp, true)
			b.Lock()
			locked := b.ContainsLocked(bucket, fp)
			b.Unlock()
			if opt != locked {
				t.Fatalf("step %d: optimistic=%v locked=%v", step, opt, locked)
			}
		}
		if occ := b.OccupancySnapshot(&seq); occ != b.OccupancyLocked() {
			t.Fatalf("step %d: occupancy opt=%d locked=%d",
				step, occ, b.OccupancyLocked())
		}
	}
}

func TestBlock16OptimisticEquivalence(t *testing.T) {
	var b Block16
	b.Reset()
	var seq atomic.Uint64
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 20000; step++ {
		bucket := uint(rng.Intn(B16Buckets))
		fp := uint16(rng.Intn(16))
		switch rng.Intn(3) {
		case 0:
			b.Lock()
			if b.InsertLocked(bucket, fp) {
				b.UnlockBump(&seq)
			} else {
				b.Unlock()
			}
		case 1:
			b.Lock()
			if b.RemoveLocked(bucket, fp) {
				b.UnlockBump(&seq)
			} else {
				b.Unlock()
			}
		default:
			opt := containsOpt16(t, &b, &seq, bucket, fp, true)
			b.Lock()
			locked := b.ContainsLocked(bucket, fp)
			b.Unlock()
			if opt != locked {
				t.Fatalf("step %d: optimistic=%v locked=%v", step, opt, locked)
			}
		}
		if occ := b.OccupancySnapshot(&seq); occ != b.OccupancyLocked() {
			t.Fatalf("step %d: occupancy diverged", step)
		}
	}
}

// TestBlock8SnapshotABADetected is the regression test for the ABA hazard:
// a remove-then-insert on the same bucket restores bit-identical metadata
// words while changing a fingerprint byte, so a reader that revalidated the
// metadata alone would accept a snapshot whose fingerprint copy is torn.
// The explicit version bump must invalidate the snapshot.
func TestBlock8SnapshotABADetected(t *testing.T) {
	var b Block8
	b.Reset()
	var seq atomic.Uint64
	const bucket, fpOld, fpNew = 5, 0xAA, 0xBB
	b.Lock()
	b.InsertLocked(bucket, fpOld)
	b.UnlockBump(&seq)

	// Reader copies the block...
	var s Snap8
	if !b.snapRead(&seq, &s) {
		t.Fatal("snapRead failed on quiescent block")
	}
	// ...then a writer slips in a remove-then-insert before validation.
	loBefore, hiBefore := b.MetaLo, atomic.LoadUint64(&b.MetaHi)
	b.Lock()
	if !b.RemoveLocked(bucket, fpOld) {
		t.Fatal("remove failed")
	}
	if !b.InsertLocked(bucket, fpNew) {
		t.Fatal("insert failed")
	}
	b.UnlockBump(&seq)

	// Preconditions of the hazard: metadata words restored exactly,
	// fingerprint bytes changed.
	if b.MetaLo != loBefore || atomic.LoadUint64(&b.MetaHi) != hiBefore {
		t.Fatalf("test setup: metadata words changed; not an ABA scenario")
	}
	if b.Fps == s.fps {
		t.Fatalf("test setup: fingerprints unchanged; not an ABA scenario")
	}
	if b.snapValidate(&seq, &s) {
		t.Fatal("ABA write was not detected: stale snapshot validated")
	}
}

// TestBlock16SnapshotABADetected is the 16-bit analog.
func TestBlock16SnapshotABADetected(t *testing.T) {
	var b Block16
	b.Reset()
	var seq atomic.Uint64
	const bucket = 7
	b.Lock()
	b.InsertLocked(bucket, 0x1111)
	b.UnlockBump(&seq)

	var s Snap16
	if !b.snapRead(&seq, &s) {
		t.Fatal("snapRead failed on quiescent block")
	}
	metaBefore := atomic.LoadUint64(&b.Meta)
	b.Lock()
	if !b.RemoveLocked(bucket, 0x1111) {
		t.Fatal("remove failed")
	}
	if !b.InsertLocked(bucket, 0x2222) {
		t.Fatal("insert failed")
	}
	b.UnlockBump(&seq)

	if atomic.LoadUint64(&b.Meta) != metaBefore {
		t.Fatalf("test setup: metadata word changed; not an ABA scenario")
	}
	if b.Fps == s.fps {
		t.Fatalf("test setup: fingerprints unchanged; not an ABA scenario")
	}
	if b.snapValidate(&seq, &s) {
		t.Fatal("ABA write was not detected: stale snapshot validated")
	}
}

// TestBlock8SnapshotValidatesWhenQuiescent is the positive control: with no
// intervening write the snapshot must validate and reflect the block.
func TestBlock8SnapshotValidatesWhenQuiescent(t *testing.T) {
	var b Block8
	b.Reset()
	var seq atomic.Uint64
	b.Lock()
	b.InsertLocked(3, 0x42)
	b.UnlockBump(&seq)
	var s Snap8
	if !b.snapRead(&seq, &s) || !b.snapValidate(&seq, &s) {
		t.Fatal("snapshot of quiescent block failed to validate")
	}
	if s.lo != b.MetaLo || s.hi != atomic.LoadUint64(&b.MetaHi)|lockBit {
		t.Fatal("snapshot metadata differs from block")
	}
	if s.fps != b.Fps {
		t.Fatal("snapshot fingerprints differ from block")
	}
	// A snapshot taken while the lock is held must refuse to read.
	b.Lock()
	if b.snapRead(&seq, &s) {
		t.Fatal("snapRead succeeded under a held lock")
	}
	b.Unlock()
}

// TestBlock8OptimisticConcurrentStress hammers one block with locked
// writers and lock-free optimistic readers. Run with -race: it exercises
// the contract that every word an optimistic reader touches is published
// atomically. Keys inserted once and never removed must always be found.
func TestBlock8OptimisticConcurrentStress(t *testing.T) {
	var b Block8
	b.Reset()
	var seq atomic.Uint64

	// Pin a few fingerprints that are never removed.
	type pin struct {
		bucket uint
		fp     byte
	}
	pins := []pin{{0, 1}, {17, 2}, {42, 3}, {B8Buckets - 1, 4}}
	b.Lock()
	for _, p := range pins {
		if !b.InsertLocked(p.bucket, p.fp) {
			t.Fatal("pin insert failed")
		}
	}
	b.UnlockBump(&seq)

	const writers, readers = 2, 4
	const ops = 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []pin
			for i := 0; i < ops; i++ {
				if len(mine) > 0 && (rng.Intn(2) == 0 || len(mine) > 8) {
					k := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					b.Lock()
					if !b.RemoveLocked(k.bucket, k.fp) {
						t.Error("own churn key missing")
					}
					b.UnlockBump(&seq)
					continue
				}
				// Churn fingerprints live in 100..255 so they never collide
				// with the pinned ones.
				k := pin{uint(rng.Intn(B8Buckets)), byte(100 + rng.Intn(156))}
				b.Lock()
				if b.InsertLocked(k.bucket, k.fp) {
					b.UnlockBump(&seq)
					mine = append(mine, k)
				} else {
					b.Unlock()
				}
			}
			for _, k := range mine {
				b.Lock()
				if !b.RemoveLocked(k.bucket, k.fp) {
					t.Error("own churn key missing at drain")
				}
				b.UnlockBump(&seq)
			}
		}(int64(w + 7))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				p := pins[rng.Intn(len(pins))]
				if !containsOpt8(t, &b, &seq, p.bucket, p.fp, false) {
					t.Error("false negative on pinned key")
					return
				}
				// Also exercise misses and the occupancy probe.
				containsOpt8(t, &b, &seq, uint(rng.Intn(B8Buckets)), byte(5+rng.Intn(90)), false)
				b.OccupancySnapshot(&seq)
			}
		}(int64(r + 70))
	}
	wg.Wait()
	for _, p := range pins {
		if !containsOpt8(t, &b, &seq, p.bucket, p.fp, true) {
			t.Fatal("pinned key missing after stress")
		}
	}
}
