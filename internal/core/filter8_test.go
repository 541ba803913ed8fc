package core

import (
	"math/rand"
	"testing"

	"vqf/internal/minifilter"
)

func TestBlocksFor(t *testing.T) {
	cases := []struct {
		nslots, per, want uint64
	}{
		{0, 48, 2},
		{1, 48, 2},
		{48, 48, 2},
		{96, 48, 2},
		{97, 48, 4},
		{48 * 1024, 48, 1024},
		{48*1024 + 1, 48, 2048},
		{28 * 8, 28, 8},
	}
	for _, c := range cases {
		if got := blocksFor(c.nslots, c.per); got != c.want {
			t.Errorf("blocksFor(%d,%d) = %d, want %d", c.nslots, c.per, got, c.want)
		}
	}
}

func TestSplit8Ranges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const mask = 1<<20 - 1
	for i := 0; i < 100000; i++ {
		h := rng.Uint64()
		b1, bucket, _, tag := split8(h, mask)
		if b1 > mask {
			t.Fatalf("b1 out of range: %d", b1)
		}
		if bucket >= minifilter.B8Buckets {
			t.Fatalf("bucket out of range: %d", bucket)
		}
		if tag >= minifilter.B8Buckets<<8 {
			t.Fatalf("tag out of range: %d", tag)
		}
	}
}

func TestSplit16Ranges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const mask = 1<<16 - 1
	for i := 0; i < 100000; i++ {
		h := rng.Uint64()
		b1, bucket, _, tag := split16(h, mask)
		if b1 > mask {
			t.Fatalf("b1 out of range: %d", b1)
		}
		if bucket >= minifilter.B16Buckets {
			t.Fatalf("bucket out of range: %d", bucket)
		}
		if tag >= minifilter.B16Buckets<<16 {
			t.Fatalf("tag out of range: %d", tag)
		}
	}
}

// fillTo inserts deterministic pseudo-random hashes until the filter holds
// want items; it fails the test if an insert fails first.
func fillTo(t *testing.T, f *Filter8, want uint64, seed int64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, want)
	for uint64(len(keys)) < want {
		h := rng.Uint64()
		if !f.Insert(h) {
			t.Fatalf("insert failed at %d/%d items (LF %.4f)", len(keys), want, f.LoadFactor())
		}
		keys = append(keys, h)
	}
	return keys
}

func TestFilter8NoFalseNegatives(t *testing.T) {
	f := NewFilter8(1<<16, Options{})
	n := f.Capacity() * 90 / 100
	keys := fillTo(t, f, n, 3)
	if f.Count() != n {
		t.Fatalf("Count = %d, want %d", f.Count(), n)
	}
	for i, h := range keys {
		if !f.Contains(h) {
			t.Fatalf("false negative for key %d of %d", i, len(keys))
		}
	}
}

func TestFilter8FalsePositiveRate(t *testing.T) {
	f := NewFilter8(1<<16, Options{})
	fillTo(t, f, f.Capacity()*90/100, 4)
	// Analytic bound at 90% of capacity: ε ≤ 2·(s/b)·2⁻⁸ scaled by occupancy.
	// Use the full-filter bound 2·(48/80)/256 ≈ 0.0047 and allow 1.5× slack.
	rng := rand.New(rand.NewSource(5))
	fp := 0
	const probes = 200000
	for i := 0; i < probes; i++ {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.0047*1.5 {
		t.Errorf("false-positive rate %.5f exceeds bound", rate)
	}
	if rate == 0 {
		t.Error("false-positive rate exactly 0 over 200k probes is implausible")
	}
}

func TestFilter8ReachesHighLoadFactor(t *testing.T) {
	// With the shortcut optimization the paper reports a 93.56% max load
	// factor; without it, 94.40%. Small filters have more variance, so
	// accept anything above 91% / 92%.
	for _, tc := range []struct {
		name    string
		opts    Options
		minLoad float64
	}{
		{"shortcut", Options{}, 0.91},
		{"no-shortcut", Options{NoShortcut: true}, 0.92},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFilter8(1<<16, tc.opts)
			rng := rand.New(rand.NewSource(6))
			for f.Insert(rng.Uint64()) {
			}
			if lf := f.LoadFactor(); lf < tc.minLoad {
				t.Errorf("max load factor %.4f below %.2f", lf, tc.minLoad)
			}
		})
	}
}

func TestFilter8HighShortcutThresholdHurtsLoadFactor(t *testing.T) {
	// Paper §6.2: raising the shortcut threshold to 95.83% (46/48 slots)
	// sharply reduces the max load factor (≈ 65% at the paper's 5.6M-block
	// scale; the collapse is milder at this test's 2K-block scale but must
	// still be clearly below the default configuration's ≈ 93%).
	f := NewFilter8(1<<16, Options{ShortcutThreshold: 46})
	rng := rand.New(rand.NewSource(7))
	for f.Insert(rng.Uint64()) {
	}
	lf := f.LoadFactor()
	if lf > 0.905 {
		t.Errorf("max load factor %.4f with threshold 46; expected a collapse below the default's", lf)
	}
	if lf < 0.50 {
		t.Errorf("max load factor %.4f implausibly low", lf)
	}
}

func TestFilter8RemoveRestoresState(t *testing.T) {
	f := NewFilter8(1<<14, Options{})
	keys := fillTo(t, f, f.Capacity()*80/100, 8)
	half := keys[:len(keys)/2]
	for _, h := range half {
		if !f.Remove(h) {
			t.Fatalf("remove of inserted key failed")
		}
	}
	if f.Count() != uint64(len(keys)-len(half)) {
		t.Fatalf("Count = %d after removes", f.Count())
	}
	// All remaining keys still present.
	for _, h := range keys[len(half):] {
		if !f.Contains(h) {
			t.Fatal("false negative after unrelated removes")
		}
	}
	// Most removed keys absent (a small fraction may remain as false
	// positives against surviving fingerprints).
	still := 0
	for _, h := range half {
		if f.Contains(h) {
			still++
		}
	}
	if frac := float64(still) / float64(len(half)); frac > 0.05 {
		t.Errorf("%.3f of removed keys still report present", frac)
	}
}

func TestFilter8RemoveAbsentKey(t *testing.T) {
	f := NewFilter8(1<<12, Options{})
	fillTo(t, f, 100, 9)
	rng := rand.New(rand.NewSource(10))
	removed := 0
	for i := 0; i < 10000; i++ {
		if f.Remove(rng.Uint64()) {
			removed++
		}
	}
	// Removing random (uninserted) keys should almost always fail; the rare
	// success is the documented fingerprint-collision hazard.
	if removed > 20 {
		t.Errorf("%d/10000 removals of absent keys succeeded", removed)
	}
}

func TestFilter8DuplicateInsertsAreMultiset(t *testing.T) {
	f := NewFilter8(1<<12, Options{})
	const h = 0xdeadbeefcafef00d
	for i := 0; i < 3; i++ {
		if !f.Insert(h) {
			t.Fatal("duplicate insert failed")
		}
	}
	if f.Count() != 3 {
		t.Fatalf("Count = %d, want 3", f.Count())
	}
	for i := 0; i < 3; i++ {
		if !f.Contains(h) {
			t.Fatalf("key absent with %d copies left", 3-i)
		}
		if !f.Remove(h) {
			t.Fatal("remove failed")
		}
	}
	if f.Contains(h) {
		t.Error("key present after removing all copies")
	}
	if f.Remove(h) {
		t.Error("remove succeeded with zero copies")
	}
}

func TestFilter8PowerOfTwoChoicesBalance(t *testing.T) {
	// At 90% load no block should be full when two choices are available,
	// and the occupancy distribution should be tight around the mean.
	f := NewFilter8(1<<16, Options{NoShortcut: true})
	fillTo(t, f, f.Capacity()*90/100, 12)
	occs := f.BlockOccupancies()
	mean := 0.9 * minifilter.B8Slots
	low, high := 0, 0
	for _, o := range occs {
		if float64(o) < mean-12 {
			low++
		}
		if o == minifilter.B8Slots {
			high++
		}
	}
	if frac := float64(high) / float64(len(occs)); frac > 0.02 {
		t.Errorf("%.4f of blocks full at 90%% load", frac)
	}
	if frac := float64(low) / float64(len(occs)); frac > 0.02 {
		t.Errorf("%.4f of blocks badly underfilled at 90%% load", frac)
	}
}

func TestFilter8CapacityAndSize(t *testing.T) {
	f := NewFilter8(1<<16, Options{})
	if f.Capacity() < 1<<16 {
		t.Errorf("Capacity %d below requested", f.Capacity())
	}
	if f.SizeBytes() != f.NumBlocks()*64 {
		t.Errorf("SizeBytes inconsistent with block count")
	}
	if f.LoadFactor() != 0 {
		t.Errorf("fresh filter load factor %f", f.LoadFactor())
	}
}
