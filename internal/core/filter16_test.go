package core

import (
	"math/rand"
	"testing"
)

func fillTo16(t *testing.T, f *Filter16, want uint64, seed int64) []uint64 {
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

func TestFilter16NoFalseNegatives(t *testing.T) {
	f := NewFilter16(1<<15, Options{})
	keys := fillTo16(t, f, f.Capacity()*90/100, 1)
	for _, h := range keys {
		if !f.Contains(h) {
			t.Fatal("false negative")
		}
	}
}

func TestFilter16FalsePositiveRate(t *testing.T) {
	f := NewFilter16(1<<15, Options{})
	fillTo16(t, f, f.Capacity()*90/100, 2)
	rng := rand.New(rand.NewSource(3))
	fp := 0
	const probes = 2000000
	for i := 0; i < probes; i++ {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Full-filter analytic bound: 2·(28/36)·2⁻¹⁶ ≈ 2.37e-5; allow 2× slack
	// (the probe count gives ~47 expected hits at the bound).
	if rate > 2.37e-5*2 {
		t.Errorf("false-positive rate %.7f exceeds bound", rate)
	}
}

func TestFilter16ReachesHighLoadFactor(t *testing.T) {
	f := NewFilter16(1<<15, Options{})
	rng := rand.New(rand.NewSource(4))
	for f.Insert(rng.Uint64()) {
	}
	if lf := f.LoadFactor(); lf < 0.90 {
		t.Errorf("max load factor %.4f below 0.90", lf)
	}
}

func TestFilter16RemoveRestoresState(t *testing.T) {
	f := NewFilter16(1<<13, Options{})
	keys := fillTo16(t, f, f.Capacity()*80/100, 5)
	half := keys[:len(keys)/2]
	for _, h := range half {
		if !f.Remove(h) {
			t.Fatal("remove of inserted key failed")
		}
	}
	for _, h := range keys[len(half):] {
		if !f.Contains(h) {
			t.Fatal("false negative after unrelated removes")
		}
	}
	still := 0
	for _, h := range half {
		if f.Contains(h) {
			still++
		}
	}
	// 16-bit fingerprints: residual false positives should be very rare.
	if frac := float64(still) / float64(len(half)); frac > 0.005 {
		t.Errorf("%.4f of removed keys still report present", frac)
	}
}

func TestFilter16DuplicatesAndAbsentRemove(t *testing.T) {
	f := NewFilter16(1<<12, Options{})
	const h = 0x0123456789abcdef
	for i := 0; i < 2; i++ {
		if !f.Insert(h) {
			t.Fatal("insert failed")
		}
	}
	if !f.Remove(h) || !f.Remove(h) {
		t.Fatal("removes failed")
	}
	if f.Remove(h) {
		t.Error("third remove succeeded")
	}
}
