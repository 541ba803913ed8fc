package bloom

import (
	"math"
	"math/rand"
	"testing"
)

func TestParams(t *testing.T) {
	m, k := Params(1000, 0.01)
	// Textbook values: m ≈ 9585, k ≈ 7.
	if m < 9000 || m > 10000 {
		t.Errorf("m = %d, want ≈9585", m)
	}
	if k != 7 {
		t.Errorf("k = %d, want 7", k)
	}
	// Degenerate inputs must not panic or return zero hashes.
	if _, k := Params(0, 0.5); k < 1 {
		t.Error("k < 1 for degenerate params")
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := New(10000, 0.01)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Insert(keys[i])
	}
	for _, h := range keys {
		if !f.Contains(h) {
			t.Fatal("false negative")
		}
	}
}

func TestBloomFPRWithinBound(t *testing.T) {
	const n = 20000
	f := New(n, 0.01)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		f.Insert(rng.Uint64())
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.02 {
		t.Errorf("FPR = %.4f, want ≤ 0.02 for 1%% target", rate)
	}
	if rate < 0.001 {
		t.Errorf("FPR = %.4f implausibly low for 1%% target", rate)
	}
	// At optimal sizing roughly half the bits are set.
	if fr := f.FillRatio(); math.Abs(fr-0.5) > 0.05 {
		t.Errorf("fill ratio %.3f, want ≈0.5", fr)
	}
}

func TestBloomRemoveUnsupported(t *testing.T) {
	f := New(100, 0.01)
	f.Insert(42)
	if f.Remove(42) {
		t.Error("Remove on plain Bloom filter returned true")
	}
	if !f.Contains(42) {
		t.Error("key vanished")
	}
}

func TestCountingInsertRemove(t *testing.T) {
	f := NewCounting(10000, 0.01)
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Insert(keys[i])
	}
	for _, h := range keys {
		if !f.Contains(h) {
			t.Fatal("false negative")
		}
	}
	// Remove half; the rest must remain.
	for _, h := range keys[:2500] {
		if !f.Remove(h) {
			t.Fatal("remove of inserted key failed")
		}
	}
	for _, h := range keys[2500:] {
		if !f.Contains(h) {
			t.Fatal("false negative after removes")
		}
	}
	still := 0
	for _, h := range keys[:2500] {
		if f.Contains(h) {
			still++
		}
	}
	if frac := float64(still) / 2500; frac > 0.05 {
		t.Errorf("%.3f of removed keys still present", frac)
	}
}

func TestCountingRemoveAbsent(t *testing.T) {
	f := NewCounting(1000, 0.01)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		f.Insert(rng.Uint64())
	}
	removed := 0
	for i := 0; i < 10000; i++ {
		if f.Remove(rng.Uint64()) {
			removed++
		}
	}
	if removed > 300 { // bounded by FPR ≈ 1%
		t.Errorf("%d/10000 absent removes succeeded", removed)
	}
}

func TestSizeAccounting(t *testing.T) {
	f := New(100000, 0.01)
	// ~9.585 bits/key → ~120 KB.
	if f.SizeBytes() < 100000 || f.SizeBytes() > 150000 {
		t.Errorf("plain bloom size = %d bytes", f.SizeBytes())
	}
	c := NewCounting(100000, 0.01)
	if c.SizeBytes() < 4*f.SizeBytes()/2 {
		t.Errorf("counting filter not ≈4× larger: %d vs %d", c.SizeBytes(), f.SizeBytes())
	}
}

func BenchmarkBloomInsert(b *testing.B) {
	f := New(uint64(b.N)+1000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkBloomContains(b *testing.B) {
	f := New(1<<20, 0.01)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<20; i++ {
		f.Insert(rng.Uint64())
	}
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Contains(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}
