package core

import (
	"math/rand"
	"testing"
)

func TestInsertBatchMatchesSequential(t *testing.T) {
	a := NewFilter8(1<<14, Options{})
	b := NewFilter8(1<<14, Options{})
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	got := a.InsertBatch(keys)
	if got != len(keys) {
		t.Fatalf("batch inserted %d/%d", got, len(keys))
	}
	for _, h := range keys {
		if !b.Insert(h) {
			t.Fatal("sequential insert failed")
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("counts differ: %d vs %d", a.Count(), b.Count())
	}
	// Both filters saw the same keys in the same order, so every key is
	// present and membership agrees exactly, false positives included.
	for _, h := range keys {
		if !a.Contains(h) {
			t.Fatal("batch filter missing a key")
		}
	}
	for i := 0; i < 50000; i++ {
		if h := rng.Uint64(); a.Contains(h) != b.Contains(h) {
			t.Fatalf("membership differs for random probe %#x", h)
		}
	}
}

func TestInsertBatchSmall(t *testing.T) {
	f := NewFilter8(1<<10, Options{})
	keys := []uint64{1, 2, 3, 4, 5}
	if got := f.InsertBatch(keys); got != 5 {
		t.Fatalf("inserted %d", got)
	}
	for _, h := range keys {
		if !f.Contains(h) {
			t.Fatal("missing key after small batch")
		}
	}
}

// TestInsertBatchAttemptsAllKeys pins the InsertBatch contract: every key
// is attempted and the return value counts successes, NOT the length of a
// prefix that succeeded. With four blocks, one block pair fills while keys
// bound for the other pair still succeed, so failures land mid-stream; the
// old stop-at-first-failure behavior would strand those later keys.
func TestInsertBatchAttemptsAllKeys(t *testing.T) {
	f := NewFilter8(192, Options{}) // 4 blocks, 192 slots
	model := NewFilter8(192, Options{})
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	got := f.InsertBatch(keys)
	if got >= len(keys) {
		t.Fatal("tiny filter accepted 500 keys")
	}
	if f.Count() != uint64(got) {
		t.Fatalf("Count %d != returned %d", f.Count(), got)
	}
	// Reference: the same keys fed through Insert one at a time in caller
	// order, attempting every key. Counts must match exactly.
	want := 0
	failedBeforeSuccess := false
	failedYet := false
	for _, h := range keys {
		if model.Insert(h) {
			want++
			if failedYet {
				failedBeforeSuccess = true
			}
		} else {
			failedYet = true
		}
	}
	if got != want {
		t.Fatalf("InsertBatch = %d, attempt-all reference = %d", got, want)
	}
	if !failedBeforeSuccess {
		t.Fatal("scenario too weak: no success after a failure, contract untested")
	}
}

func TestInsertBatch16(t *testing.T) {
	f := NewFilter16(1<<13, Options{})
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	if got := f.InsertBatch(keys); got != len(keys) {
		t.Fatalf("batch inserted %d/%d", got, len(keys))
	}
	for _, h := range keys {
		if !f.Contains(h) {
			t.Fatal("missing key after 16-bit batch")
		}
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	benchBatch(b, func(f *Filter8, keys []uint64) {
		for _, h := range keys {
			f.Insert(h)
		}
	})
}

func BenchmarkInsertBatch(b *testing.B) {
	benchBatch(b, func(f *Filter8, keys []uint64) {
		f.InsertBatch(keys)
	})
}

func benchBatch(b *testing.B, insert func(*Filter8, []uint64)) {
	rng := rand.New(rand.NewSource(4))
	const batch = 1 << 20
	keys := make([]uint64, batch)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.SetBytes(batch * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := NewFilter8(batch*5/4, Options{})
		b.StartTimer()
		insert(f, keys)
	}
}
