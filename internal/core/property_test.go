package core

import (
	"testing"
	"testing/quick"

	"vqf/internal/hashing"
)

// Property: any key inserted into a non-full filter is immediately visible,
// and CountOf is at least 1.
func TestPropertyInsertThenContains(t *testing.T) {
	f := NewFilter8(1<<12, Options{})
	prop := func(h uint64) bool {
		if f.LoadFactor() > 0.90 {
			f = NewFilter8(1<<12, Options{})
		}
		if !f.Insert(h) {
			return false
		}
		return f.Contains(h) && f.CountOf(h) >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: insert followed by remove returns the filter to a state where
// count is unchanged, and the key is gone unless a colliding twin remains.
func TestPropertyInsertRemoveCount(t *testing.T) {
	f := NewFilter8(1<<12, Options{})
	prop := func(h uint64) bool {
		if f.LoadFactor() > 0.90 {
			f = NewFilter8(1<<12, Options{})
		}
		before := f.Count()
		pre := f.CountOf(h)
		if !f.Insert(h) {
			return false
		}
		if !f.Remove(h) {
			return false
		}
		return f.Count() == before && f.CountOf(h) == pre
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the xor-linked secondary block always round-trips.
func TestPropertySecondaryBlock(t *testing.T) {
	const mask = 1<<16 - 1
	prop := func(h uint64) bool {
		b1, _, _, tag := split8(h, mask)
		b2 := hashing.AltIndex(b1, tag, mask)
		back := hashing.AltIndex(b2, tag, mask)
		return back == b1 && b2 <= mask
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: both filter geometries agree that a key inserted into one filter
// instance is found by a second instance only at false-positive rates
// (instances share no state).
func TestPropertyInstancesIndependent(t *testing.T) {
	a := NewFilter8(1<<12, Options{})
	b := NewFilter8(1<<12, Options{})
	hits := 0
	const n = 3000
	for i := 0; i < n; i++ {
		h := uint64(i)*0x9e3779b97f4a7c15 + 12345
		if !a.Insert(h) {
			t.Fatal("insert failed")
		}
		if b.Contains(h) {
			hits++
		}
	}
	if hits > 0 {
		t.Fatalf("empty filter reported %d/%d keys present", hits, n)
	}
}
