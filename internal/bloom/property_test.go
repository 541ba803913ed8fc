package bloom

import (
	"testing"
	"testing/quick"
)

// Property: Params is monotone — more keys or a tighter FPR never shrink the
// bit budget.
func TestParamsMonotone(t *testing.T) {
	prop := func(n16 uint16, f8 uint8) bool {
		n := uint64(n16) + 1
		fpr := (float64(f8%99) + 1) / 200 // (0, 0.5]
		m1, k1 := Params(n, fpr)
		m2, _ := Params(n*2, fpr)
		m3, k3 := Params(n, fpr/4)
		return m2 >= m1 && m3 >= m1 && k1 >= 1 && k3 >= k1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: inserted keys are always found, for both Bloom variants.
func TestPropertyNoFalseNegatives(t *testing.T) {
	plain := New(5000, 0.01)
	counting := NewCounting(5000, 0.01)
	prop := func(h uint64) bool {
		plain.Insert(h)
		counting.Insert(h)
		return plain.Contains(h) && counting.Contains(h)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: counting-bloom remove of an inserted key succeeds and never
// removes unrelated keys.
func TestPropertyCountingRemove(t *testing.T) {
	f := NewCounting(5000, 0.001)
	anchor := uint64(0x1234567890abcdef)
	f.Insert(anchor)
	prop := func(h uint64) bool {
		if h == anchor {
			return true
		}
		f.Insert(h)
		if !f.Remove(h) {
			return false
		}
		return f.Contains(anchor)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
