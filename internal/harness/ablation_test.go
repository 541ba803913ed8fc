package harness

import (
	"math/rand"
	"testing"

	"vqf/internal/core"
)

// The scalar ablation VQF must answer every operation exactly as the
// production SWAR filter does: same placement, same results, same counts.

func TestFilter8GenericEquivalence(t *testing.T) {
	fast := core.NewFilter8(1<<12, core.Options{})
	slow := newScalar8(1<<12, true, false)
	rng := rand.New(rand.NewSource(11))
	var keys []uint64
	for step := 0; step < 30000; step++ {
		switch rng.Intn(3) {
		case 0:
			h := rng.Uint64()
			a, b := fast.Insert(h), slow.Insert(h)
			if a != b {
				t.Fatalf("step %d: insert fast=%v slow=%v", step, a, b)
			}
			if a {
				keys = append(keys, h)
			}
		case 1:
			if len(keys) == 0 {
				continue
			}
			i := rng.Intn(len(keys))
			h := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			a, b := fast.Remove(h), slow.Remove(h)
			if a != b {
				t.Fatalf("step %d: remove fast=%v slow=%v", step, a, b)
			}
		case 2:
			h := rng.Uint64()
			if a, b := fast.Contains(h), slow.Contains(h); a != b {
				t.Fatalf("step %d: contains fast=%v slow=%v", step, a, b)
			}
		}
		if fast.Count() != slow.Count() {
			t.Fatalf("step %d: counts diverged", step)
		}
	}
}

func TestFilter16GenericEquivalence(t *testing.T) {
	fast := core.NewFilter16(1<<12, core.Options{})
	slow := newScalar16(1<<12, true)
	rng := rand.New(rand.NewSource(6))
	var keys []uint64
	for step := 0; step < 30000; step++ {
		switch rng.Intn(3) {
		case 0:
			h := rng.Uint64()
			a, b := fast.Insert(h), slow.Insert(h)
			if a != b {
				t.Fatalf("step %d: insert diverged", step)
			}
			if a {
				keys = append(keys, h)
			}
		case 1:
			if len(keys) == 0 {
				continue
			}
			i := rng.Intn(len(keys))
			h := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			if a, b := fast.Remove(h), slow.Remove(h); a != b {
				t.Fatalf("step %d: remove diverged", step)
			}
		case 2:
			h := rng.Uint64()
			if a, b := fast.Contains(h), slow.Contains(h); a != b {
				t.Fatalf("step %d: contains diverged", step)
			}
		}
	}
}

// TestIndependentHashReachesHighLoadFactor is the §3.4 independent-hash
// case of the max-load experiment: without the shortcut, an independent
// second hash fills past 92% even at this small scale.
func TestIndependentHashReachesHighLoadFactor(t *testing.T) {
	f := newScalar8(1<<16, false, true)
	rng := rand.New(rand.NewSource(6))
	for f.Insert(rng.Uint64()) {
	}
	if lf := f.LoadFactor(); lf < 0.92 {
		t.Errorf("max load factor %.4f below 0.92", lf)
	}
}

// TestAblationPlacementMatchesCore fills the scalar ablation VQF and core's
// filter to 90% with and without the shortcut and requires the same
// block-by-block placement. At 2048 8-bit blocks the bucket half of the
// partner-block tag reaches the block index, which it does not at the
// equivalence tests' 128 blocks.
func TestAblationPlacementMatchesCore(t *testing.T) {
	type filter interface {
		Insert(h uint64) bool
		Capacity() uint64
		BlockOccupancies() []uint
	}
	for _, shortcut := range []bool{true, false} {
		opts := core.Options{NoShortcut: !shortcut}
		for _, pair := range [][2]filter{
			{core.NewFilter8(1<<16, opts), newScalar8(1<<16, shortcut, false)},
			{core.NewFilter16(1<<16, opts), newScalar16(1<<16, shortcut)},
		} {
			fast, slow := pair[0], pair[1]
			rng := rand.New(rand.NewSource(7))
			for n := fast.Capacity() * 9 / 10; n > 0; n-- {
				h := rng.Uint64()
				if a, b := fast.Insert(h), slow.Insert(h); a != b {
					t.Fatalf("shortcut=%v: insert diverged", shortcut)
				}
			}
			a, b := fast.BlockOccupancies(), slow.BlockOccupancies()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("shortcut=%v, %d slots/block: block %d holds %d, ablation %d",
						shortcut, fast.Capacity()/uint64(len(a)), i, a[i], b[i])
				}
			}
		}
	}
}
