package harness

import (
	"math/rand"
	"testing"
)

// TestIndependentHashReachesHighLoadFactor is the §3.4 independent-hash
// case of the max-load experiment: without the shortcut, an independent
// second hash fills past 92% even at this small scale.
func TestIndependentHashReachesHighLoadFactor(t *testing.T) {
	f := newIndependentFill(1 << 16)
	rng := rand.New(rand.NewSource(6))
	for f.Insert(rng.Uint64()) {
	}
	if lf := f.LoadFactor(); lf < 0.92 {
		t.Errorf("max load factor %.4f below 0.92", lf)
	}
}
