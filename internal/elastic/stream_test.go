package elastic

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vqf/internal/workload"
)

// TestCascadeStreamStability pins the cascade stream format the way
// core's TestStreamStability pins the filter streams: a cascade built from a
// fixed key stream and a fixed sequence of structural ops must serialize to
// the recorded SHA-256. The cascade holds every level form the stream
// carries: 8- and 16-bit VQF levels, a compacted level, and fuse levels at
// both fuse widths, one of them with tombstones.
func TestCascadeStreamStability(t *testing.T) {
	// ε = 1/32 gives levels 0–1 8-bit fingerprints and later levels 16-bit
	// ones; level 0 alone freezes to an 8-bit fuse filter, level 2 alone to
	// a 16-bit one.
	f, err := New(Config{TargetFPR: 1.0 / 32, InitialSlots: 1 << 9})
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(61).Keys(40000)
	for _, k := range keys {
		if !f.Insert(k) {
			t.Fatal("insert failed")
		}
	}
	// Strided removes leave every level a quarter full.
	for i, k := range keys {
		if i%4 != 0 && !f.Remove(k) {
			t.Fatal("remove of an inserted key failed")
		}
	}
	ls := f.list()
	if len(ls) < 7 {
		t.Fatalf("setup produced %d levels, want ≥ 7", len(ls))
	}
	only := func(want ...*level) func(*level) bool {
		return func(l *level) bool {
			for _, w := range want {
				if l == w {
					return true
				}
			}
			return false
		}
	}
	if r := f.freeze(only(ls[0], ls[2])); r.FuseLevels != 2 {
		t.Fatalf("freeze built %d fuse levels, want 2", r.FuseLevels)
	}
	if r := f.CompactNow(); r.LevelsMerged == 0 {
		t.Fatal("compaction merged nothing")
	}
	// Tombstone a few frozen keys so the ledger rides along.
	removed := 0
	for i := 0; i < len(keys); i += 4 {
		if removed == 20 {
			break
		}
		if f.list()[0].filter.(*fuseLevel).Remove(keys[i]) {
			removed++
		}
	}

	var fuseBits, vqfKinds []uint8
	for _, l := range f.list() {
		if fl, ok := l.filter.(*fuseLevel); ok {
			fuseBits = append(fuseBits, fl.f.Bits())
		} else {
			vqfKinds = append(vqfKinds, l.kind())
		}
	}
	t.Logf("fuse widths %v, VQF kinds %v", fuseBits, vqfKinds)
	if len(fuseBits) != 2 || fuseBits[0] == fuseBits[1] {
		t.Fatalf("fuse widths %v, want one 8-bit and one 16-bit level", fuseBits)
	}
	has := map[uint8]bool{}
	for _, k := range vqfKinds {
		has[k] = true
	}
	if !has[8] || !has[16] {
		t.Fatalf("VQF level kinds %v, want both 8 and 16", vqfKinds)
	}

	d := sha256.New()
	if _, err := f.WriteTo(d); err != nil {
		t.Fatal(err)
	}
	const want = "e40e03b01a3ced2f5532a9e31d22f52b16fe3156ce074ce49d41f94222a6b0c9"
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Errorf("cascade stream digest %s, want %s", got, want)
	}
}
