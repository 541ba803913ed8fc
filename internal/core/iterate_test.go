package core

import (
	"math"
	"math/rand"
	"testing"

	"vqf/internal/analysis"
	"vqf/internal/hashing"
)

// geometries pairs each geometry with its per-key split, so the canonical
// hash tests run as one table over both widths.
var geometries = []struct {
	g     *Geometry
	split func(h, mask uint64) (b1 uint64, bucket uint, fp, tag uint64)
}{
	{Geom8, func(h, mask uint64) (uint64, uint, uint64, uint64) {
		b1, bucket, fp, tag := split8(h, mask)
		return b1, bucket, uint64(fp), tag
	}},
	{Geom16, func(h, mask uint64) (uint64, uint, uint64, uint64) {
		b1, bucket, fp, tag := split16(h, mask)
		return b1, bucket, uint64(fp), tag
	}},
}

// TestGeometryTable checks the two geometries against the paper's block
// layouts (§6.1) and their full-load FPR against the analytic formula
// 2·(s/b)·2⁻ʳ of internal/analysis (§5).
func TestGeometryTable(t *testing.T) {
	for _, tc := range []struct {
		g                      *Geometry
		slots, buckets, fpBits int
		shift                  uint
	}{
		{Geom8, 48, 80, 8, 24},
		{Geom16, 28, 36, 16, 32},
	} {
		g := tc.g
		if g.Slots != uint64(tc.slots) || g.Buckets != uint64(tc.buckets) || g.FPBits != uint(tc.fpBits) || g.BlockShift != tc.shift {
			t.Errorf("geometry %+v, want %d slots, %d buckets, %d-bit fingerprints, block shift %d",
				*g, tc.slots, tc.buckets, tc.fpBits, tc.shift)
		}
		if want := analysis.VQFAnalyticFPR(tc.slots, tc.buckets, tc.fpBits); g.FPR != want {
			t.Errorf("%d-bit FPR %g, want %g", tc.fpBits, g.FPR, want)
		}
		if g.Threshold == 0 || g.Threshold >= uint(g.Slots) {
			t.Errorf("%d-bit default threshold %d outside (0, %d)", tc.fpBits, g.Threshold, g.Slots)
		}
		if GeometryOfBits(g.FPBits) != g {
			t.Errorf("GeometryOfBits(%d) does not return the geometry", g.FPBits)
		}
		if got := g.Blocks(g.Slots*1024 + 1); got != 2048 {
			t.Errorf("%d-bit Blocks(%d) = %d, want 2048", tc.fpBits, g.Slots*1024+1, got)
		}
	}
	for _, bits := range []uint{0, 4, 12, 32} {
		if GeometryOfBits(bits) != nil {
			t.Errorf("GeometryOfBits(%d) returned a geometry", bits)
		}
	}
}

// TestGeometryForBoundary: GeometryFor keeps the facade's rule — Geom8
// exactly at its own full-load FPR and above, Geom16 from one ulp below it
// down to the facade's 2⁻¹⁷ floor.
func TestGeometryForBoundary(t *testing.T) {
	for _, tc := range []struct {
		fpr  float64
		want *Geometry
	}{
		{0.5, Geom8},
		{Geom8.FPR, Geom8},
		{math.Nextafter(Geom8.FPR, 0), Geom16},
		{1.0 / (1 << 16), Geom16},
		{1.0 / (1 << 17), Geom16},
	} {
		if got := GeometryFor(tc.fpr); got != tc.want {
			t.Errorf("GeometryFor(%g) = %d-bit, want %d-bit", tc.fpr, got.FPBits, tc.want.FPBits)
		}
	}
}

// TestCanonLow16Exact checks the canonical low-16 reconstruction against
// every bucket of both geometries: the reconstructed value must range-reduce
// back to its bucket, and must be a valid 16-bit value.
func TestCanonLow16Exact(t *testing.T) {
	for _, geo := range geometries {
		nb := uint(geo.g.Buckets)
		for bucket := uint(0); bucket < nb; bucket++ {
			x := canonLow16(bucket, nb)
			if x >= 1<<16 {
				t.Fatalf("bucket %d: low16 %#x overflows 16 bits", bucket, x)
			}
			if got := uint(uint32(x) * uint32(nb) >> 16); got != bucket {
				t.Fatalf("bucket %d: low16 %#x reduces to %d", bucket, x, got)
			}
		}
	}
}

// TestCanonicalHashRoundTrip checks that splitting a canonical hash yields
// back exactly the (block, bucket, fingerprint) it was built from, for both
// geometries and a spread of block masks.
func TestCanonicalHashRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, geo := range geometries {
		g := geo.g
		for _, maskBits := range []uint{1, 4, 10, 20} {
			mask := uint64(1)<<maskBits - 1
			for i := 0; i < 2000; i++ {
				b := rng.Uint64() & mask
				bucket := uint(rng.Int63n(int64(g.Buckets)))
				fp := rng.Uint64() & (1<<g.FPBits - 1)
				h := g.Canonical(b, bucket, fp)
				gb, gbucket, gfp, _ := geo.split(h, mask)
				if gb != b || gbucket != bucket || gfp != fp {
					t.Fatalf("%d-bit: split(Canonical(%d,%d,%#x)) = (%d,%d,%#x)", g.FPBits, b, bucket, fp, gb, gbucket, gfp)
				}
			}
		}
	}
}

// TestCanonicalHashPairCommutes checks the cross-size soundness claim: for a
// hash h with candidate pair {p1, p2} under a large mask, the canonical hash
// rebuilt from EITHER candidate block has, under any smaller mask, a
// candidate pair equal to {p1&mask', (p1^tagmix)&mask'} — the original
// hash's pair in the smaller filter — and folds to the same representative
// as h does.
func TestCanonicalHashPairCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bigMask := uint64(1)<<16 - 1
	for _, geo := range geometries {
		g := geo.g
		for _, smallBits := range []uint{1, 5, 9, 16} {
			small := uint64(1)<<smallBits - 1
			for i := 0; i < 5000; i++ {
				h := rng.Uint64()
				b1, bucket, fp, tag := geo.split(h, bigMask)
				b2 := hashing.AltIndex(b1, tag, bigMask)
				wantA, wantB := b1&small, hashing.AltIndex(b1&small, tag, small)
				for _, src := range []uint64{b1, b2} {
					hh := g.Canonical(src, bucket, fp)
					p1, pbucket, pfp, ptag := geo.split(hh, small)
					if pbucket != bucket || pfp != fp || ptag != tag {
						t.Fatalf("%d-bit: canonical hash changed (bucket,fp)", g.FPBits)
					}
					p2 := hashing.AltIndex(p1, ptag, small)
					if !(p1 == wantA && p2 == wantB) && !(p1 == wantB && p2 == wantA) {
						t.Fatalf("%d-bit mask %#x src %d: pair {%d,%d}, want {%d,%d}", g.FPBits, small, src, p1, p2, wantA, wantB)
					}
					if g.Fold(hh, small) != g.Fold(h, small) {
						t.Fatalf("%d-bit mask %#x src %d: fold differs from the original hash's", g.FPBits, small, src)
					}
				}
			}
		}
	}
}

// TestIterateRebuild fills filters to high load, iterates them, reinserts
// every canonical hash into a fresh filter of the SAME size and into one a
// quarter the size, and checks Contains is preserved for every original key
// plus exact count preservation.
func TestIterateRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 2500
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}

	t.Run("filter8", func(t *testing.T) {
		src := NewFilter8(8192, Options{})
		for _, h := range keys {
			if !src.Insert(h) {
				t.Fatal("source insert failed")
			}
		}
		for _, factor := range []uint64{1, 4} {
			dst := NewFilter8(8192/factor, Options{})
			src.IterateHashes(func(h uint64) bool {
				if !dst.Insert(h) {
					t.Fatalf("rebuild insert failed at count %d", dst.Count())
				}
				return true
			})
			if dst.Count() != src.Count() {
				t.Fatalf("rebuild count %d, want %d", dst.Count(), src.Count())
			}
			for _, h := range keys {
				if !dst.Contains(h) {
					t.Fatalf("factor %d: rebuilt filter lost key %#x", factor, h)
				}
			}
		}
	})

	t.Run("cfilter16", func(t *testing.T) {
		src := NewCFilter16(8192, Options{})
		for _, h := range keys {
			if !src.Insert(h) {
				t.Fatal("source insert failed")
			}
		}
		dst := NewFilter16(2048, Options{})
		src.IterateHashes(func(h uint64) bool {
			if !dst.Insert(h) {
				t.Fatalf("rebuild insert failed at count %d", dst.Count())
			}
			return true
		})
		if dst.Count() != src.Count() {
			t.Fatalf("rebuild count %d, want %d", dst.Count(), src.Count())
		}
		for _, h := range keys {
			if !dst.Contains(h) {
				t.Fatalf("rebuilt filter lost key %#x", h)
			}
		}
	})
}

// TestCountAtBlock checks instance counting against duplicate inserts.
func TestCountAtBlock(t *testing.T) {
	f := NewFilter8(4096, Options{NoShortcut: true})
	h := uint64(0x1234_5678_9abc_def0)
	for i := 0; i < 3; i++ {
		if !f.Insert(h) {
			t.Fatal("insert failed")
		}
	}
	p1, p2 := f.CandidateBlocks(h)
	got := f.CountAtBlock(p1, h)
	if p2 != p1 {
		got += f.CountAtBlock(p2, h)
	}
	if got != 3 {
		t.Fatalf("counted %d instances across the pair, want 3", got)
	}

	cf := NewCFilter16(4096, Options{})
	for i := 0; i < 2; i++ {
		if !cf.Insert(h) {
			t.Fatal("insert failed")
		}
	}
	q1, q2 := cf.CandidateBlocks(h)
	got = cf.CountAtBlock(q1, h)
	if q2 != q1 {
		got += cf.CountAtBlock(q2, h)
	}
	if got != 2 {
		t.Fatalf("counted %d instances across the pair, want 2", got)
	}
}

// TestCandidateBlocksMatchSplit: Geometry.Candidates, which every shell's
// CandidateBlocks calls, reads the geometry as data; it must name exactly
// the pair split8/split16 and the xor trick give, for every filter type and
// block count.
func TestCandidateBlocksMatchSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type candidateFilter interface {
		CandidateBlocks(h uint64) (uint64, uint64)
		NumBlocks() uint64
		Geometry() *Geometry
	}
	for _, nslots := range []uint64{1, 1 << 10, 1 << 16} {
		for _, f := range []candidateFilter{
			NewFilter8(nslots, Options{}), NewFilter16(nslots, Options{}),
			NewCFilter8(nslots, Options{}), NewCFilter16(nslots, Options{}),
		} {
			mask := f.NumBlocks() - 1
			for _, geo := range geometries {
				if geo.g != f.Geometry() {
					continue
				}
				for i := 0; i < 2000; i++ {
					h := rng.Uint64()
					b1, _, _, tag := geo.split(h, mask)
					w1, w2 := b1, hashing.AltIndex(b1, tag, mask)
					if g1, g2 := f.CandidateBlocks(h); g1 != w1 || g2 != w2 {
						t.Fatalf("%T/%d: CandidateBlocks(%#x) = (%d, %d), want (%d, %d)", f, nslots, h, g1, g2, w1, w2)
					}
				}
			}
		}
	}
}
