package core

import (
	"math/rand"
	"testing"

	"vqf/internal/hashing"
	"vqf/internal/minifilter"
)

// TestCanonLow16Exact checks the canonical low-16 reconstruction against
// every bucket of both geometries: the reconstructed value must range-reduce
// back to its bucket, and must be a valid 16-bit value.
func TestCanonLow16Exact(t *testing.T) {
	for bucket := uint(0); bucket < minifilter.B8Buckets; bucket++ {
		x := canonLow16(bucket, minifilter.B8Buckets)
		if x >= 1<<16 {
			t.Fatalf("bucket %d: low16 %#x overflows 16 bits", bucket, x)
		}
		if got := uint(uint32(x) * minifilter.B8Buckets >> 16); got != bucket {
			t.Fatalf("bucket %d: low16 %#x reduces to %d", bucket, x, got)
		}
	}
	for bucket := uint(0); bucket < minifilter.B16Buckets; bucket++ {
		x := canonLow16(bucket, minifilter.B16Buckets)
		if x >= 1<<16 {
			t.Fatalf("bucket %d: low16 %#x overflows 16 bits", bucket, x)
		}
		if got := uint(uint32(x) * minifilter.B16Buckets >> 16); got != bucket {
			t.Fatalf("bucket %d: low16 %#x reduces to %d", bucket, x, got)
		}
	}
}

// TestCanonicalHashRoundTrip checks that splitting a canonical hash yields
// back exactly the (block, bucket, fingerprint) it was built from, for both
// geometries and a spread of block masks.
func TestCanonicalHashRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, maskBits := range []uint{1, 4, 10, 20} {
		mask := uint64(1)<<maskBits - 1
		for i := 0; i < 2000; i++ {
			b := rng.Uint64() & mask
			bucket := uint(rng.Intn(minifilter.B8Buckets))
			fp := byte(rng.Intn(256))
			h := CanonicalHash8(b, bucket, fp)
			gb, gbucket, gfp, _ := split8(h, mask)
			if gb != b || gbucket != bucket || gfp != fp {
				t.Fatalf("split8(canon8(%d,%d,%#x)) = (%d,%d,%#x)", b, bucket, fp, gb, gbucket, gfp)
			}

			bucket16 := uint(rng.Intn(minifilter.B16Buckets))
			fp16 := uint16(rng.Uint32())
			h16 := CanonicalHash16(b, bucket16, fp16)
			gb, gbucket16, gfp16, _ := split16(h16, mask)
			if gb != b || gbucket16 != bucket16 || gfp16 != fp16 {
				t.Fatalf("split16(canon16(%d,%d,%#x)) = (%d,%d,%#x)", b, bucket16, fp16, gb, gbucket16, gfp16)
			}
		}
	}
}

// TestCanonicalHashPairCommutes checks the cross-size soundness claim: for a
// hash h with candidate pair {p1, p2} under a large mask, the canonical hash
// rebuilt from EITHER candidate block has, under any smaller mask, a
// candidate pair equal to {p1&mask', (p1^tagmix)&mask'} — the original
// hash's pair in the smaller filter.
func TestCanonicalHashPairCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bigMask := uint64(1)<<16 - 1
	for _, smallBits := range []uint{1, 5, 9, 16} {
		small := uint64(1)<<smallBits - 1
		for i := 0; i < 5000; i++ {
			h := rng.Uint64()
			b1, bucket, fp, tag := split8(h, bigMask)
			b2 := hashing.AltIndex(b1, tag, bigMask)
			wantA, wantB := b1&small, hashing.AltIndex(b1&small, tag, small)
			for _, src := range []uint64{b1, b2} {
				hh := CanonicalHash8(src, bucket, fp)
				p1, pbucket, pfp, ptag := split8(hh, small)
				if pbucket != bucket || pfp != fp || ptag != tag {
					t.Fatalf("canonical hash changed (bucket,fp)")
				}
				p2 := hashing.AltIndex(p1, ptag, small)
				if !(p1 == wantA && p2 == wantB) && !(p1 == wantB && p2 == wantA) {
					t.Fatalf("mask %#x src %d: pair {%d,%d}, want {%d,%d}", small, src, p1, p2, wantA, wantB)
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

// TestCandidateBlocksMatchSplit: the shell's CandidateBlocks reads the
// geometry as data; it must name exactly the pair split8/split16 and the
// xor trick give, for every filter type and block count.
func TestCandidateBlocksMatchSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nslots := range []uint64{1, 1 << 10, 1 << 16} {
		pairs := []struct {
			name string
			got  func(uint64) (uint64, uint64)
			want func(h, mask uint64) (uint64, uint64)
			mask uint64
		}{
			{"filter8", NewFilter8(nslots, Options{}).CandidateBlocks, CandidatePair8, NewFilter8(nslots, Options{}).mask},
			{"filter16", NewFilter16(nslots, Options{}).CandidateBlocks, CandidatePair16, NewFilter16(nslots, Options{}).mask},
			{"cfilter8", NewCFilter8(nslots, Options{}).CandidateBlocks, CandidatePair8, NewCFilter8(nslots, Options{}).mask},
			{"cfilter16", NewCFilter16(nslots, Options{}).CandidateBlocks, CandidatePair16, NewCFilter16(nslots, Options{}).mask},
		}
		for _, p := range pairs {
			for i := 0; i < 2000; i++ {
				h := rng.Uint64()
				g1, g2 := p.got(h)
				w1, w2 := p.want(h, p.mask)
				if g1 != w1 || g2 != w2 {
					t.Fatalf("%s/%d: CandidateBlocks(%#x) = (%d, %d), want (%d, %d)", p.name, nslots, h, g1, g2, w1, w2)
				}
			}
		}
	}
}
