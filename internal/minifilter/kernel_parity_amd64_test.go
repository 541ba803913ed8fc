//go:build amd64 && !purego

package minifilter

import (
	"math/rand"
	"testing"

	"vqf/internal/swar"
)

// Differential parity gate for the fused assembly probes: over randomly
// filled valid blocks, every (bucket, fingerprint) probe must agree
// bit-for-bit with the generic kernel. Metadata validity is part of the
// kernel contract (see kernel_amd64.go), so blocks are built through the
// real insert path rather than from raw random words.

func fillBlock8(r *rand.Rand, n int) (*Block8, []byte) {
	var b Block8
	b.Reset()
	fps := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		bucket := uint(r.Intn(B8Buckets))
		fp := byte(r.Uint32())
		if !b.Insert(bucket, fp) {
			break
		}
		fps = append(fps, fp)
	}
	return &b, fps
}

func fillBlock16(r *rand.Rand, n int) (*Block16, []uint16) {
	var b Block16
	b.Reset()
	fps := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		bucket := uint(r.Intn(B16Buckets))
		fp := uint16(r.Uint32())
		if !b.Insert(bucket, fp) {
			break
		}
		fps = append(fps, fp)
	}
	return &b, fps
}

func TestFusedProbe8Parity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		b, inserted := fillBlock8(r, r.Intn(B8Slots+1))
		probes := []byte{0, byte(r.Uint32())}
		if len(inserted) > 0 {
			probes = append(probes, inserted[r.Intn(len(inserted))])
		}
		for bucket := uint(0); bucket < B8Buckets; bucket++ {
			for _, fp := range probes {
				bc := swar.BroadcastByte(fp)
				got := fusedProbe8Asm(b.MetaLo, b.MetaHi, &b.Fps, bucket, bc)
				want := probe8Generic(b.MetaLo, b.MetaHi, &b.Fps, bucket, bc)
				if got != want {
					t.Fatalf("probe8 bucket %d fp %#x occ %d: asm %#x generic %#x (lo %#x hi %#x)",
						bucket, fp, b.Occupancy(), got, want, b.MetaLo, b.MetaHi)
				}
			}
		}
	}
}

func TestFusedProbe16Parity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(12))
	for iter := 0; iter < 400; iter++ {
		b, inserted := fillBlock16(r, r.Intn(B16Slots+1))
		probes := []uint16{0, uint16(r.Uint32())}
		if len(inserted) > 0 {
			probes = append(probes, inserted[r.Intn(len(inserted))])
		}
		for bucket := uint(0); bucket < B16Buckets; bucket++ {
			for _, fp := range probes {
				bc := swar.BroadcastU16(fp)
				got := fusedProbe16Asm(b.Meta, &b.Fps, bucket, bc)
				want := probe16Generic(b.Meta, &b.Fps, bucket, bc)
				if got != want {
					t.Fatalf("probe16 bucket %d fp %#x occ %d: asm %#x generic %#x (meta %#x)",
						bucket, fp, b.Occupancy(), got, want, b.Meta)
				}
			}
		}
	}
}

// TestFusedProbeLockedForm exercises the locked-mode metadata form (top bit
// forced) that the locked and optimistic callers feed the kernels: parity
// must hold for it as well, including on a completely full block where the
// forced bit is the real 80th (resp. 36th) terminator.
func TestFusedProbeLockedForm(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, B8Slots / 2, B8Slots} {
		b, _ := fillBlock8(r, n)
		lo, hi := b.MetaLo, b.MetaHi|1<<63
		for bucket := uint(0); bucket < B8Buckets; bucket++ {
			bc := swar.BroadcastByte(byte(bucket))
			if got, want := fusedProbe8Asm(lo, hi, &b.Fps, bucket, bc), probe8Generic(lo, hi, &b.Fps, bucket, bc); got != want {
				t.Fatalf("locked probe8 n %d bucket %d: asm %#x generic %#x", n, bucket, got, want)
			}
		}
	}
	for _, n := range []int{0, 1, B16Slots / 2, B16Slots} {
		b, _ := fillBlock16(r, n)
		meta := b.Meta | 1<<63
		for bucket := uint(0); bucket < B16Buckets; bucket++ {
			bc := swar.BroadcastU16(uint16(bucket))
			if got, want := fusedProbe16Asm(meta, &b.Fps, bucket, bc), probe16Generic(meta, &b.Fps, bucket, bc); got != want {
				t.Fatalf("locked probe16 n %d bucket %d: asm %#x generic %#x", n, bucket, got, want)
			}
		}
	}
}

// FuzzFusedProbeParity is the fuzz form of the probe parity gate: arbitrary
// insert sequences (bucket, fingerprint pairs drawn from the corpus bytes)
// build a valid block, then every bucket is probed with both kernels.
func FuzzFusedProbeParity(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1}, uint16(0))
	f.Add([]byte("fuzzing builds character and valid metadata"), uint16(0x2a2a))
	f.Fuzz(func(t *testing.T, ops []byte, fp uint16) {
		if !AsmSupported() {
			t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
		}
		var b8 Block8
		b8.Reset()
		var b16 Block16
		b16.Reset()
		for i := 0; i+1 < len(ops); i += 2 {
			b8.Insert(uint(ops[i])%B8Buckets, ops[i+1])
			b16.Insert(uint(ops[i])%B16Buckets, uint16(ops[i+1])|uint16(ops[i])<<8)
		}
		bc8 := swar.BroadcastByte(byte(fp))
		bc16 := swar.BroadcastU16(fp)
		for bucket := uint(0); bucket < B8Buckets; bucket++ {
			got := fusedProbe8Asm(b8.MetaLo, b8.MetaHi, &b8.Fps, bucket, bc8)
			want := probe8Generic(b8.MetaLo, b8.MetaHi, &b8.Fps, bucket, bc8)
			if got != want {
				t.Errorf("probe8 bucket %d: asm %#x generic %#x", bucket, got, want)
			}
		}
		for bucket := uint(0); bucket < B16Buckets; bucket++ {
			got := fusedProbe16Asm(b16.Meta, &b16.Fps, bucket, bc16)
			want := probe16Generic(b16.Meta, &b16.Fps, bucket, bc16)
			if got != want {
				t.Errorf("probe16 bucket %d: asm %#x generic %#x", bucket, got, want)
			}
		}
	})
}
