package fuse

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vqf/internal/hashing"
)

// widths are the fingerprint widths every test runs at.
var widths = []uint8{8, 16}

// forWidths runs fn as one subtest per fingerprint width.
func forWidths(t *testing.T, fn func(t *testing.T, bits uint8)) {
	for _, bits := range widths {
		t.Run(fmt.Sprintf("w%d", bits), func(t *testing.T) { fn(t, bits) })
	}
}

// randKeys derives n keys from a seed-tagged input space; distinct seeds
// give disjoint key sets (Mix64 is a bijection, so the inputs must not
// overlap — the seed goes in the high bits, the index in the low).
func randKeys(n int, seed uint64) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = hashing.Mix64(seed<<40 + uint64(i) + 1)
	}
	return ks
}

func mustBuild(t *testing.T, keys []uint64, bits uint8) *Filter {
	t.Helper()
	fl, err := Build(keys, bits)
	if err != nil {
		t.Fatalf("w%d n=%d: %v", bits, len(keys), err)
	}
	return fl
}

func TestNoFalseNegatives8(t *testing.T)  { testNoFalseNegatives(t, 8) }
func TestNoFalseNegatives16(t *testing.T) { testNoFalseNegatives(t, 16) }

func testNoFalseNegatives(t *testing.T, bits uint8) {
	for _, n := range []int{0, 1, 2, 3, 100, 10000, 100000} {
		keys := randKeys(n, 0x1234)
		fl := mustBuild(t, keys, bits)
		if fl.Keys() != uint64(n) {
			t.Fatalf("n=%d: Keys()=%d", n, fl.Keys())
		}
		for _, k := range keys {
			if !fl.Contains(k) {
				t.Fatalf("n=%d: false negative for %#x", n, k)
			}
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	keys := randKeys(100000, 0x5555)
	forWidths(t, func(t *testing.T, bits uint8) {
		fl := mustBuild(t, keys, bits)
		if want := math.Ldexp(1, -int(bits)); fl.FPR() != want {
			t.Fatalf("FPR() = %g, want %g", fl.FPR(), want)
		}
		const probes = 200000
		fp := 0
		for i := 0; i < probes; i++ {
			if fl.Contains(hashing.Mix64(0x9999<<40 + uint64(i))) {
				fp++
			}
		}
		// ≈ probes·2⁻⁸ ≈ 781 and ≈ probes·2⁻¹⁶ ≈ 3; allow 4σ-ish slack.
		limit := 1.5 * fl.FPR() * probes
		if bits == 16 {
			limit = 20
		}
		if float64(fp) > limit {
			t.Errorf("%d false positives over %d probes, limit %.0f", fp, probes, limit)
		}
	})
}

func TestBitsPerKey(t *testing.T) {
	keys := randKeys(1<<20, 0x777)
	forWidths(t, func(t *testing.T, bits uint8) {
		fl := mustBuild(t, keys, bits)
		max := 9.5
		if bits == 16 {
			max = 19
		}
		if bpk := fl.BitsPerKey(); bpk > max {
			t.Errorf("%d-bit filter at %g bits/key, want ≤ %g", bits, bpk, max)
		}
		if got, want := fl.SizeBytes(), uint64(len(fl.cells)-1); got != want {
			t.Errorf("SizeBytes %d, want the %d-byte array without its pad", got, want)
		}
	})
}

func TestBatchMatchesSingle(t *testing.T) {
	keys := randKeys(5000, 0x31415)
	probe := append(append([]uint64(nil), keys[:700]...), randKeys(700, 0x282)...)
	forWidths(t, func(t *testing.T, bits uint8) {
		fl := mustBuild(t, keys, bits)
		var dst []bool
		dst = fl.ContainsBatch(probe, dst)
		for i, k := range probe {
			if dst[i] != fl.Contains(k) {
				t.Fatalf("batch[%d] = %v, single = %v", i, dst[i], fl.Contains(k))
			}
		}
		// dst reuse must not reallocate.
		again := fl.ContainsBatch(probe[:100], dst)
		if &again[0] != &dst[0] {
			t.Error("batch did not reuse dst")
		}
	})
}

func TestDuplicateKeys(t *testing.T) {
	base := randKeys(1000, 0x99)
	keys := append(append([]uint64(nil), base...), base[:500]...) // heavy duplication
	forWidths(t, func(t *testing.T, bits uint8) {
		fl := mustBuild(t, keys, bits)
		for _, k := range base {
			if !fl.Contains(k) {
				t.Fatalf("false negative for duplicated key %#x", k)
			}
		}
		if fl.Keys() != 1000 {
			t.Errorf("Keys() = %d after dedupe, want 1000", fl.Keys())
		}
	})
}

func TestRoundTrip(t *testing.T) {
	forWidths(t, func(t *testing.T, bits uint8) {
		for _, n := range []int{0, 1, 5000} {
			keys := randKeys(n, 0x4242)
			fl := mustBuild(t, keys, bits)
			var buf bytes.Buffer
			if _, err := fl.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			if n > 0 {
				if want := fuseHeaderBytes + int(fl.SizeBytes()); len(first) != want {
					t.Fatalf("n=%d: stream %d bytes, want %d", n, len(first), want)
				}
			}
			got, err := Read(&buf, bits)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for _, k := range keys {
				if !got.Contains(k) {
					t.Fatalf("n=%d: false negative after round trip", n)
				}
			}
			var buf2 bytes.Buffer
			if _, err := got.WriteTo(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, buf2.Bytes()) {
				t.Fatalf("n=%d: re-serialization not byte-identical", n)
			}
		}
	})
}

func TestReadRejectsCorrupt(t *testing.T) {
	keys := randKeys(100, 0x1)
	forWidths(t, func(t *testing.T, bits uint8) {
		fl := mustBuild(t, keys, bits)
		var buf bytes.Buffer
		if _, err := fl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()

		if _, err := Read(bytes.NewReader(good), 24-bits); err == nil {
			t.Errorf("Read(%d) accepted a %d-bit stream", 24-bits, bits)
		}
		if _, err := Read(bytes.NewReader(good), 12); err == nil {
			t.Error("Read accepted an unsupported width")
		}
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff // magic
		if _, err := Read(bytes.NewReader(bad), bits); err == nil {
			t.Error("accepted bad magic")
		}
		if _, err := Read(bytes.NewReader(good[:20]), bits); err == nil {
			t.Error("accepted truncated stream")
		}
		if _, err := Read(bytes.NewReader(good[:len(good)-1]), bits); err == nil {
			t.Error("accepted truncated fingerprint array")
		}
		bad = append([]byte(nil), good...)
		bad[16] = 3 // non-power-of-two segment length
		if _, err := Read(bytes.NewReader(bad), bits); err == nil {
			t.Error("accepted non-power-of-two segment length")
		}
	})
	if _, err := Build(keys, 12); err == nil {
		t.Error("Build accepted an unsupported width")
	}
}

func TestEmptyFilterAnswersFalse(t *testing.T) {
	forWidths(t, func(t *testing.T, bits uint8) {
		fl := mustBuild(t, nil, bits)
		for i := 0; i < 1000; i++ {
			if fl.Contains(hashing.Mix64(uint64(i))) {
				t.Fatal("empty filter answered true")
			}
		}
		if fl.SizeBytes() != 0 || fl.BitsPerKey() != 0 {
			t.Fatalf("empty filter reports %d bytes", fl.SizeBytes())
		}
	})
}

// TestWidthFor checks the width rule at its boundaries: the loosest width
// whose 2⁻ʷ meets the target, and no width below 2⁻¹⁶.
func TestWidthFor(t *testing.T) {
	for _, tc := range []struct {
		fpr  float64
		bits uint8
		ok   bool
	}{
		{0.5, 8, true},
		{1.0 / 256, 8, true},
		{math.Nextafter(1.0/256, 0), 16, true},
		{1.0 / 65536, 16, true},
		{math.Nextafter(1.0/65536, 0), 0, false},
	} {
		if bits, ok := WidthFor(tc.fpr); bits != tc.bits || ok != tc.ok {
			t.Errorf("WidthFor(%g) = %d, %v; want %d, %v", tc.fpr, bits, ok, tc.bits, tc.ok)
		}
	}
}
