package vqf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

func frozenTestKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("frozen-key-%d", i))
	}
	return keys
}

// TestFrozenMembershipAndFPR is the standalone frozen filter's contract: no
// false negatives ever, and a measured false-positive rate within the
// analytic width guarantee at both fingerprint widths.
func TestFrozenMembershipAndFPR(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"width-8", nil},
		{"width-16", []Option{WithFalsePositiveRate(1.0 / 65536)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := frozenTestKeys(50_000)
			f, err := NewFrozen(keys, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if f.Count() != uint64(len(keys)) {
				t.Fatalf("Count = %d, want %d", f.Count(), len(keys))
			}
			for _, k := range keys {
				if !f.Contains(k) {
					t.Fatalf("false negative for %q", k)
				}
			}
			const probes = 400_000
			fps := 0
			for i := 0; i < probes; i++ {
				if f.ContainsString(fmt.Sprintf("absent-key-%d", i)) {
					fps++
				}
			}
			// 4× the analytic rate plus a fixed allowance keeps binomial
			// noise out of the verdict while still catching broken hashing.
			limit := 4*f.FalsePositiveRate()*probes + 10
			if float64(fps) > limit {
				t.Fatalf("%d false positives over %d probes exceeds limit %.0f (ε=%g)",
					fps, probes, limit, f.FalsePositiveRate())
			}
			if bpi := f.BitsPerItem(); bpi <= 0 || bpi > 2*float64(16+2) {
				t.Fatalf("implausible bits/item %.2f", bpi)
			}
		})
	}
}

// TestFrozenDuplicatesCollapse: duplicate build keys count once and stay
// members.
func TestFrozenDuplicatesCollapse(t *testing.T) {
	keys := frozenTestKeys(1000)
	dup := append(append([][]byte{}, keys...), keys[:500]...)
	f, err := NewFrozen(dup)
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != uint64(len(keys)) {
		t.Fatalf("Count = %d after duplicate collapse, want %d", f.Count(), len(keys))
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatal("false negative after duplicate collapse")
		}
	}
}

// TestFrozenRejectsUnrealizableFPR: no fingerprint width realizes rates
// below 2⁻¹⁶.
func TestFrozenRejectsUnrealizableFPR(t *testing.T) {
	if _, err := NewFrozen(frozenTestKeys(10), WithFalsePositiveRate(1.0/(1<<17))); err == nil {
		t.Fatal("want error for FPR below 2^-16")
	}
}

// TestFrozenSerializeRoundTrip: WriteTo/ReadFrozen reproduce membership
// bit-exactly (the seed travels with the stream), batch lookups agree with
// single lookups, and the envelope kind routes a mismatched reader to a
// useful error.
func TestFrozenSerializeRoundTrip(t *testing.T) {
	keys := frozenTestKeys(20_000)
	f, err := NewFrozen(keys, WithSeed(12345))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrozen(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() || g.FalsePositiveRate() != f.FalsePositiveRate() {
		t.Fatalf("reload mismatch: count %d/%d fpr %g/%g",
			g.Count(), f.Count(), g.FalsePositiveRate(), f.FalsePositiveRate())
	}
	hs := make([]uint64, 0, 41_000)
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatal("reload lost a key")
		}
	}
	// Membership must agree probe-for-probe, false positives included.
	for i := 0; i < 41_000; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i)*0x9e3779b97f4a7c15)
		if f.Contains(b[:]) != g.Contains(b[:]) {
			t.Fatal("reload answers differently from original")
		}
		hs = append(hs, uint64(i)*0x9e3779b97f4a7c15)
	}
	got := g.ContainsHashBatch(hs, nil)
	for i, h := range hs {
		if got[i] != g.ContainsHash(h) {
			t.Fatal("batch lookup disagrees with single lookup")
		}
	}

	// A frozen stream handed to the wrong reader names the right one.
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "ReadFrozen") {
		t.Fatalf("want kind mismatch naming ReadFrozen, got %v", err)
	}
}

// TestFrozenStreamStability pins the Frozen stream format at both
// fingerprint widths: a filter built from a fixed key set must serialize to
// the recorded SHA-256, so any change to the envelope, the width byte or
// the fuse stream fails here even when writer and reader change together.
func TestFrozenStreamStability(t *testing.T) {
	for _, tc := range []struct {
		fpr  float64
		want string
	}{
		{1.0 / 256, "692bb2cc9f89bafe26531537661f08cc06e66a2a34306818d3534864fb70323d"},
		{1.0 / 65536, "dee8dddd52d12bca940f883bd17b707139a0d7507dd25b4a708d9f912011b311"},
	} {
		f, err := NewFrozen(frozenTestKeys(5000), WithFalsePositiveRate(tc.fpr), WithSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		d := sha256.New()
		if _, err := f.WriteTo(d); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(d.Sum(nil)); got != tc.want {
			t.Errorf("ε=%g: frozen stream digest %s, want %s", tc.fpr, got, tc.want)
		}
	}
}

// TestElasticFreezeFacade drives the public freeze surface end to end:
// churn an elastic filter, FreezeNow, and check the result plus continued
// service; WithAutoFreeze must freeze without an explicit call.
func TestElasticFreezeFacade(t *testing.T) {
	e := NewElastic(WithInitialCapacity(512))
	const n = 30_000
	for i := uint64(0); i < n; i++ {
		if err := e.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n*3/4; i++ {
		if i%16 == 0 {
			continue
		}
		if !e.RemoveUint64(i) {
			t.Fatal("remove of live key failed")
		}
	}
	before := e.SizeBytes()
	fr := e.FreezeNow()
	if fr.LevelsFrozen == 0 || fr.FuseLevels == 0 {
		t.Fatalf("expected a freeze on the churned cascade, got %+v", fr)
	}
	if e.SizeBytes() >= before {
		t.Fatalf("freeze did not shrink the cascade: %d -> %d bytes", before, e.SizeBytes())
	}
	for i := uint64(0); i < n*3/4; i += 16 {
		if !e.ContainsUint64(i) {
			t.Fatal("freeze lost a long-lived key")
		}
	}
	for i := uint64(n * 3 / 4); i < n; i++ {
		if !e.ContainsUint64(i) {
			t.Fatal("freeze lost a recent key")
		}
	}
	// The frozen tier keeps serving writes: inserts land in the live level,
	// removes of frozen keys tombstone exactly once.
	if err := e.AddUint64(1 << 50); err != nil {
		t.Fatal(err)
	}
	if !e.ContainsUint64(1 << 50) {
		t.Fatal("insert after freeze not visible")
	}
	if !e.RemoveUint64(0) {
		t.Fatal("remove of frozen key failed")
	}
	if e.RemoveUint64(0) {
		t.Fatal("second remove of the same frozen instance succeeded")
	}

	auto := NewElastic(WithInitialCapacity(512), WithAutoFreeze(0, 1), WithFalsePositiveRate(1.0/256))
	for i := uint64(0); i < n; i++ {
		if err := auto.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	if auto.CascadeSnapshot().Freezes == 0 {
		t.Fatal("auto-freeze never fired across growths")
	}
	for i := uint64(0); i < n; i += 101 {
		if !auto.ContainsUint64(i) {
			t.Fatal("auto-freeze lost a key")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("want panic for negative freeze min age")
			}
		}()
		NewElastic(WithAutoFreeze(-time.Second, 0.5))
	}()
}
