package vqf

import (
	"bytes"
	"strconv"
	"testing"
)

func TestShardedFilterBasic(t *testing.T) {
	f := NewSharded(20000, 4, WithSeed(5))
	if f.NumShards() != 4 {
		t.Fatalf("got %d shards, want 4", f.NumShards())
	}
	if New(100).NumShards() != 1 {
		t.Fatal("unsharded filter should report 1 shard")
	}
	for i := 0; i < 10000; i++ {
		if err := f.AddString("key-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		if !f.ContainsString("key-" + strconv.Itoa(i)) {
			t.Fatal("false negative")
		}
	}
	if f.Count() != 10000 {
		t.Fatalf("count %d", f.Count())
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.ContainsString("other-" + strconv.Itoa(i)) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 3*f.FalsePositiveRate() {
		t.Fatalf("false-positive rate %g far above analytic %g", rate, f.FalsePositiveRate())
	}
	if !f.RemoveString("key-0") {
		t.Fatal("remove failed")
	}
	// The 16-bit geometry shards too.
	g := NewSharded(5000, 8, WithFalsePositiveRate(1.0/65536))
	if g.NumShards() != 8 {
		t.Fatalf("16-bit sharded: got %d shards", g.NumShards())
	}
	for i := 0; i < 2000; i++ {
		if err := g.AddUint64(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if !g.ContainsUint64(uint64(i)) {
			t.Fatal("16-bit sharded false negative")
		}
	}
}

// hashBatcher is the key-facing surface Filter and Elastic share.
type hashBatcher interface {
	AddHash(h uint64) error
	ContainsHash(h uint64) bool
	RemoveHash(h uint64) bool
	AddHashBatch(hs []uint64) int
	ContainsHashBatch(hs []uint64, dst []bool) []bool
	RemoveHashBatch(hs []uint64) int
	Count() uint64
}

// TestFilterHashBatch checks every batch entry point against a twin
// driven one key at a time. The elastic rows start small so the batch
// crosses growths; elastic.Sharded has no batch methods, so its row runs
// the per-key fallback of all three batch calls.
func TestFilterHashBatch(t *testing.T) {
	for name, mk := range map[string]func() hashBatcher{
		"sequential":         func() hashBatcher { return New(8000) },
		"concurrent":         func() hashBatcher { return NewConcurrent(8000) },
		"sharded":            func() hashBatcher { return NewSharded(8000, 4) },
		"elastic":            func() hashBatcher { return NewElastic(WithInitialCapacity(1000)) },
		"concurrent-elastic": func() hashBatcher { return NewConcurrentElastic(WithInitialCapacity(1000)) },
		"sharded-elastic":    func() hashBatcher { return NewShardedElastic(4, WithInitialCapacity(1000)) },
	} {
		t.Run(name, func(t *testing.T) {
			f, twin := mk(), mk()
			hs := make([]uint64, 8000) // 4000 stored keys, then 4000 negatives
			rng := uint64(0x9e3779b97f4a7c15)
			for i := range hs {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				hs[i] = rng
			}
			stored := hs[:4000]
			if n := f.AddHashBatch(stored); n != len(stored) {
				t.Fatalf("AddHashBatch inserted %d of %d at low load", n, len(stored))
			}
			for _, h := range stored {
				if err := twin.AddHash(h); err != nil {
					t.Fatal(err)
				}
			}
			if f.Count() != twin.Count() {
				t.Fatalf("count %d after batch insert, %d one key at a time", f.Count(), twin.Count())
			}
			out := f.ContainsHashBatch(hs, nil)
			for i, h := range hs {
				if i < len(stored) && !out[i] {
					t.Fatalf("batch false negative at %d", i)
				}
				if out[i] != twin.ContainsHash(h) {
					t.Fatalf("key %d: batch says %v, one key at a time %v", i, out[i], !out[i])
				}
			}
			want := 0
			for _, h := range stored {
				if twin.RemoveHash(h) {
					want++
				}
			}
			if n := f.RemoveHashBatch(stored); n != len(stored) || n != want {
				t.Fatalf("RemoveHashBatch removed %d of %d, one key at a time %d", n, len(stored), want)
			}
			if f.Count() != 0 {
				t.Fatalf("count %d after removing everything", f.Count())
			}
		})
	}
}

func TestShardedSerializePublic(t *testing.T) {
	f := NewSharded(10000, 4, WithSeed(99))
	for i := 0; i < 6000; i++ {
		if err := f.AddString("key-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumShards() != 4 || g.Count() != f.Count() {
		t.Fatalf("shape after round trip: %d shards, %d keys", g.NumShards(), g.Count())
	}
	for i := 0; i < 6000; i++ {
		if !g.ContainsString("key-" + strconv.Itoa(i)) {
			t.Fatal("false negative after sharded public round trip")
		}
	}
	if !g.RemoveString("key-1") {
		t.Fatal("remove failed after round trip")
	}
}

// TestConcurrentSerializePublic covers the newly serializable concurrent
// variant and the cross-variant loads: concurrent streams into sequential
// filters and back.
func TestConcurrentSerializePublic(t *testing.T) {
	f := NewConcurrent(10000, WithSeed(3))
	for i := 0; i < 5000; i++ {
		if err := f.AddString("key-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte{}, buf.Bytes()...)

	g, err := Read(bytes.NewReader(raw)) // loads as sequential
	if err != nil {
		t.Fatal(err)
	}
	h, err := ReadConcurrent(bytes.NewReader(raw)) // loads as concurrent
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		k := "key-" + strconv.Itoa(i)
		if !g.ContainsString(k) || !h.ContainsString(k) {
			t.Fatal("false negative after concurrent round trip")
		}
	}
	// Sequential stream loads concurrent, too.
	seq := New(1000, WithSeed(4))
	for i := 0; i < 500; i++ {
		seq.AddUint64(uint64(i))
	}
	buf.Reset()
	if _, err := seq.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cf, err := ReadConcurrent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if !cf.ContainsUint64(uint64(i)) {
			t.Fatal("false negative loading sequential stream as concurrent")
		}
	}
}

func TestShardedElasticBasic(t *testing.T) {
	e := NewShardedElastic(4, WithSeed(8), WithFalsePositiveRate(0.01), WithInitialCapacity(1024))
	if e.NumShards() != 4 {
		t.Fatalf("got %d shards, want 4", e.NumShards())
	}
	if NewElastic().NumShards() != 1 {
		t.Fatal("unsharded elastic should report 1 shard")
	}
	const n = 50000
	for i := 0; i < n; i++ {
		if err := e.AddUint64(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !e.ContainsUint64(uint64(i)) {
			t.Fatal("false negative after elastic sharded growth")
		}
	}
	if e.Count() != n {
		t.Fatalf("count %d != %d", e.Count(), n)
	}
	if e.Levels() < 2 {
		t.Fatalf("expected growth, got %d levels", e.Levels())
	}
	fp := 0
	for i := 0; i < n; i++ {
		if e.ContainsUint64(uint64(n + i)) {
			fp++
		}
	}
	if rate := float64(fp) / n; rate > 0.02 {
		t.Fatalf("false-positive rate %g above 2x the 0.01 budget", rate)
	}
}
