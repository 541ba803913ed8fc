package minifilter

import (
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"
)

func TestBlock16IsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Block16{}); sz != 64 {
		t.Fatalf("Block16 is %d bytes, want 64", sz)
	}
}

func TestBlock16EmptyState(t *testing.T) {
	var b Block16
	b.Reset()
	if got := b.Occupancy(); got != 0 {
		t.Fatalf("empty occupancy = %d", got)
	}
	if n := bits.OnesCount64(b.Meta); n != B16Buckets {
		t.Fatalf("fresh metadata has %d ones, want %d", n, B16Buckets)
	}
	for bucket := uint(0); bucket < B16Buckets; bucket++ {
		if b.Contains(bucket, 0) {
			t.Fatalf("Contains(%d, 0) true in fresh block", bucket)
		}
	}
}

func TestBlock16InsertContainsRemove(t *testing.T) {
	var b Block16
	b.Reset()
	for _, bucket := range []uint{0, 1, 17, 34, 35} {
		fp := uint16(bucket*1000 + 7)
		if !b.Insert(bucket, fp) {
			t.Fatalf("Insert(%d, %d) failed", bucket, fp)
		}
		if !b.Contains(bucket, fp) {
			t.Fatalf("Contains(%d, %d) false after insert", bucket, fp)
		}
		if b.Contains(bucket, fp+1) {
			t.Fatalf("false positive within bucket %d", bucket)
		}
	}
	if got := b.Occupancy(); got != 5 {
		t.Fatalf("occupancy = %d, want 5", got)
	}
	for _, bucket := range []uint{0, 1, 17, 34, 35} {
		fp := uint16(bucket*1000 + 7)
		if !b.Remove(bucket, fp) {
			t.Fatalf("Remove(%d, %d) failed", bucket, fp)
		}
	}
	if got := b.Occupancy(); got != 0 {
		t.Fatalf("occupancy after removes = %d", got)
	}
}

func TestBlock16FillToCapacity(t *testing.T) {
	var b Block16
	b.Reset()
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		bucket uint
		fp     uint16
	}
	var entries []entry
	for i := 0; i < B16Slots; i++ {
		e := entry{uint(rng.Intn(B16Buckets)), uint16(rng.Intn(1 << 16))}
		if !b.Insert(e.bucket, e.fp) {
			t.Fatalf("insert %d failed before capacity", i)
		}
		entries = append(entries, e)
	}
	if !b.Full() {
		t.Fatal("block not full after 28 inserts")
	}
	if b.Insert(0, 1) {
		t.Fatal("insert into full block succeeded")
	}
	for _, e := range entries {
		if !b.Contains(e.bucket, e.fp) {
			t.Fatalf("entry (%d,%d) lost", e.bucket, e.fp)
		}
	}
	if b.Meta>>63 != 1 {
		t.Fatal("top metadata bit not set in full block")
	}
}

func TestBlock16ModelBased(t *testing.T) {
	var b Block16
	b.Reset()
	testBlockModel[uint16](t, &b, B16Buckets, B16Slots, 6, func() int { return bits.OnesCount64(b.Meta) })
}

// TestBlock16GenericEquivalence is TestBlock8GenericEquivalence for the
// 16-bit block.
func TestBlock16GenericEquivalence(t *testing.T) {
	var b Block16
	testBlockEncoding[uint16](t, &b, b.Reset, func() []uint64 { return blockWords(&b) }, B16Buckets, B16Slots, 1, 16, 2)
}

func TestBlock16BucketCountsMatchModel(t *testing.T) {
	var b Block16
	b.Reset()
	counts := map[uint]uint{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < B16Slots; i++ {
		bucket := uint(rng.Intn(B16Buckets))
		if !b.Insert(bucket, uint16(rng.Intn(1<<16))) {
			t.Fatal("insert failed")
		}
		counts[bucket]++
	}
	for bucket := uint(0); bucket < B16Buckets; bucket++ {
		if got := b.BucketCount(bucket); got != counts[bucket] {
			t.Fatalf("bucket %d count = %d, want %d", bucket, got, counts[bucket])
		}
	}
}

func BenchmarkBlock16Insert(b *testing.B) {
	var blk Block16
	blk.Reset()
	rng := rand.New(rand.NewSource(4))
	buckets := make([]uint, 1024)
	fps := make([]uint16, 1024)
	for i := range buckets {
		buckets[i] = uint(rng.Intn(B16Buckets))
		fps[i] = uint16(rng.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 1023
		if !blk.Insert(buckets[j], fps[j]) {
			blk.Reset()
		}
	}
}
