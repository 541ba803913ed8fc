package minifilter

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

func TestBlock8IsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Block8{}); sz != 64 {
		t.Fatalf("Block8 is %d bytes, want 64", sz)
	}
}

func TestBlock8EmptyState(t *testing.T) {
	var b Block8
	b.Reset()
	if got := b.Occupancy(); got != 0 {
		t.Fatalf("empty occupancy = %d", got)
	}
	if b.Full() {
		t.Fatal("empty block reports full")
	}
	for bucket := uint(0); bucket < B8Buckets; bucket++ {
		if b.BucketCount(bucket) != 0 {
			t.Fatalf("bucket %d nonempty in fresh block", bucket)
		}
		if b.Contains(bucket, 0) {
			t.Fatalf("Contains(%d, 0) true in fresh block", bucket)
		}
	}
	// Metadata must hold exactly B8Buckets ones.
	if n := bits.OnesCount64(b.MetaLo) + bits.OnesCount64(b.MetaHi); n != B8Buckets {
		t.Fatalf("fresh metadata has %d ones, want %d", n, B8Buckets)
	}
}

func TestBlock8InsertContainsRemove(t *testing.T) {
	var b Block8
	b.Reset()
	for _, bucket := range []uint{0, 1, 40, 78, 79} {
		fp := byte(bucket*3 + 1)
		if !b.Insert(bucket, fp) {
			t.Fatalf("Insert(%d, %d) failed", bucket, fp)
		}
		if !b.Contains(bucket, fp) {
			t.Fatalf("Contains(%d, %d) false after insert", bucket, fp)
		}
		if b.Contains(bucket, fp+1) {
			t.Fatalf("Contains(%d, %d) true for non-inserted fp", bucket, fp+1)
		}
	}
	if got := b.Occupancy(); got != 5 {
		t.Fatalf("occupancy = %d, want 5", got)
	}
	for _, bucket := range []uint{0, 1, 40, 78, 79} {
		fp := byte(bucket*3 + 1)
		if !b.Remove(bucket, fp) {
			t.Fatalf("Remove(%d, %d) failed", bucket, fp)
		}
		if b.Contains(bucket, fp) {
			t.Fatalf("Contains(%d, %d) true after remove", bucket, fp)
		}
	}
	if got := b.Occupancy(); got != 0 {
		t.Fatalf("occupancy after removes = %d", got)
	}
}

func TestBlock8SameFingerprintDifferentBuckets(t *testing.T) {
	var b Block8
	b.Reset()
	const fp = 0x7f
	for _, bucket := range []uint{2, 3, 50} {
		if !b.Insert(bucket, fp) {
			t.Fatal("insert failed")
		}
	}
	for _, bucket := range []uint{2, 3, 50} {
		if !b.Contains(bucket, fp) {
			t.Fatalf("bucket %d missing fp", bucket)
		}
	}
	if b.Contains(4, fp) {
		t.Fatal("fp leaked into bucket 4")
	}
	// Removing from one bucket must not disturb the others.
	if !b.Remove(3, fp) {
		t.Fatal("remove failed")
	}
	if b.Contains(3, fp) {
		t.Fatal("fp still in bucket 3")
	}
	if !b.Contains(2, fp) || !b.Contains(50, fp) {
		t.Fatal("remove disturbed sibling buckets")
	}
}

func TestBlock8Duplicates(t *testing.T) {
	var b Block8
	b.Reset()
	for i := 0; i < 3; i++ {
		if !b.Insert(7, 0xaa) {
			t.Fatal("duplicate insert failed")
		}
	}
	if got := b.BucketCount(7); got != 3 {
		t.Fatalf("BucketCount = %d, want 3", got)
	}
	// Each remove deletes exactly one copy.
	for i := 3; i > 0; i-- {
		if !b.Contains(7, 0xaa) {
			t.Fatalf("fp missing with %d copies left", i)
		}
		if !b.Remove(7, 0xaa) {
			t.Fatal("remove failed")
		}
	}
	if b.Contains(7, 0xaa) {
		t.Fatal("fp present after removing all copies")
	}
	if b.Remove(7, 0xaa) {
		t.Fatal("remove of absent fp succeeded")
	}
}

func TestBlock8FillToCapacity(t *testing.T) {
	var b Block8
	b.Reset()
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		bucket uint
		fp     byte
	}
	var entries []entry
	for i := 0; i < B8Slots; i++ {
		e := entry{uint(rng.Intn(B8Buckets)), byte(rng.Intn(256))}
		if !b.Insert(e.bucket, e.fp) {
			t.Fatalf("insert %d failed before capacity", i)
		}
		entries = append(entries, e)
	}
	if !b.Full() {
		t.Fatal("block not full after 48 inserts")
	}
	if b.Insert(0, 1) {
		t.Fatal("insert into full block succeeded")
	}
	// Every inserted entry must still be present.
	for _, e := range entries {
		if !b.Contains(e.bucket, e.fp) {
			t.Fatalf("entry (%d,%d) lost", e.bucket, e.fp)
		}
	}
	// When full, the top metadata bit must be the final terminator.
	if b.MetaHi>>63 != 1 {
		t.Fatal("top metadata bit not set in full block")
	}
	// Free one slot, insert succeeds again.
	if !b.Remove(entries[0].bucket, entries[0].fp) {
		t.Fatal("remove from full block failed")
	}
	if b.Full() {
		t.Fatal("still full after remove")
	}
	if !b.Insert(5, 99) {
		t.Fatal("insert after freeing a slot failed")
	}
}

// modelKey identifies a (bucket, fingerprint) pair in the reference model.
type modelKey struct {
	bucket uint
	fp     uint16
}

// layoutModel is a block's reference layout: each bucket's fingerprints in
// slot order. A block keeps its buckets' runs in bucket order, puts an
// inserted fingerprint at the end of its bucket's run and closes the gap a
// removal leaves, so its slots must read back as the concatenation of these
// runs, with every lane past them zero. Equal fingerprints are
// indistinguishable, so removing any one of them leaves the same layout.
type layoutModel[F byte | uint16] struct {
	runs [][]F
	occ  int
}

func (m *layoutModel[F]) insert(bucket uint, fp F) {
	m.runs[bucket] = append(m.runs[bucket], fp)
	m.occ++
}

func (m *layoutModel[F]) remove(bucket uint, fp F) bool {
	i := slices.Index(m.runs[bucket], fp)
	if i < 0 {
		return false
	}
	m.runs[bucket] = slices.Delete(m.runs[bucket], i, i+1)
	m.occ--
	return true
}

// modelBlock is the plain block surface of Block8 and Block16 with
// fingerprints of type F.
type modelBlock[F byte | uint16] interface {
	Insert(bucket uint, fp F) bool
	Remove(bucket uint, fp F) bool
	Contains(bucket uint, fp F) bool
	Occupancy() uint
	Lane(i int) F
	Iterate(yield func(bucket uint, fp F) bool) bool
}

// testBlockModel drives a random insert/remove/lookup stream over a small
// fingerprint alphabet (to force duplicates) through an empty block b and
// a layoutModel. After every op it requires the op's result, the
// occupancy, metaOnes (the metadata's one bits, one per bucket) and the
// exact slot layout to match the model.
func testBlockModel[F byte | uint16](t *testing.T, b modelBlock[F], buckets, slots, alphabet int, metaOnes func() int) {
	t.Helper()
	m := &layoutModel[F]{runs: make([][]F, buckets)}
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 30000; step++ {
		bucket := uint(rng.Intn(buckets))
		fp := F(rng.Intn(alphabet))
		op := [...]string{"insert", "remove", "contains"}[rng.Intn(3)]
		switch op {
		case "insert":
			ok := b.Insert(bucket, fp)
			if ok != (m.occ < slots) {
				t.Fatalf("step %d: insert ok=%v occ=%d", step, ok, m.occ)
			}
			if ok {
				m.insert(bucket, fp)
			}
		case "remove":
			if ok, want := b.Remove(bucket, fp), m.remove(bucket, fp); ok != want {
				t.Fatalf("step %d: remove ok=%v, want %v", step, ok, want)
			}
		case "contains":
			if got, want := b.Contains(bucket, fp), slices.Contains(m.runs[bucket], fp); got != want {
				t.Fatalf("step %d: contains=%v want %v", step, got, want)
			}
		}
		if got := b.Occupancy(); got != uint(m.occ) {
			t.Fatalf("step %d: occupancy=%d model=%d", step, got, m.occ)
		}
		if ones := metaOnes(); ones != buckets {
			t.Fatalf("step %d: %d ones in metadata, want %d", step, ones, buckets)
		}
		var got, want []modelKey
		b.Iterate(func(bk uint, f F) bool {
			got = append(got, modelKey{bk, uint16(f)})
			return true
		})
		for bk, run := range m.runs {
			for _, f := range run {
				want = append(want, modelKey{uint(bk), uint16(f)})
			}
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("step %d (%s bucket %d fp %d): slots diverge from the model at slot %d:\nblock %v\nmodel %v",
				step, op, bucket, fp, i, got[i:], want[i:])
		}
		for i := m.occ; i < slots; i++ {
			if lane := b.Lane(i); lane != 0 {
				t.Fatalf("step %d (%s bucket %d fp %d): unused slot %d holds %d", step, op, bucket, fp, i, lane)
			}
		}
	}
}

func TestBlock8ModelBased(t *testing.T) {
	var b Block8
	b.Reset()
	testBlockModel[byte](t, &b, B8Buckets, B8Slots, 8, func() int {
		return bits.OnesCount64(b.MetaLo) + bits.OnesCount64(b.MetaHi)
	})
}

// encodeLayout renders m as the eight raw words of the block it describes,
// metadata first (as blockWords returns them), written here from the block
// format alone: from metadata bit 0, each bucket is one zero per stored
// fingerprint followed by its terminator one, and the fingerprints fill
// consecutive lanes of width bits from the first fingerprint word, with
// every lane past them zero.
func encodeLayout[F byte | uint16](m *layoutModel[F], metaWords, width int) []uint64 {
	w := make([]uint64, 8)
	perWord := 64 / width
	pos, lane := 0, 0
	for _, run := range m.runs {
		for _, fp := range run {
			w[metaWords+lane/perWord] |= uint64(fp) << (width * (lane % perWord))
			lane++
		}
		pos += len(run)
		w[pos/64] |= 1 << (pos % 64)
		pos++
	}
	return w
}

// testBlockEncoding drives one random insert/remove/lookup stream through
// the block b (emptied by reset) on the generic kernels and then, where the
// build has them, on the assembly kernels. After every op it requires the
// op's result to match a layoutModel and the block's raw words to equal the
// model's encodeLayout bit for bit, metadata included. It leaves the
// assembly selected, the default.
func testBlockEncoding[F byte | uint16](t *testing.T, b modelBlock[F], reset func(), words func() []uint64, buckets, slots, metaWords, width int, seed int64) {
	t.Helper()
	defer SetAsmKernels(true)
	for _, asm := range []bool{false, true} {
		if SetAsmKernels(asm) != asm {
			continue // no assembly in this build: the generic pass is the only one
		}
		kernels := map[bool]string{false: "generic", true: "asm"}[asm]
		reset()
		m := &layoutModel[F]{runs: make([][]F, buckets)}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 20000; step++ {
			bucket := uint(rng.Intn(buckets))
			fp := F(rng.Intn(16))
			op := [...]string{"insert", "remove", "contains"}[rng.Intn(3)]
			var got, want bool
			switch op {
			case "insert":
				got, want = b.Insert(bucket, fp), m.occ < slots
				if got {
					m.insert(bucket, fp)
				}
			case "remove":
				got, want = b.Remove(bucket, fp), m.remove(bucket, fp)
			case "contains":
				got, want = b.Contains(bucket, fp), slices.Contains(m.runs[bucket], fp)
			}
			if got != want {
				t.Fatalf("%s kernels, step %d: %s(bucket %d, fp %d) = %v, want %v", kernels, step, op, bucket, fp, got, want)
			}
			if w, e := words(), encodeLayout(m, metaWords, width); !slices.Equal(w, e) {
				t.Fatalf("%s kernels, step %d (%s bucket %d fp %d): block words diverge from the model's encoding:\nblock %#x\nmodel %#x",
					kernels, step, op, bucket, fp, w, e)
			}
		}
	}
}

// TestBlock8GenericEquivalence holds the block, on each kernel build, to an
// independent encoding of its exact state: metadata words and fingerprint
// lanes must match encodeLayout bit for bit after every op.
func TestBlock8GenericEquivalence(t *testing.T) {
	var b Block8
	testBlockEncoding[byte](t, &b, b.Reset, func() []uint64 { return blockWords(&b) }, B8Buckets, B8Slots, 2, 8, 1)
}

func TestBlock8BucketCountsMatchModel(t *testing.T) {
	var b Block8
	b.Reset()
	counts := map[uint]uint{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < B8Slots; i++ {
		bucket := uint(rng.Intn(B8Buckets))
		if !b.Insert(bucket, byte(rng.Intn(256))) {
			t.Fatal("insert failed")
		}
		counts[bucket]++
	}
	for bucket := uint(0); bucket < B8Buckets; bucket++ {
		if got := b.BucketCount(bucket); got != counts[bucket] {
			t.Fatalf("bucket %d count = %d, want %d", bucket, got, counts[bucket])
		}
	}
}

func BenchmarkBlock8Insert(b *testing.B) {
	var blk Block8
	blk.Reset()
	rng := rand.New(rand.NewSource(4))
	buckets := make([]uint, 1024)
	fps := make([]byte, 1024)
	for i := range buckets {
		buckets[i] = uint(rng.Intn(B8Buckets))
		fps[i] = byte(rng.Intn(256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 1023
		if !blk.Insert(buckets[j], fps[j]) {
			blk.Reset()
		}
	}
}

func BenchmarkBlock8Contains(b *testing.B) {
	var blk Block8
	blk.Reset()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		blk.Insert(uint(rng.Intn(B8Buckets)), byte(rng.Intn(256)))
	}
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = blk.Contains(uint(i)%B8Buckets, byte(i))
	}
	_ = sink
}
