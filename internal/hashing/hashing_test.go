package hashing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Distinct inputs must produce distinct outputs (spot check a large set).
	seen := make(map[uint64]uint64, 100000)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestMix64AvalancheRough(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	rng := rand.New(rand.NewSource(1))
	var total, count float64
	for i := 0; i < 2000; i++ {
		x := rng.Uint64()
		bit := uint(rng.Intn(64))
		d := Mix64(x) ^ Mix64(x^(1<<bit))
		total += float64(popcount(d))
		count++
	}
	mean := total / count
	if mean < 28 || mean > 36 {
		t.Errorf("avalanche mean = %.2f bits, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestMix64SeededIndependence(t *testing.T) {
	// Different seeds must give (practically) independent hashes.
	if Mix64Seeded(42, 1) == Mix64Seeded(42, 2) {
		t.Error("seeds 1 and 2 collide on input 42")
	}
	matches := 0
	for i := uint64(0); i < 10000; i++ {
		if Mix64Seeded(i, 7)&0xff == Mix64Seeded(i, 8)&0xff {
			matches++
		}
	}
	// Expect ~10000/256 ≈ 39 matches on the low byte.
	if matches > 120 {
		t.Errorf("low-byte agreement between seeds = %d/10000, too correlated", matches)
	}
}

func TestAltIndexInvolution(t *testing.T) {
	f := func(idx, tag uint64, logk uint8) bool {
		mask := uint64(1)<<(logk%24+1) - 1
		i := idx & mask
		alt := AltIndex(i, tag, mask)
		return alt <= mask && AltIndex(alt, tag, mask) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAltIndexMoves(t *testing.T) {
	// With a nonzero tag, the alternate index should usually differ.
	same := 0
	const mask = 1<<16 - 1
	for i := uint64(0); i < 10000; i++ {
		tag := Mix64(i)&0xff + 1
		if AltIndex(i&mask, tag, mask) == i&mask {
			same++
		}
	}
	if same > 50 {
		t.Errorf("alt == primary for %d/10000 items", same)
	}
}

func TestHashBytesKnownVectors(t *testing.T) {
	// Official XXH64 test vectors.
	cases := []struct {
		data string
		seed uint64
		want uint64
	}{
		{"", 0, 0xef46db3751d8e999},
		{"", 1, 0xd5afba1336a3be4b},
		{"a", 0, 0xd24ec4f1a98c6e5b},
		{"as", 0, 0x1c330fb2d66be179},
		{"asd", 0, 0x631c37ce72a97393},
		{"asdf", 0, 0x415872f599cea71e},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0, 0x02a2e85470d6fd96},
	}
	for _, c := range cases {
		if got := HashBytes([]byte(c.data), c.seed); got != c.want {
			t.Errorf("HashBytes(%q, %d) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

func TestHashStringMatchesHashBytes(t *testing.T) {
	inputs := []string{"", "x", "hello world", string(make([]byte, 63)),
		string(make([]byte, 64)), string(make([]byte, 65)), string(make([]byte, 1000))}
	for _, s := range inputs {
		if HashString(s, 99) != HashBytes([]byte(s), 99) {
			t.Errorf("HashString(%d bytes) != HashBytes", len(s))
		}
	}
}

func TestHashBytesAllLengths(t *testing.T) {
	// Every length 0..128 must hash without panicking and lengths must not
	// collide trivially.
	data := make([]byte, 128)
	rand.New(rand.NewSource(4)).Read(data)
	seen := map[uint64]int{}
	for n := 0; n <= 128; n++ {
		h := HashBytes(data[:n], 0)
		if prev, ok := seen[h]; ok {
			t.Fatalf("length %d collides with length %d", n, prev)
		}
		seen[h] = n
	}
}

func TestHashUint64Distribution(t *testing.T) {
	// Sequential keys must spread across high bits (used for block indexes).
	const buckets = 64
	counts := make([]int, buckets)
	const samples = 64000
	for i := uint64(0); i < samples; i++ {
		counts[HashUint64(i, 0)>>58]++
	}
	expected := float64(samples) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.25 {
			t.Errorf("bucket %d count %d deviates >25%% from %f", i, c, expected)
		}
	}
}

func BenchmarkMix64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Mix64(uint64(i))
	}
	_ = sink
}

func BenchmarkHashBytes16(b *testing.B) {
	data := make([]byte, 16)
	b.SetBytes(16)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += HashBytes(data, uint64(i))
	}
	_ = sink
}

func BenchmarkHashBytes256(b *testing.B) {
	data := make([]byte, 256)
	b.SetBytes(256)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += HashBytes(data, uint64(i))
	}
	_ = sink
}
