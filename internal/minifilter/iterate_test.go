package minifilter

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// iterFill8 inserts n random (bucket, fp) pairs and returns them in slot
// order (sorted by bucket, instances of one bucket in insertion-reversed
// order is fine: the multiset is what iteration must reproduce).
func iterFill8(t *testing.T, b *Block8, rng *rand.Rand, n int) map[[2]uint16]int {
	t.Helper()
	want := map[[2]uint16]int{}
	for i := 0; i < n; i++ {
		bucket := uint(rng.Intn(B8Buckets))
		fp := byte(rng.Intn(256))
		if !b.Insert(bucket, fp) {
			t.Fatalf("insert %d failed below capacity", i)
		}
		want[[2]uint16{uint16(bucket), uint16(fp)}]++
	}
	return want
}

func collect8(b *Block8) (pairs [][2]uint16, buckets []uint) {
	b.Iterate(func(bucket uint, fp byte) bool {
		pairs = append(pairs, [2]uint16{uint16(bucket), uint16(fp)})
		buckets = append(buckets, bucket)
		return true
	})
	return
}

func TestIterateBlock8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 31, B8Slots} {
		var b Block8
		b.Reset()
		want := iterFill8(t, &b, rng, n)
		pairs, buckets := collect8(&b)
		if len(pairs) != n {
			t.Fatalf("n=%d: iterated %d slots", n, len(pairs))
		}
		got := map[[2]uint16]int{}
		for _, p := range pairs {
			got[p]++
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("n=%d: pair %v count %d, want %d", n, k, got[k], c)
			}
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("n=%d: buckets not monotone: %v", n, buckets)
			}
		}
	}
}

func TestIterateBlock16(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 19, B16Slots} {
		var b Block16
		b.Reset()
		want := map[[2]uint32]int{}
		for i := 0; i < n; i++ {
			bucket := uint(rng.Intn(B16Buckets))
			fp := uint16(rng.Intn(1 << 16))
			if !b.Insert(bucket, fp) {
				t.Fatalf("insert %d failed below capacity", i)
			}
			want[[2]uint32{uint32(bucket), uint32(fp)}]++
		}
		got := map[[2]uint32]int{}
		count := 0
		b.Iterate(func(bucket uint, fp uint16) bool {
			got[[2]uint32{uint32(bucket), uint32(fp)}]++
			count++
			return true
		})
		if count != n {
			t.Fatalf("n=%d: iterated %d slots", n, count)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("n=%d: pair %v count %d, want %d", n, k, got[k], c)
			}
		}
	}
}

func TestIterateEarlyStop(t *testing.T) {
	var b Block8
	b.Reset()
	for i := 0; i < 10; i++ {
		b.Insert(uint(i), byte(i))
	}
	seen := 0
	if b.Iterate(func(uint, byte) bool { seen++; return seen < 3 }) {
		t.Fatal("early-stopped walk reported completion")
	}
	if seen != 3 {
		t.Fatalf("saw %d slots after stop at 3", seen)
	}
}

// TestSnapshotIterateLockedForms drives SnapshotIterate over blocks built
// through the locked mutation path — including a completely full block,
// whose final terminator is represented by the forced top bit — and checks
// the walk agrees with locked Contains.
func TestSnapshotIterateLockedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var seq atomic.Uint64
	for _, n := range []int{0, 1, 17, B8Slots} {
		var b Block8
		b.Reset()
		want := map[[2]uint16]int{}
		for i := 0; i < n; i++ {
			bucket := uint(rng.Intn(B8Buckets))
			fp := byte(rng.Intn(256))
			b.Lock()
			if !b.InsertLocked(bucket, fp) {
				t.Fatalf("locked insert %d failed below capacity", i)
			}
			b.UnlockBump(&seq)
			want[[2]uint16{uint16(bucket), uint16(fp)}]++
		}
		got := map[[2]uint16]int{}
		count := 0
		b.SnapshotIterate(&seq, func(bucket uint, fp byte) bool {
			got[[2]uint16{uint16(bucket), uint16(fp)}]++
			count++
			return true
		})
		if count != n {
			t.Fatalf("n=%d: iterated %d slots", n, count)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("n=%d: pair %v count %d, want %d", n, k, got[k], c)
			}
		}
	}

	var b16 Block16
	b16.Reset()
	for i := 0; i < B16Slots; i++ {
		b16.Lock()
		if !b16.InsertLocked(uint(i%B16Buckets), uint16(i*7)) {
			t.Fatalf("locked insert %d failed", i)
		}
		b16.UnlockBump(&seq)
	}
	count := 0
	b16.SnapshotIterate(&seq, func(uint, uint16) bool { count++; return true })
	if count != B16Slots {
		t.Fatalf("full Block16: iterated %d slots", count)
	}
}

// TestSnapshotIterateUnderWriters checks that SnapshotIterate taken while a
// writer hammers the block always yields an internally consistent state:
// the walk's slot count must match some occupancy the block actually had
// (here: between 0 and B8Slots with every yielded pair one the writer
// inserted).
func TestSnapshotIterateUnderWriters(t *testing.T) {
	var b Block8
	b.Reset()
	var seq atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			bucket, fp := uint(i%B8Buckets), byte(i)
			b.Lock()
			if !b.InsertLocked(bucket, fp) {
				b.RemoveLocked(bucket, fp)
			}
			b.UnlockBump(&seq)
			i++
		}
	}()
	for i := 0; i < 2000; i++ {
		n := 0
		b.SnapshotIterate(&seq, func(bucket uint, fp byte) bool {
			if bucket >= B8Buckets {
				t.Errorf("bucket %d out of range", bucket)
				return false
			}
			n++
			return true
		})
		if n > B8Slots {
			t.Fatalf("iterated %d slots > capacity", n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestProbeOptimistic checks the counted optimistic probe the concurrent
// filters run — Snapshot, then Probe on the copy — counts every matching
// instance and reports no retry on a quiescent block.
func TestProbeOptimistic(t *testing.T) {
	var b Block8
	b.Reset()
	var seq atomic.Uint64
	b.Lock()
	b.InsertLocked(5, 0xAB)
	b.InsertLocked(5, 0xAB)
	b.InsertLocked(5, 0xCD)
	b.UnlockBump(&seq)
	bcast := uint64(0xABABABABABABABAB)
	var s Snap8
	if retries, fellBack := b.Snapshot(&seq, &s); retries != 0 || fellBack {
		t.Fatalf("quiescent snapshot: retries %d, fell back %v", retries, fellBack)
	}
	if got := popcount(s.Probe(5, bcast)); got != 2 {
		t.Fatalf("snapshot probe matched %d instances, want 2", got)
	}
	if got := popcount(s.Probe(6, bcast)); got != 0 {
		t.Fatalf("snapshot probe matched %d in empty bucket", got)
	}

}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
