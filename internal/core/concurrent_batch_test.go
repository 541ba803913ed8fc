package core

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vqf/internal/stats"
	"vqf/internal/workload"
)

func TestCFilter8BatchRoundTrip(t *testing.T) {
	f := NewCFilter8(1<<15, Options{})
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	if got := f.InsertBatch(keys); got != len(keys) {
		t.Fatalf("InsertBatch = %d, want %d", got, len(keys))
	}
	if f.Count() != uint64(len(keys)) {
		t.Fatalf("Count = %d, want %d", f.Count(), len(keys))
	}

	// ContainsBatch must answer in input order and agree with Contains,
	// for present and absent keys interleaved.
	probes := make([]uint64, 0, len(keys)*2)
	for i, h := range keys {
		probes = append(probes, h)
		if i%2 == 0 {
			probes = append(probes, rng.Uint64())
		}
	}
	out := f.ContainsBatch(probes, nil)
	if len(out) != len(probes) {
		t.Fatalf("ContainsBatch len = %d, want %d", len(out), len(probes))
	}
	for i, h := range probes {
		if out[i] != f.Contains(h) {
			t.Fatalf("probe %d: batch=%v single=%v", i, out[i], f.Contains(h))
		}
	}
	// dst reuse: a result slice with enough capacity is returned in place.
	reuse := make([]bool, len(probes)+5)
	out2 := f.ContainsBatch(probes, reuse)
	if &out2[0] != &reuse[0] || len(out2) != len(probes) {
		t.Fatal("ContainsBatch did not reuse dst")
	}

	// RemoveBatch: every inserted key is found and removed exactly once.
	half := keys[:len(keys)/2]
	if got := f.RemoveBatch(half); got != len(half) {
		t.Fatalf("RemoveBatch = %d, want %d", got, len(half))
	}
	if f.Count() != uint64(len(keys)-len(half)) {
		t.Fatalf("Count after RemoveBatch = %d, want %d", f.Count(), len(keys)-len(half))
	}
	for _, h := range keys[len(keys)/2:] {
		if !f.Contains(h) {
			t.Fatal("remaining key missing after RemoveBatch")
		}
	}
}

func TestCFilter16BatchRoundTrip(t *testing.T) {
	f := NewCFilter16(1<<14, Options{})
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	if got := f.InsertBatch(keys); got != len(keys) {
		t.Fatalf("InsertBatch = %d, want %d", got, len(keys))
	}
	out := f.ContainsBatch(keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatal("inserted key missing from ContainsBatch")
		}
	}
	if got := f.RemoveBatch(keys); got != len(keys) {
		t.Fatalf("RemoveBatch = %d, want %d", got, len(keys))
	}
	if f.Count() != 0 {
		t.Fatalf("Count = %d after full RemoveBatch", f.Count())
	}
}

// TestCFilterParallelBatchAccounting pins the parallel batch write's
// bookkeeping: with several workers claiming radix buckets, the per-key
// outcomes land in the operation counters and the count moves by exactly
// the successes, with absent keys among the removes.
func TestCFilterParallelBatchAccounting(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type batchFilter interface {
		InsertBatch([]uint64) int
		RemoveBatch([]uint64) int
		Count() uint64
		Stats() stats.OpCounts
	}
	for _, c := range []struct {
		name string
		f    batchFilter
	}{
		{"CFilter8", NewCFilter8(1<<16, Options{})},
		{"CFilter16", NewCFilter16(1<<16, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			keys := make([]uint64, 3*minParallelBatch)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			if w := batchWorkers(len(keys), batchShards); w < 2 {
				t.Fatalf("scenario too weak: %d keys run on %d worker", len(keys), w)
			}
			if got := c.f.InsertBatch(keys); got != len(keys) {
				t.Fatalf("InsertBatch = %d, want %d", got, len(keys))
			}
			// Every other removal is of an absent key.
			mixed := make([]uint64, 0, len(keys))
			for i, h := range keys[:len(keys)/2] {
				mixed = append(mixed, h)
				if i%2 == 0 {
					mixed = append(mixed, rng.Uint64())
				}
			}
			if got := c.f.RemoveBatch(mixed); got != len(keys)/2 {
				t.Fatalf("RemoveBatch = %d, want %d", got, len(keys)/2)
			}
			if got, want := c.f.Count(), uint64(len(keys)-len(keys)/2); got != want {
				t.Fatalf("Count = %d, want %d", got, want)
			}
			st := c.f.Stats()
			if st.Inserts != uint64(len(keys)) || st.Removes != uint64(len(keys)/2) ||
				st.RemoveMisses != uint64(len(mixed)-len(keys)/2) || st.BatchKeys != uint64(len(keys)+len(mixed)) {
				t.Fatalf("counters %+v after %d inserts, %d removes of which %d hit", st, len(keys), len(mixed), len(keys)/2)
			}
		})
	}
}

// TestCFilter8BatchSmall exercises the sequential (non-partitioned,
// single-worker) fallback paths.
func TestCFilter8BatchSmall(t *testing.T) {
	f := NewCFilter8(1<<10, Options{})
	keys := []uint64{1, 2, 3, 4, 5}
	if got := f.InsertBatch(keys); got != len(keys) {
		t.Fatalf("InsertBatch = %d", got)
	}
	out := f.ContainsBatch(keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatal("small-batch key missing")
		}
	}
	if got := f.RemoveBatch(keys); got != len(keys) {
		t.Fatalf("RemoveBatch = %d", got)
	}
}

// TestCFilter8BatchMatchesSequentialCount checks the concurrent batch
// insert against the sequential filter fed the same keys one at a time in
// caller order. On one worker the batch runs in caller order too, so the
// number of stored fingerprints and every membership answer, false
// positives included, must agree; on the parallel path every key must
// land.
func TestCFilter8BatchMatchesSequentialCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 12000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for _, procs := range []int{1, 4} {
		t.Run(strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cf := NewCFilter8(1<<14, Options{})
			if got := cf.InsertBatch(keys); got != len(keys) {
				t.Fatalf("InsertBatch = %d, want %d", got, len(keys))
			}
			for _, h := range keys {
				if !cf.Contains(h) {
					t.Fatal("batch-inserted key missing")
				}
			}
			if batchWorkers(len(keys), batchShards) > 1 {
				return
			}
			model := NewFilter8(1<<14, Options{})
			for _, h := range keys {
				model.Insert(h)
			}
			if cf.Count() != model.Count() {
				t.Fatalf("count %d, caller-order reference %d", cf.Count(), model.Count())
			}
			probe := rand.New(rand.NewSource(33))
			for range 50000 {
				if h := probe.Uint64(); cf.Contains(h) != model.Contains(h) {
					t.Fatalf("membership of %#x differs from the caller-order reference", h)
				}
			}
		})
	}
}

// TestCFilter8BatchConcurrentWithPointOps runs InsertBatch concurrently
// with point queries and removes on an overlapping key space; under -race
// this crosses the batch worker pool with the optimistic read path.
func TestCFilter8BatchConcurrentWithPointOps(t *testing.T) {
	f := NewCFilter8(1<<15, Options{})
	rng := rand.New(rand.NewSource(4))
	stable := make([]uint64, 2000)
	for i := range stable {
		stable[i] = rng.Uint64()
		if !f.Insert(stable[i]) {
			t.Fatal("stable insert failed")
		}
	}
	batch := make([]uint64, 30000)
	for i := range batch {
		batch[i] = rng.Uint64()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if got := f.InsertBatch(batch); got != len(batch) {
			t.Errorf("InsertBatch = %d, want %d", got, len(batch))
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20000; i++ {
			if !f.Contains(stable[rng.Intn(len(stable))]) {
				t.Error("false negative on stable key during batch insert")
				return
			}
		}
	}()
	wg.Wait()
	if got := f.RemoveBatch(batch); got != len(batch) {
		t.Fatalf("RemoveBatch = %d, want %d", got, len(batch))
	}
}

// lookupChurnFilter is the surface the batch lookup churn tests drive.
type lookupChurnFilter interface {
	Insert(h uint64) bool
	Remove(h uint64) bool
	ContainsBatch(hs []uint64, dst []bool) []bool
	Stats() stats.OpCounts
	Capacity() uint64
}

// churnLookups runs ContainsBatch over batch, made of f's residents, while
// three writers insert keys of their own and remove them again once each
// holds live of them. Every batch must find every key, and the rounds run
// until the filter has counted optimistic retries (at least 200 rounds, at
// most 10 s), which shows that the conflict path — the kernel handing keys
// back to the per-key path — ran.
func churnLookups(t *testing.T, f lookupChurnFilter, batch []uint64, live int, seed uint64) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := workload.NewStream(seed + uint64(w))
			var mine []uint64
			for !stop.Load() {
				if len(mine) == live {
					for _, h := range mine {
						f.Remove(h)
					}
					mine = mine[:0]
				}
				if h := s.Next(); f.Insert(h) {
					mine = append(mine, h)
				}
			}
			for _, h := range mine {
				f.Remove(h)
			}
		}(w)
	}
	dst := make([]bool, len(batch))
	deadline := time.Now().Add(10 * time.Second)
	rounds := 0
	for ; rounds < 200 || f.Stats().OptRetries == 0 && time.Now().Before(deadline); rounds++ {
		out := f.ContainsBatch(batch, dst)
		for i, ok := range out {
			if !ok {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("round %d: resident %#x (batch key %d) lost under churn", rounds, batch[i], i)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := f.Stats(); st.OptRetries == 0 {
		t.Fatalf("%d batch rounds under 3 writers counted no optimistic retry", rounds)
	}
}

// TestBatchLookupChurn races the validated batch kernel against writers on
// a 64-block filter, so that batches keep overlapping writes to their
// blocks. A resident set is inserted up front and never removed; every
// ContainsBatch over it must find every resident (see churnLookups). The
// race detector does not see into assembly, so this test and
// TestBatchLookupChurnHot, not -race, are what check the kernel's
// validation; CI runs them repeatedly at GOMAXPROCS 4.
func TestBatchLookupChurn(t *testing.T) {
	const slots = 64 * 48 // 64 Block8s; the 16-bit filters get 128 blocks of 28 slots
	for _, c := range []struct {
		name string
		f    lookupChurnFilter
	}{
		{"CFilter8", NewCFilter8(slots, Options{})},
		{"CFilter16", NewCFilter16(slots, Options{})},
		{"Sharded8", NewSharded8(slots, 2, Options{})},
		{"Sharded16", NewSharded16(slots, 2, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := workload.NewStream(41).Keys(slots / 3)
			for _, h := range res {
				if !c.f.Insert(h) {
					t.Fatal("resident insert failed at a third of capacity")
				}
			}
			churnLookups(t, c.f, res, 64, 500)
		})
	}
}

// TestBatchLookupChurnHot is TestBatchLookupChurn on filters of two blocks
// (two per shard on the sharded ones) held near full: residents fill half
// of every filter and the writers churn the rest. Each batch repeats the
// residents to 1024 keys, four chunks of the 8-bit kernel, so between a
// chunk's compare pass and its select pass the writers change the very
// blocks, and bump the very stripes, that the chunk's records came from.
func TestBatchLookupChurnHot(t *testing.T) {
	for _, c := range []struct {
		name string
		f    lookupChurnFilter
	}{
		{"CFilter8", NewCFilter8(2*48, Options{})},
		{"CFilter16", NewCFilter16(2*28, Options{})},
		{"Sharded8", NewSharded8(4*48, 2, Options{})},
		{"Sharded16", NewSharded16(4*28, 2, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			var res []uint64
			for s := workload.NewStream(43); uint64(len(res)) < c.f.Capacity()/2; {
				if h := s.Next(); c.f.Insert(h) {
					res = append(res, h)
				}
			}
			batch := make([]uint64, 1024)
			for i := range batch {
				batch[i] = res[i%len(res)]
			}
			churnLookups(t, c.f, batch, 8, 700)
		})
	}
}

// BenchmarkShardedContainsBatch times the validated batch kernel at the
// vqfd-binary workload's geometry: 2^20 items over two shards (Sharded8:
// 2 MiB of blocks), filled to 70% load, answering 512-key batches of which
// every other key is stored. The queries cycle through 2^18 keys, so the
// batches touch the whole array. Reported per key.
func BenchmarkShardedContainsBatch(b *testing.B) {
	const batch = 512
	items := 1 << 20
	nslots := uint64(float64(items)/0.9) + 1 // vqf.NewSharded's sizing
	type filter interface {
		Insert(h uint64) bool
		ContainsBatch(hs []uint64, dst []bool) []bool
		Capacity() uint64
	}
	for _, c := range []struct {
		name string
		make func() filter
	}{
		{"Sharded8", func() filter { return NewSharded8(nslots, 2, Options{}) }},
		{"Sharded16", func() filter { return NewSharded16(nslots, 2, Options{}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, s := c.make(), workload.NewStream(7)
			stored := make([]uint64, 0, f.Capacity())
			for want := int(0.7 * float64(f.Capacity())); len(stored) < want; {
				if h := s.Next(); f.Insert(h) {
					stored = append(stored, h)
				}
			}
			qs := make([]uint64, 1<<18)
			for i := range qs {
				if i%2 == 0 {
					qs[i] = stored[i*7919%len(stored)]
				} else {
					qs[i] = s.Next()
				}
			}
			dst := make([]bool, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i * batch % len(qs)
				f.ContainsBatch(qs[off:off+batch], dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
		})
	}
}
