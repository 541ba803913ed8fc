package core

import (
	"math/rand"
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

// TestCFilter8BatchMatchesSequentialCount checks the parallel insert path
// against the sequential filter on an identical radix-ordered stream: the
// number of stored fingerprints and membership answers must agree.
func TestCFilter8BatchMatchesSequentialCount(t *testing.T) {
	cf := NewCFilter8(1<<14, Options{})
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 12000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	got := cf.InsertBatch(keys)
	if got != len(keys) {
		t.Fatalf("InsertBatch = %d, want %d", got, len(keys))
	}
	for _, h := range keys {
		if !cf.Contains(h) {
			t.Fatal("batch-inserted key missing")
		}
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

// TestBatchLookupChurn races the validated batch kernel against writers on
// a 64-block filter, so that batches keep overlapping writes to their
// blocks. A resident set is inserted up front and never removed; every
// ContainsBatch over it must find every resident, and the run lasts until
// the filter has counted optimistic retries, which shows that the conflict
// path — the kernel handing keys back to the per-key path — ran. The race
// detector does not see into assembly, so this test, not -race, is what
// checks the kernel's validation; CI runs it repeatedly at GOMAXPROCS 4.
func TestBatchLookupChurn(t *testing.T) {
	const slots = 64 * 48 // 64 Block8s; the 16-bit filters get 128 blocks of 28 slots
	for _, c := range []struct {
		name string
		f    interface {
			Insert(h uint64) bool
			Remove(h uint64) bool
			ContainsBatch(hs []uint64, dst []bool) []bool
			Stats() stats.OpCounts
		}
	}{
		{"CFilter8", NewCFilter8(slots, Options{})},
		{"CFilter16", NewCFilter16(slots, Options{})},
		{"Sharded8", NewSharded8(slots, 2, Options{})},
		{"Sharded16", NewSharded16(slots, 2, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := c.f
			res := workload.NewStream(41).Keys(slots / 3)
			for _, h := range res {
				if !f.Insert(h) {
					t.Fatal("resident insert failed at a third of capacity")
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := workload.NewStream(uint64(500 + w))
					var live []uint64
					for !stop.Load() {
						if len(live) == 64 {
							for _, h := range live {
								f.Remove(h)
							}
							live = live[:0]
						}
						if h := s.Next(); f.Insert(h) {
							live = append(live, h)
						}
					}
					for _, h := range live {
						f.Remove(h)
					}
				}(w)
			}
			dst := make([]bool, len(res))
			deadline := time.Now().Add(10 * time.Second)
			rounds := 0
			for ; rounds < 200 || f.Stats().OptRetries == 0 && time.Now().Before(deadline); rounds++ {
				out := f.ContainsBatch(res, dst)
				for i, ok := range out {
					if !ok {
						stop.Store(true)
						wg.Wait()
						t.Fatalf("round %d: resident %d (%#x) lost under churn", rounds, i, res[i])
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			if st := f.Stats(); st.OptRetries == 0 {
				t.Fatalf("%d batch rounds under 3 writers counted no optimistic retry", rounds)
			}
		})
	}
}
