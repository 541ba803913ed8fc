package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/workload"
)

// monotone checks that every counter of cur is ≥ the same counter of prev.
func monotone(prev, cur stats.OpCounts) bool {
	d := cur.Sub(prev)
	// Unsigned subtraction wraps on regression; any component at or above
	// 1<<63 means cur < prev.
	for _, v := range []uint64{d.Inserts, d.InsertFailures, d.ShortcutInserts, d.Lookups,
		d.Removes, d.RemoveMisses, d.OptAttempts, d.OptRetries, d.OptFallbacks,
		d.BatchOps, d.BatchKeys} {
		if v >= 1<<63 {
			return false
		}
	}
	return true
}

// TestStatsUnderContention hammers a concurrent filter with parallel
// readers, writers, and a stats sampler (run with -race in CI), then checks
// the retry/fallback accounting invariants against the op totals.
func TestStatsUnderContention(t *testing.T) {
	f := NewCFilter8(1<<14, Options{})
	fill := workload.NewStream(7)
	keys := make([]uint64, 0, f.Capacity()/2)
	for uint64(len(keys)) < f.Capacity()/2 {
		h := fill.Next()
		if f.Insert(h) {
			keys = append(keys, h)
		}
	}
	base := f.Stats()

	const (
		writers = 2
		readers = 2
		perG    = 20000
	)
	var workersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			s := workload.NewStream(uint64(100 + w))
			var churn []uint64
			for i := 0; i < perG; i++ {
				if len(churn) > 32 {
					k := churn[len(churn)-1]
					churn = churn[:len(churn)-1]
					f.Remove(k)
					continue
				}
				h := s.Next()
				if f.Insert(h) {
					churn = append(churn, h)
				}
			}
			for _, k := range churn {
				f.Remove(k)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		workersWG.Add(1)
		go func(r int) {
			defer workersWG.Done()
			s := workload.NewStream(uint64(200 + r))
			for i := 0; i < perG; i++ {
				h := s.Next()
				if i&1 == 0 {
					h = keys[h%uint64(len(keys))]
					if !f.Contains(h) {
						panic("false negative under contention")
					}
				} else {
					f.Contains(h)
				}
			}
		}(r)
	}

	// Sampler: counters must be individually monotone while ops are in
	// flight, and structural snapshots must never block or corrupt anything.
	var stop atomic.Bool
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	samples := 0
	go func() {
		defer samplerWG.Done()
		prev := f.Stats()
		for !stop.Load() {
			cur := f.Stats()
			if !monotone(prev, cur) {
				panic("stats regressed between samples")
			}
			prev = cur
			f.BlockOccupancies() // concurrent structural snapshot
			samples++
		}
	}()

	workersWG.Wait()
	stop.Store(true)
	samplerWG.Wait()
	if samples == 0 {
		t.Fatal("sampler never ran")
	}

	st := f.Stats().Sub(base)
	if st.OptRetries < uint64(minifilter.OptRetryBudget)*st.OptFallbacks {
		t.Fatalf("retries %d < budget %d × fallbacks %d",
			st.OptRetries, minifilter.OptRetryBudget, st.OptFallbacks)
	}
	if st.OptAttempts < st.Lookups {
		t.Fatalf("attempts %d < lookups %d", st.OptAttempts, st.Lookups)
	}
	// Only lookups read optimistically, one or two blocks each.
	if maxAtt := 2 * st.Lookups; st.OptAttempts > maxAtt {
		t.Fatalf("attempts %d > bound %d", st.OptAttempts, maxAtt)
	}
	total := f.Stats()
	if total.Inserts-total.Removes != f.Count() {
		t.Fatalf("inserts−removes = %d, Count = %d", total.Inserts-total.Removes, f.Count())
	}
}

// TestStatsUnderContention16 runs the same invariants on the 16-bit variant.
func TestStatsUnderContention16(t *testing.T) {
	f := NewCFilter16(1<<13, Options{})
	s := workload.NewStream(9)
	keys := make([]uint64, 0, f.Capacity()/2)
	for uint64(len(keys)) < f.Capacity()/2 {
		h := s.Next()
		if f.Insert(h) {
			keys = append(keys, h)
		}
	}
	base := f.Stats()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := workload.NewStream(uint64(300 + g))
			for i := 0; i < 10000; i++ {
				if g == 0 && i%5 == 0 {
					h := s.Next()
					if f.Insert(h) {
						f.Remove(h)
					}
					continue
				}
				f.Contains(keys[s.Next()%uint64(len(keys))])
			}
		}(g)
	}
	wg.Wait()
	st := f.Stats().Sub(base)
	if st.OptRetries < uint64(minifilter.OptRetryBudget)*st.OptFallbacks {
		t.Fatalf("retries %d < budget × fallbacks %d", st.OptRetries, st.OptFallbacks)
	}
	if st.OptAttempts < st.Lookups {
		t.Fatalf("attempts %d < lookups %d", st.OptAttempts, st.Lookups)
	}
	if f.Stats().Inserts-f.Stats().Removes != f.Count() {
		t.Fatalf("count mismatch")
	}
}
