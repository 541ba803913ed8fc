package elastic

import (
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/workload"
)

// freezeHammer is the remove-after-freeze churn hammer. Unlike
// compactHammer (which removes from the batch it just inserted, so removes
// land on the newest, never-frozen level), each worker here keeps a backlog
// and removes 3/4 of the batch it inserted two rounds earlier — by then
// that batch's level has aged out of the insert path and is eligible for
// freezing, so removes race against fuse-level tombstones, the freeze
// build's remove log, and thaw rebuilds. A dedicated goroutine loops
// FreezeNow+CompactNow the whole time. Returns the number of keys left
// live; the lag tail (the last two rounds' batches) is never removed.
func freezeHammer(t *testing.T, f *CFilter, nWorkers, rounds, batch int) uint64 {
	t.Helper()
	const lag = 2
	cut := batch * 3 / 4
	var live atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			stream := workload.NewStream(seed)
			var backlog [][]uint64
			for r := 0; r < rounds; r++ {
				keys := stream.Keys(batch)
				for _, k := range keys {
					if !f.Insert(k) {
						t.Error("insert failed")
						return
					}
				}
				for _, k := range keys {
					if !f.Contains(k) {
						t.Errorf("false negative for acked insert %#x", k)
						return
					}
				}
				backlog = append(backlog, keys)
				live.Add(uint64(batch))
				if r < lag {
					continue
				}
				old := backlog[r-lag]
				for _, k := range old[:cut] {
					if !f.Remove(k) {
						t.Errorf("remove of aged key %#x failed", k)
						return
					}
				}
				for _, k := range old[cut:] {
					if !f.Contains(k) {
						t.Errorf("false negative for live aged key %#x", k)
						return
					}
				}
				live.Add(^uint64(cut - 1))
			}
		}(uint64(4000 + w))
	}
	var freezes int
	freezerDone := make(chan struct{})
	go func() {
		defer close(freezerDone)
		for !done.Load() {
			if res := f.FreezeNow(); res.LevelsFrozen > 0 {
				freezes++
			}
			f.CompactNow()
		}
	}()
	wg.Wait()
	done.Store(true)
	<-freezerDone
	if freezes == 0 {
		t.Log("warning: no freeze retired anything during the hammer")
	}
	return live.Load()
}

// TestFreezeRaceConcurrent is the remove-after-freeze regression test on a
// concurrent cascade: churn with aged removes races a freeze/compact loop,
// and the exact final count catches both lost inserts and resurrected
// removes.
func TestFreezeRaceConcurrent(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds, batch := 12, 1500
	if testing.Short() {
		rounds = 5
	}
	live := freezeHammer(t, f, 4, rounds, batch)
	if f.Count() != live {
		t.Fatalf("final count %d, want %d live keys (lost or resurrected instances)", f.Count(), live)
	}
	// Quiesced: re-derive each worker's stream and verify every key that was
	// never removed — the aged suffixes plus the lag tail.
	cut := batch * 3 / 4
	for w := 0; w < 4; w++ {
		stream := workload.NewStream(uint64(4000 + w))
		for r := 0; r < rounds; r++ {
			keys := stream.Keys(batch)
			from := cut
			if r >= rounds-2 {
				from = 0
			}
			for _, k := range keys[from:] {
				if !f.Contains(k) {
					t.Fatalf("lost live key %#x after quiescence", k)
				}
			}
		}
	}
}

// TestThawRaceConcurrent drives a frozen concurrent cascade past the thaw
// threshold while lookups run: the background thaw (triggered by the
// removes themselves) must splice levels without dropping a live key.
func TestThawRaceConcurrent(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(61).Keys(30000)
	for _, k := range keys {
		if !f.Insert(k) {
			t.Fatal("insert failed")
		}
	}
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Skip("cascade shape yielded no fuse level")
	}

	// Half the goroutines remove the first 60% of the keys (enough to push
	// every fuse level past ¼ tombstones); the rest hammer lookups on the
	// surviving tail.
	cut := len(keys) * 6 / 10
	var removers, lookers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 2; w++ {
		removers.Add(1)
		go func(part int) {
			defer removers.Done()
			for i := part; i < cut; i += 2 {
				if !f.Remove(keys[i]) {
					t.Errorf("remove of live key %#x failed", keys[i])
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		lookers.Add(1)
		go func() {
			defer lookers.Done()
			for !done.Load() {
				for _, k := range keys[cut:] {
					if !f.Contains(k) {
						t.Errorf("false negative for never-removed key %#x during thaw", k)
						return
					}
				}
			}
		}()
	}
	removers.Wait()
	done.Store(true)
	lookers.Wait()

	f.thawNow() // drain any remaining over-threshold levels inline
	if f.Count() != uint64(len(keys)-cut) {
		t.Fatalf("count %d after thaw churn, want %d", f.Count(), len(keys)-cut)
	}
	for _, k := range keys[cut:] {
		if !f.Contains(k) {
			t.Fatalf("thaw lost live key %#x", k)
		}
	}
}
