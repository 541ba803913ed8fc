package elastic

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/workload"
)

// compactHammer drives nWorkers insert/lookup/remove goroutines against f
// while a dedicated goroutine loops CompactNow until the workers finish.
// Each worker owns a disjoint key stream: it inserts a batch, verifies
// every acked insert is visible, removes a prefix of the batch, and
// verifies the removed keys' absence is never "undone" by a compaction
// (the live suffix must stay visible throughout). Returns the total number
// of keys left live.
func compactHammer(t *testing.T, f *CFilter, nWorkers, rounds, batch int) uint64 {
	t.Helper()
	var live atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			stream := workload.NewStream(seed)
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
				cut := batch * 3 / 4
				for _, k := range keys[:cut] {
					if !f.Remove(k) {
						t.Errorf("remove of inserted key %#x failed", k)
						return
					}
				}
				for _, k := range keys[cut:] {
					if !f.Contains(k) {
						t.Errorf("false negative for live key %#x after removes", k)
						return
					}
				}
				live.Add(uint64(batch - cut))
			}
		}(uint64(1000 + w))
	}
	var compactions int
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for !done.Load() {
			if res := f.CompactNow(); res.LevelsMerged > 0 {
				compactions++
			}
		}
	}()
	wg.Wait()
	done.Store(true)
	<-compactorDone
	if compactions == 0 {
		t.Log("warning: no compaction merged anything during the hammer")
	}
	return live.Load()
}

// TestCompactRaceConcurrent hammers a concurrent cascade with churn while
// compactions loop: acked inserts must never go missing and removed keys
// must never resurrect (checked via the exact final count — a resurrection
// would leave the count high).
func TestCompactRaceConcurrent(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds, batch := 12, 1500
	if testing.Short() {
		rounds = 4
	}
	live := compactHammer(t, f, 4, rounds, batch)
	if f.Count() != live {
		t.Fatalf("final count %d, want %d live keys (lost or resurrected instances)", f.Count(), live)
	}
	// Quiesced: every worker's live suffix must still answer true. Workers
	// re-derive their streams deterministically.
	for w := 0; w < 4; w++ {
		stream := workload.NewStream(uint64(1000 + w))
		for r := 0; r < rounds; r++ {
			keys := stream.Keys(batch)
			for _, k := range keys[batch*3/4:] {
				if !f.Contains(k) {
					t.Fatalf("lost live key %#x after quiescence", k)
				}
			}
		}
	}
}

// TestShrinkRaceConcurrent shrinks a concurrent cascade's sole level while
// other goroutines insert, look up and remove: a drainer removes the sole
// level's keys so that shrinks become due (auto compaction runs them in the
// background, and a second goroutine loops CompactNow), while workers churn
// their own keys through the level being rebuilt. No acknowledged key may
// go missing, and at quiescence Count must equal the live keys exactly — a
// lost insert or a resurrected remove would leave it off.
func TestShrinkRaceConcurrent(t *testing.T) {
	const workers, rounds, batch = 3, 12, 128
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9, CompactMinLevels: 4, CompactMaxLoad: 0.01}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	var shrinks uint64
	for trial := 0; trial < trials; trial++ {
		f, err := NewConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		preload := soleLevel(t, f, 40+uint64(trial), 20000)
		before := f.compactions.runs.Load()
		var live atomic.Uint64
		var done atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				stream := workload.NewStream(seed)
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
					cut := batch * 3 / 4
					for _, k := range keys[:cut] {
						if !f.Remove(k) {
							t.Errorf("remove of inserted key %#x failed", k)
							return
						}
					}
					for _, k := range keys[cut:] {
						if !f.Contains(k) {
							t.Errorf("false negative for live key %#x after removes", k)
							return
						}
					}
					live.Add(uint64(batch - cut))
				}
			}(uint64(2000 + 10*trial + w))
		}
		keep := len(preload) / 16
		wg.Add(1)
		go func() { // the drainer
			defer wg.Done()
			for _, k := range preload[keep:] {
				if !f.Remove(k) {
					t.Errorf("remove of preloaded key %#x failed", k)
					return
				}
			}
		}()
		compactorDone := make(chan struct{})
		go func() {
			defer close(compactorDone)
			for !done.Load() {
				f.CompactNow()
			}
		}()
		wg.Wait()
		done.Store(true)
		<-compactorDone
		for f.busy.Load() {
			runtime.Gosched()
		}
		shrinks += f.compactions.runs.Load() - before
		if want := live.Load() + uint64(keep); f.Count() != want {
			t.Fatalf("trial %d: final count %d, want %d live keys (lost or resurrected instances)", trial, f.Count(), want)
		}
		for _, k := range preload[:keep] {
			if !f.Contains(k) {
				t.Fatalf("trial %d: lost preloaded key %#x after quiescence", trial, k)
			}
		}
		for w := 0; w < workers; w++ {
			stream := workload.NewStream(uint64(2000 + 10*trial + w))
			for r := 0; r < rounds; r++ {
				for _, k := range stream.Keys(batch)[batch*3/4:] {
					if !f.Contains(k) {
						t.Fatalf("trial %d: lost live key %#x after quiescence", trial, k)
					}
				}
			}
		}
	}
	if shrinks == 0 {
		t.Fatal("no shrink ran during the hammer")
	}
	t.Logf("%d shrinks over %d trials", shrinks, trials)
}
