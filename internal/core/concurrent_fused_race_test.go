package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/workload"
)

// TestConcurrentFusedKernelsUnderChurn races the fused probe kernels
// (optimistic Contains, and ContainsBatch's parallel shards) against writers
// driving the fused insert/remove kernels under block locks. A resident key
// set is inserted up front and never removed, so every lookup must find it
// no matter how the seqlock retries interleave with lane shifts. Under
// go test -race the detector checks the readers' atomic loads, but on amd64
// with the assembly kernels on it no longer sees the writers: their commit
// is plain assembly stores. TestWriteCommitChurn runs the generic commit
// too, which is where -race checks the writers' atomics discipline.
func TestConcurrentFusedKernelsUnderChurn(t *testing.T) {
	type cfilter interface {
		Insert(h uint64) bool
		Contains(h uint64) bool
		Remove(h uint64) bool
		ContainsBatch(hs []uint64, dst []bool) []bool
	}
	run := func(t *testing.T, f cfilter) {
		const residents = 1000
		const writers, readers = 4, 4
		const churnOps = 2000
		res := workload.NewStream(101).Keys(residents)
		for _, h := range res {
			if !f.Insert(h) {
				t.Fatal("resident insert failed at low load")
			}
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan string, writers+readers+1)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				churn := workload.NewStream(uint64(202 + id)).Keys(churnOps)
				for _, h := range churn {
					if f.Insert(h) {
						f.Remove(h)
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					for _, h := range res {
						if !f.Contains(h) {
							errs <- "resident lost under churn"
							return
						}
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]bool, residents)
			for !done.Load() {
				out := f.ContainsBatch(res, dst)
				for i := range out {
					if !out[i] {
						errs <- "resident lost in batch lookup under churn"
						return
					}
				}
			}
		}()
		// Writers finish on their own; readers poll until then.
		go func() {
			defer done.Store(true)
			churn := workload.NewStream(999).Keys(churnOps)
			for _, h := range churn {
				if f.Insert(h) {
					f.Remove(h)
				}
			}
		}()
		wg.Wait()
		done.Store(true)
		select {
		case msg := <-errs:
			t.Fatal(msg)
		default:
		}
	}
	t.Run("cfilter8", func(t *testing.T) {
		run(t, NewCFilter8(1<<12, Options{}))
	})
	t.Run("cfilter16", func(t *testing.T) {
		run(t, NewCFilter16(1<<12, Options{}))
	})
}
