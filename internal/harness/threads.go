package harness

import (
	"sync"
	"time"

	"vqf/internal/core"
	"vqf/internal/workload"
)

// ThreadResult is one Table 4 row: aggregate insert throughput with the
// given number of concurrent threads.
type ThreadResult struct {
	Threads int
	Mops    float64
}

// RunThreadScaling reproduces Table 4: the thread-safe vector quotient
// filter (8-bit fingerprints, shortcut enabled, per-block lock bits) is
// filled to 85% load by each thread count in turn, inserting disjoint key
// streams, and the wall-clock aggregate throughput is reported.
//
// Scaling is bounded by the physical cores available; the paper used 4
// cores, and EXPERIMENTS.md records the core count of the reproduction box.
func RunThreadScaling(nslots uint64, threads []int, seed uint64) []ThreadResult {
	out := make([]ThreadResult, 0, len(threads))
	for _, t := range threads {
		f := core.NewCFilter8(nslots, core.Options{})
		total := f.Capacity() * 85 / 100
		per := total / uint64(t)

		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < t; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := workload.NewStream(seed + uint64(w)*0o7777)
				for i := uint64(0); i < per; i++ {
					f.Insert(s.Next())
				}
			}(w)
		}
		wg.Wait()
		out = append(out, ThreadResult{Threads: t, Mops: mops(per*uint64(t), time.Since(start))})
	}
	return out
}
