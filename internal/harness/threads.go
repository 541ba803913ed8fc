package harness

import "vqf/internal/core"

// ThreadResult is one Table 4 row: aggregate insert throughput with the
// given number of concurrent threads.
type ThreadResult struct {
	Threads int
	Mops    float64
}

// RunThreadScaling reproduces Table 4: the thread-safe vector quotient
// filter (8-bit fingerprints, shortcut enabled, per-block lock bits) is
// filled by each thread count in turn with the multicore experiment's
// insert fill (mcInsertFill: disjoint key streams to 85% of nslots), and
// the wall-clock aggregate throughput is reported.
//
// Scaling is bounded by the physical cores available; the paper used 4
// cores, and EXPERIMENTS.md records the core count of the reproduction box.
func RunThreadScaling(nslots uint64, threads []int, seed uint64) []ThreadResult {
	out := make([]ThreadResult, 0, len(threads))
	for _, t := range threads {
		out = append(out, ThreadResult{t, mcInsertFill(core.NewCFilter8(nslots, core.Options{}), nslots, t, seed)})
	}
	return out
}
