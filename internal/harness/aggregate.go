package harness

import (
	"time"

	"vqf/internal/minifilter"
	"vqf/internal/workload"
)

// AggregateResult holds the Figure 6 bars for one filter: total throughput
// for a full fill, full query passes, and a full drain.
type AggregateResult struct {
	Name           string
	InsertMops     float64
	PosLookupMops  float64
	RandLookupMops float64
	DeleteMops     float64
	Failed         bool
}

// RunAggregate measures aggregate throughput: inserting from empty to the
// spec's maximum load, looking up every inserted key, performing an equal
// number of random lookups, and deleting every key.
func RunAggregate(spec Spec, nslots uint64, seed uint64) AggregateResult {
	f, err := spec.New(nslots)
	if err != nil {
		return AggregateResult{Name: spec.Name, Failed: true}
	}
	n := uint64(float64(f.Capacity()) * spec.MaxLoad)
	ins := workload.NewStream(seed)
	neg := workload.NewStream(seed ^ 0x5ca1ab1e0ddba11)
	inserted := make([]uint64, 0, n)
	res := AggregateResult{Name: spec.Name}

	start := time.Now()
	for uint64(len(inserted)) < n {
		h := ins.Next()
		if !f.Insert(h) {
			res.Failed = true
			return res
		}
		inserted = append(inserted, h)
	}
	res.InsertMops = mops(n, time.Since(start))

	start = time.Now()
	got := 0
	for _, h := range inserted {
		if f.Contains(h) {
			got++
		}
	}
	res.PosLookupMops = mops(n, time.Since(start))
	if uint64(got) != n {
		panic("harness: false negative during aggregate run of " + spec.Name)
	}

	start = time.Now()
	sink := 0
	for i := uint64(0); i < n; i++ {
		if f.Contains(neg.Next()) {
			sink++
		}
	}
	res.RandLookupMops = mops(n, time.Since(start))
	_ = sink

	if !spec.NoDelete {
		start = time.Now()
		for _, h := range inserted {
			if !f.Remove(h) {
				panic("harness: remove failed during aggregate run of " + spec.Name)
			}
		}
		res.DeleteMops = mops(n, time.Since(start))
	}
	return res
}

// WithKernels runs fn on the assembly block kernels (asm) or on their
// portable Go bodies, then restores the previous selection. The two are
// the §7.7 analog of the paper's AVX-512 and AVX2 builds: one filter, its
// kernels on wide and on narrower instructions. Where
// minifilter.AsmSupported is false, both choices run the portable bodies.
func WithKernels(asm bool, fn func()) {
	prev := minifilter.AsmEnabled()
	minifilter.SetAsmKernels(asm)
	defer minifilter.SetAsmKernels(prev)
	fn()
}
