package harness

import (
	"math/rand"
	"slices"
	"time"

	"vqf/internal/core"
	"vqf/internal/telemetry"
	"vqf/internal/workload"
)

// Kernel microbenchmarks: repeated timed runs of the fused hot-path kernels
// (single-key Insert/Contains/Remove and the sequential batch calls) on
// both geometries at a fixed load factor, plus the concurrent filters'
// write and batch-lookup rows, which run the locked-mode write commit and
// the validated batch kernel. Unlike the paper-figure sweeps,
// these exist to feed a regression gate: each op is sampled Reps times and
// reported with a benchstat-style mean ± 95% CI so an old-vs-new comparison
// can tell a real slowdown from run-to-run noise.

// KernelConfig parameterizes a RunKernels invocation.
type KernelConfig struct {
	// NSlots is the requested slot count (rounded up by the filters).
	NSlots uint64
	// Load is the fill fraction at which lookups/removes run (default 0.85).
	Load float64
	// Batch is the key count per sequential batch call (default 1<<14).
	Batch int
	// Reps is the number of timed samples per op (default 5).
	Reps int
	// Seed drives the deterministic workload streams.
	Seed uint64
}

func (c *KernelConfig) defaults() {
	if c.Load == 0 {
		c.Load = 0.85
	}
	if c.Batch == 0 {
		c.Batch = 1 << 14
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
}

// KernelResult is one op's samples with their benchstat-style summary.
// Latency, when present, is a per-operation latency digest from one
// dedicated every-op-timed pass run after the throughput samples — the
// clock read perturbs per-op cost, so the quantiles and the Mops column
// come from separate passes and the throughput numbers stay clean.
type KernelResult struct {
	Name    string             `json:"name"`
	Mops    float64            `json:"mops"`
	CI95    *float64           `json:"ci95_mops,omitempty"` // nil for one sample
	Samples []float64          `json:"samples_mops"`
	Latency *telemetry.Summary `json:"latency_ns,omitempty"`
}

// kernelFilter is the surface the kernel benchmarks exercise; the
// sequential and concurrent core filters of both geometries satisfy it.
type kernelFilter interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Capacity() uint64
	InsertBatch(hs []uint64) int
	ContainsBatch(hs []uint64, dst []bool) []bool
	RemoveBatch(hs []uint64) int
}

// cfilterOps are the ops timed on the concurrent filters: their writes run
// the locked-mode write commit and contains-batch the validated batch
// kernel, while their single-key lookups share the sequential filters'
// probe kernel.
var cfilterOps = []string{"insert", "insert-batch", "contains-batch", "remove", "remove-batch"}

// RunKernels measures the hot-path kernels of both geometries, sequential
// (every op) and concurrent (cfilterOps), and returns one result per
// (filter, op). Result names are stable identifiers — the regression gate
// matches old and new runs by them.
func RunKernels(cfg KernelConfig) []KernelResult {
	cfg.defaults()
	var out []KernelResult
	out = append(out, runKernelGeom(cfg, "filter8", nil, func() kernelFilter {
		return core.NewFilter8(cfg.NSlots, core.Options{})
	})...)
	out = append(out, runKernelGeom(cfg, "filter16", nil, func() kernelFilter {
		return core.NewFilter16(cfg.NSlots, core.Options{})
	})...)
	out = append(out, runKernelGeom(cfg, "cfilter8", cfilterOps, func() kernelFilter {
		return core.NewCFilter8(cfg.NSlots, core.Options{})
	})...)
	out = append(out, runKernelGeom(cfg, "cfilter16", cfilterOps, func() kernelFilter {
		return core.NewCFilter16(cfg.NSlots, core.Options{})
	})...)
	return out
}

// runKernelGeom times the ops named in only (every op when only is nil) on
// filters built by mk, naming each result geom/op.
func runKernelGeom(cfg KernelConfig, geom string, only []string, mk func() kernelFilter) []KernelResult {
	f := mk()
	n := uint64(float64(f.Capacity()) * cfg.Load)
	keys := workload.NewStream(cfg.Seed).Keys(int(n))
	absent := workload.NewStream(cfg.Seed ^ 0x5ca1ab1e0ddba11).Keys(int(n))
	// Lookups and removes probe in an order unrelated to insertion order, so
	// the single-key ops see a random cache-line walk.
	probe := append([]uint64(nil), keys...)
	rand.New(rand.NewSource(int64(cfg.Seed))).Shuffle(len(probe), func(i, j int) {
		probe[i], probe[j] = probe[j], probe[i]
	})
	dst := make([]bool, cfg.Batch)

	// Steady-state kernels run against one filter held at the target load;
	// the remove kernels drain it and their restore refills untimed.
	for _, h := range keys {
		f.Insert(h)
	}
	refill := func() {
		for _, h := range keys {
			f.Insert(h)
		}
	}

	// Each kernel is one entry; op returns the operation count for the timed
	// run and restore (nil when op leaves state unchanged) rolls the filter
	// state back untimed. Within a round the order matters only in that every
	// remove kernel restores before the next kernel runs.
	// lat is the op's every-op-timed latency pass: it times each individual
	// call (or each batch call, recorded as per-key amortized observations)
	// into the histogram. It runs once, after all throughput reps, and any
	// restore applies to it too.
	type kernelSpec struct {
		name    string
		op      func() uint64
		restore func()
		lat     func(lh *telemetry.Hist)
	}
	specs := []kernelSpec{
		// Fill throughput: a fresh filter per sample so every rep inserts
		// over the same empty-to-Load range.
		{"insert", func() uint64 {
			g := mk()
			for _, h := range keys {
				g.Insert(h)
			}
			return n
		}, nil, func(lh *telemetry.Hist) {
			g := mk()
			for _, h := range keys {
				start := time.Now()
				g.Insert(h)
				lh.Record(h, uint64(time.Since(start)))
			}
		}},
		{"insert-batch", func() uint64 {
			g := mk()
			for lo := 0; lo < len(keys); lo += cfg.Batch {
				g.InsertBatch(keys[lo:min(lo+cfg.Batch, len(keys))])
			}
			return n
		}, nil, func(lh *telemetry.Hist) {
			g := mk()
			for lo := 0; lo < len(keys); lo += cfg.Batch {
				b := keys[lo:min(lo+cfg.Batch, len(keys))]
				start := time.Now()
				g.InsertBatch(b)
				d := uint64(time.Since(start))
				lh.RecordN(uint64(lo), d/uint64(len(b)), uint64(len(b)), d)
			}
		}},
		{"lookup-pos", func() uint64 {
			got := 0
			for _, h := range probe {
				if f.Contains(h) {
					got++
				}
			}
			if uint64(got) != n {
				panic("harness: false negative in kernel benchmark")
			}
			return n
		}, nil, func(lh *telemetry.Hist) {
			for _, h := range probe {
				start := time.Now()
				f.Contains(h)
				lh.Record(h, uint64(time.Since(start)))
			}
		}},
		{"lookup-rand", func() uint64 {
			sink := 0
			for _, h := range absent {
				if f.Contains(h) {
					sink++
				}
			}
			_ = sink
			return n
		}, nil, func(lh *telemetry.Hist) {
			for _, h := range absent {
				start := time.Now()
				f.Contains(h)
				lh.Record(h, uint64(time.Since(start)))
			}
		}},
		{"contains-batch", func() uint64 {
			for lo := 0; lo < len(probe); lo += cfg.Batch {
				f.ContainsBatch(probe[lo:min(lo+cfg.Batch, len(probe))], dst)
			}
			return n
		}, nil, func(lh *telemetry.Hist) {
			for lo := 0; lo < len(probe); lo += cfg.Batch {
				b := probe[lo:min(lo+cfg.Batch, len(probe))]
				start := time.Now()
				f.ContainsBatch(b, dst)
				d := uint64(time.Since(start))
				lh.RecordN(uint64(lo), d/uint64(len(b)), uint64(len(b)), d)
			}
		}},
		{"remove", func() uint64 {
			for _, h := range probe {
				if !f.Remove(h) {
					panic("harness: remove failed in kernel benchmark")
				}
			}
			return n
		}, refill, func(lh *telemetry.Hist) {
			for _, h := range probe {
				start := time.Now()
				f.Remove(h)
				lh.Record(h, uint64(time.Since(start)))
			}
		}},
		{"remove-batch", func() uint64 {
			for lo := 0; lo < len(probe); lo += cfg.Batch {
				f.RemoveBatch(probe[lo:min(lo+cfg.Batch, len(probe))])
			}
			return n
		}, refill, func(lh *telemetry.Hist) {
			for lo := 0; lo < len(probe); lo += cfg.Batch {
				b := probe[lo:min(lo+cfg.Batch, len(probe))]
				start := time.Now()
				f.RemoveBatch(b)
				d := uint64(time.Since(start))
				lh.RecordN(uint64(lo), d/uint64(len(b)), uint64(len(b)), d)
			}
		}},
	}

	if only != nil {
		specs = slices.DeleteFunc(specs, func(s kernelSpec) bool { return !slices.Contains(only, s.name) })
	}

	// Sampling is interleaved: round r times every kernel once, rather than
	// taking all Reps samples of one kernel back to back. On hosts with
	// coarse-grained interference (a shared vCPU being throttled for seconds
	// at a time) consecutive sampling concentrates a slow window into one
	// kernel's entire sample set, which reads as a large, falsely significant
	// regression; round-robin spreads the window across kernels so it widens
	// confidence intervals instead of silently biasing one mean.
	out := make([]KernelResult, len(specs))
	for i, s := range specs {
		out[i] = KernelResult{Name: geom + "/" + s.name, Samples: make([]float64, 0, cfg.Reps)}
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		for i, s := range specs {
			start := time.Now()
			ops := s.op()
			out[i].Samples = append(out[i].Samples, mops(ops, time.Since(start)))
			if s.restore != nil {
				s.restore()
			}
		}
	}
	for i := range out {
		out[i].Mops, out[i].CI95 = MeanCI95(out[i].Samples)
	}
	// One latency pass per kernel, after every throughput sample is in: the
	// per-op clock reads make this pass slower than a throughput rep, and
	// running it last keeps that perturbation out of the Mops samples.
	for i, s := range specs {
		var lh telemetry.Hist
		s.lat(&lh)
		if s.restore != nil {
			s.restore()
		}
		sum := lh.Snapshot().Summary()
		out[i].Latency = &sum
	}
	return out
}
