package harness

import (
	"runtime"
	"sync"
	"time"

	"vqf/internal/core"
	"vqf/internal/telemetry"
	"vqf/internal/workload"
)

// The multicore experiment measures how the thread-safe filter variants
// scale with cores, GOMAXPROCS swept across a thread ladder. Three variants
// run the same workloads:
//
//   - locked: CFilter8 with lock-acquiring lookups (ContainsLocked) — the
//     paper's baseline concurrency scheme, every reader takes the block lock.
//   - optimistic: CFilter8 with seqlock lookups (Contains) — readers are
//     lock-free but all threads still share one filter's locks on writes and
//     one set of striped counters.
//   - sharded: Sharded8 — shard-private locks, version stripes, and counters;
//     writes on different shards share no mutable cache lines.
//
// Per thread count and variant, three workloads: concurrent single-key
// inserts filling a fresh filter to 85% of its capacity (write scaling),
// concurrent single-key lookups at 85% load (read scaling), and repeated
// whole-batch ContainsBatch calls whose internal worker pool is bounded by
// GOMAXPROCS (batch scaling — on the sharded variant this is the
// shard-disjoint path).
//
// Scaling efficiency is Mops(t) / (t · Mops(1)) per workload: 1.0 is
// perfect linear scaling. On a host with fewer cores than t the ladder
// time-slices; RunMulticore warns loudly (WarnUnderprovisioned) and the
// efficiency column records the honest sub-1/t result rather than
// extrapolating.

// MulticoreConfig parameterizes RunMulticore.
type MulticoreConfig struct {
	NSlots       uint64
	Threads      []int // GOMAXPROCS ladder, ascending; 1 must come first for efficiency baselines
	OpsPerThread int   // single-key lookup ops per goroutine per measurement
	Repeat       int   // samples per measurement; best is kept
	Seed         uint64
	Shards       int // shard count for the sharded variant
}

// MulticorePoint is one (variant, thread count) measurement.
type MulticorePoint struct {
	Threads    int     `json:"threads"`
	InsertMops float64 `json:"insert_mops"`
	LookupMops float64 `json:"lookup_mops"`
	BatchMops  float64 `json:"batch_lookup_mops"`
	// InsertEff/LookupEff/BatchEff are this row's scaling efficiencies
	// relative to the variant's 1-thread row.
	InsertEff float64 `json:"insert_efficiency"`
	LookupEff float64 `json:"lookup_efficiency"`
	BatchEff  float64 `json:"batch_efficiency"`
	// LookupLatency is the per-op lookup latency digest at this thread
	// count, from a dedicated sampled pass run after the throughput
	// measurements (every 16th op is timed, so the clock reads cannot
	// depress the Mops columns).
	LookupLatency *telemetry.Summary `json:"lookup_latency_ns,omitempty"`
}

// MulticoreVariant is one filter variant's scaling series.
type MulticoreVariant struct {
	Variant string           `json:"variant"`
	Points  []MulticorePoint `json:"points"`
}

// mcFilter is the surface the multicore workloads drive. Capacity is the
// built slot count, which the power-of-two block count can make up to
// twice the requested one; fills target 85% of it.
type mcFilter interface {
	Insert(h uint64) bool
	ContainsBatch(hs []uint64, dst []bool) []bool
	Capacity() uint64
}

// mcVariant bundles a variant's constructors: fresh builds a filter, and
// contains selects the lookup path under measurement.
type mcVariant struct {
	name     string
	fresh    func() mcFilter
	contains func(mcFilter) func(uint64) bool
}

// RunMulticore sweeps the thread ladder for all three variants. GOMAXPROCS
// is set to each thread count for the duration of its measurements and
// restored afterwards; thread counts beyond the host's CPUs trigger the
// underprovisioning warning (and still run, honestly slow).
func RunMulticore(cfg MulticoreConfig) []MulticoreVariant {
	if cfg.Repeat < 1 {
		cfg.Repeat = 1
	}
	if cfg.Shards < 2 {
		cfg.Shards = 8
	}
	variants := []mcVariant{
		{
			name:  "locked",
			fresh: func() mcFilter { return core.NewCFilter8(cfg.NSlots, core.Options{}) },
			contains: func(f mcFilter) func(uint64) bool {
				return f.(*core.CFilter8).ContainsLocked
			},
		},
		{
			name:  "optimistic",
			fresh: func() mcFilter { return core.NewCFilter8(cfg.NSlots, core.Options{}) },
			contains: func(f mcFilter) func(uint64) bool {
				return f.(*core.CFilter8).Contains
			},
		},
		{
			name:  "sharded",
			fresh: func() mcFilter { return core.NewSharded8(cfg.NSlots, cfg.Shards, core.Options{}) },
			contains: func(f mcFilter) func(uint64) bool {
				return f.(*core.Sharded8).Contains
			},
		},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	out := make([]MulticoreVariant, 0, len(variants))
	for _, v := range variants {
		mv := MulticoreVariant{Variant: v.name}
		// Lookup workloads run against one prefilled filter per variant.
		prefilled := v.fresh()
		keys := fillTo85(prefilled, cfg.Seed)
		probe := makeProbe(keys, cfg.Seed^0xabcd)
		var base MulticorePoint
		for i, t := range cfg.Threads {
			runtime.GOMAXPROCS(t)
			WarnUnderprovisioned(t)
			p := MulticorePoint{Threads: t}
			p.InsertMops = bestOf(cfg.Repeat, func() float64 {
				return mcInsertFill(v.fresh(), t, cfg.Seed)
			})
			p.LookupMops = bestOf(cfg.Repeat, func() float64 {
				return mcLookups(v.contains(prefilled), keys, t, cfg.OpsPerThread, cfg.Seed)
			})
			p.BatchMops = bestOf(cfg.Repeat, func() float64 {
				return mcBatchLookups(prefilled, probe)
			})
			p.LookupLatency = mcLookupLatency(v.contains(prefilled), keys, t, cfg.OpsPerThread, cfg.Seed)
			if i == 0 {
				base = p
			}
			p.InsertEff = efficiency(p.InsertMops, base.InsertMops, t, base.Threads)
			p.LookupEff = efficiency(p.LookupMops, base.LookupMops, t, base.Threads)
			p.BatchEff = efficiency(p.BatchMops, base.BatchMops, t, base.Threads)
			mv.Points = append(mv.Points, p)
		}
		runtime.GOMAXPROCS(prev)
		out = append(out, mv)
	}
	return out
}

// efficiency returns the scaling efficiency of mops at t threads relative
// to baseMops at baseT threads (normally 1).
func efficiency(mops, baseMops float64, t, baseT int) float64 {
	if baseMops == 0 || t == 0 {
		return 0
	}
	return (mops / baseMops) * float64(baseT) / float64(t)
}

func bestOf(repeat int, run func() float64) float64 {
	m := 0.0
	for i := 0; i < repeat; i++ {
		if v := run(); v > m {
			m = v
		}
	}
	return m
}

// fillTo85 fills f to 85% of its capacity and returns the inserted keys.
func fillTo85(f mcFilter, seed uint64) []uint64 {
	total := f.Capacity() * 85 / 100
	s := workload.NewStream(seed)
	keys := make([]uint64, 0, total)
	for uint64(len(keys)) < total {
		h := s.Next()
		if f.Insert(h) {
			keys = append(keys, h)
		}
	}
	return keys
}

// makeProbe builds the batch-lookup buffer: half present keys, half random.
func makeProbe(keys []uint64, seed uint64) []uint64 {
	s := workload.NewStream(seed)
	probe := make([]uint64, len(keys))
	for i := range probe {
		if i&1 == 0 {
			probe[i] = keys[i]
		} else {
			probe[i] = s.Next()
		}
	}
	return probe
}

// mcInsertFill measures aggregate insert throughput: t goroutines fill a
// fresh filter to 85% of its capacity with disjoint streams.
func mcInsertFill(f mcFilter, t int, seed uint64) float64 {
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
	return mops(per*uint64(t), time.Since(start))
}

// mcLookups measures aggregate single-key lookup throughput through the
// variant's lookup path: half present keys, half random probes.
func mcLookups(contains func(uint64) bool, keys []uint64, t, opsPerThread int, seed uint64) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < t; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := workload.NewStream(seed ^ uint64(w+1)*0x9e3779b97f4a7c15)
			for i := 0; i < opsPerThread; i++ {
				h := s.Next()
				if i&1 == 0 {
					h = keys[h%uint64(len(keys))]
				}
				contains(h)
			}
		}(w)
	}
	wg.Wait()
	return mops(uint64(t)*uint64(opsPerThread), time.Since(start))
}

// mcLookupLatency runs the single-key lookup workload once more with every
// 16th operation individually timed into a shared concurrent histogram, and
// returns the quantile digest. Sampling keeps the two clock reads off 15 of
// 16 ops, so the contention profile the timed ops observe stays close to
// the untimed throughput run's.
func mcLookupLatency(contains func(uint64) bool, keys []uint64, t, opsPerThread int, seed uint64) *telemetry.Summary {
	var lh telemetry.Hist
	var wg sync.WaitGroup
	for w := 0; w < t; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := workload.NewStream(seed ^ uint64(w+1)*0x9e3779b97f4a7c15)
			for i := 0; i < opsPerThread; i++ {
				h := s.Next()
				if i&1 == 0 {
					h = keys[h%uint64(len(keys))]
				}
				if i&15 == 0 {
					start := time.Now()
					contains(h)
					lh.Record(h, uint64(time.Since(start)))
				} else {
					contains(h)
				}
			}
		}(w)
	}
	wg.Wait()
	sum := lh.Snapshot().Summary()
	return &sum
}

// mcBatchLookups measures one whole-batch ContainsBatch call; the filter's
// internal worker pool provides the parallelism (bounded by GOMAXPROCS).
func mcBatchLookups(f mcFilter, probe []uint64) float64 {
	dst := make([]bool, len(probe))
	start := time.Now()
	f.ContainsBatch(probe, dst)
	return mops(uint64(len(probe)), time.Since(start))
}
