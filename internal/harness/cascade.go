package harness

import (
	"time"

	"vqf/internal/elastic"
	"vqf/internal/stats"
	"vqf/internal/workload"
)

// The cascade experiments follow one lifecycle of the cascade filter of
// Don't Thrash (Bender et al.): grow by appending levels, churn, then
// compact or freeze. RunCascade runs it once:
//
//   - fill a sequential cascade far past its initial capacity, closing a
//     growth segment at every growth event (and a last one at the end);
//   - replay the same keys into a twin and churn both alike: the oldest
//     RemovedFrac of the keys are removed, the way an LSM store drops
//     obsolete runs, except that every SurvivorStride-th of them lives on;
//   - measure the churned state, then run CompactNow on one twin (the best
//     an all-VQF cascade can do) and FreezeNow on the other (the mixed
//     VQF/fuse tier), and measure each result.
//
// Freezing acts on the churned state: compacting first would pack the
// survivors into a dense VQF level that a fuse rebuild, which pays a vault
// of canonical keys for removability, cannot beat. Every measurement probes
// the same fresh-key stream, so the FPR numbers compare directly and a probe
// that flips from negative to positive across a structural pass would show.

// CascadeConfig parameterizes RunCascade.
type CascadeConfig struct {
	Elastic     elastic.Config
	TotalItems  uint64
	RemovedFrac float64
	// SurvivorStride keeps every SurvivorStride-th key of the removed oldest
	// prefix; 0 means none survive.
	SurvivorStride int
	// Probes is the fresh-key sample behind each negative-lookup timing and
	// FPR; Queries bounds each positive-lookup pass.
	Probes, Queries int
	Seed            uint64
}

// CascadeSide is one measurement: a growth segment or a maintenance phase.
type CascadeSide struct {
	Levels int    `json:"levels"`
	Items  uint64 `json:"items"`
	// InsertMops is the insert throughput over a growth segment.
	InsertMops    float64 `json:"insert_mops,omitempty"`
	PosLookupMops float64 `json:"pos_lookup_mops"` // live keys
	NegLookupMops float64 `json:"neg_lookup_mops"` // never-inserted keys
	MeasuredFPR   float64 `json:"measured_fpr"`    // over Probes fresh keys
	BitsPerItem   float64 `json:"bits_per_item"`
}

// CascadeResult is a full grow/churn/compact/freeze run. The JSON tags are
// the schema of BENCH_compact.json and BENCH_freeze.json.
type CascadeResult struct {
	TargetFPR      float64 `json:"target_fpr"`
	InitialSlots   uint64  `json:"initial_slots"`
	TotalItems     uint64  `json:"total_items"`
	RemovedFrac    float64 `json:"removed_frac"`
	SurvivorStride int     `json:"survivor_stride"`
	// Growth has one segment per level lifetime of the fill.
	Growth    []CascadeSide `json:"growth"`
	Churned   CascadeSide   `json:"churned"`   // after churn, before any maintenance
	Compacted CascadeSide   `json:"compacted"` // after CompactNow
	Frozen    CascadeSide   `json:"frozen"`    // after FreezeNow on the churned twin

	LevelsMerged int     `json:"levels_merged"`
	CompactMs    float64 `json:"compact_ms"`
	LevelsFrozen int     `json:"levels_frozen"`
	FuseLevels   int     `json:"fuse_levels"`
	FreezeMs     float64 `json:"freeze_ms"`
	// NegSpeedup is Compacted.NegLookupMops / Churned.NegLookupMops.
	NegSpeedup float64 `json:"neg_speedup"`
	// BitsRatioVsChurned is Frozen.BitsPerItem / Churned.BitsPerItem. Both
	// hold the same keys, so it is exactly the byte ratio.
	BitsRatioVsChurned float64 `json:"bits_ratio_vs_churned"`
	// NegRatioVsCompacted is Frozen.NegLookupMops / Compacted.NegLookupMops.
	NegRatioVsCompacted float64 `json:"neg_ratio_vs_compacted"`
	// Failed is set if a live key went missing or an op was rejected.
	Failed bool `json:"failed,omitempty"`
}

// RunCascade runs the grow/churn/compact/freeze lifecycle described above.
// It panics on an invalid config, like the other harness runners do on
// broken invariants: the config comes from the benchmark driver.
func RunCascade(cfg CascadeConfig) CascadeResult {
	build := func() *elastic.Filter {
		f, err := elastic.New(cfg.Elastic)
		if err != nil {
			panic("harness: cascade config: " + err.Error())
		}
		return f
	}
	compacted, frozen := build(), build()
	ObserveSnapshot("elastic", func() stats.Snapshot { return compacted.Snapshot().Aggregate })
	res := CascadeResult{
		TargetFPR:      compacted.TargetFPR(),
		InitialSlots:   cfg.Elastic.InitialSlots,
		TotalItems:     cfg.TotalItems,
		RemovedFrac:    cfg.RemovedFrac,
		SurvivorStride: cfg.SurvivorStride,
	}

	negSeed := cfg.Seed ^ 0xdeadbeefcafef00d
	measure := func(f *elastic.Filter, live []uint64) CascadeSide {
		s := CascadeSide{Levels: f.NumLevels(), Items: f.Count()}
		if s.Items > 0 {
			s.BitsPerItem = float64(f.SizeBytes()) * 8 / float64(s.Items)
		}
		qn := min(cfg.Queries, len(live))
		stride := max(len(live)/max(qn, 1), 1)
		t0 := time.Now()
		got := 0
		for i := 0; i < qn; i++ {
			if f.Contains(live[i*stride]) {
				got++
			}
		}
		s.PosLookupMops = mops(uint64(qn), time.Since(t0))
		if got != qn {
			res.Failed = true
		}
		// One fresh-key pass serves both the negative-lookup timing and the
		// FPR: with a realized FPR far below 2^-8 virtually every probe is a
		// true negative.
		neg := workload.NewStream(negSeed)
		t0 = time.Now()
		fps := 0
		for i := 0; i < cfg.Probes; i++ {
			if f.Contains(neg.Next()) {
				fps++
			}
		}
		s.NegLookupMops = mops(uint64(cfg.Probes), time.Since(t0))
		s.MeasuredFPR = float64(fps) / float64(cfg.Probes)
		return s
	}
	verify := func(f *elastic.Filter, live []uint64) {
		for _, h := range live {
			if !f.Contains(h) {
				res.Failed = true
				return
			}
		}
	}

	// Fill, timing only this twin's inserts, and close a segment whenever
	// the level count changes.
	ins := workload.NewStream(cfg.Seed)
	keys := make([]uint64, 0, cfg.TotalItems)
	closeSegment := func(start time.Time, n uint64) {
		elapsed := time.Since(start)
		s := measure(compacted, keys)
		s.InsertMops = mops(n, elapsed)
		res.Growth = append(res.Growth, s)
	}
	levels, start, segItems := compacted.NumLevels(), time.Now(), uint64(0)
	for uint64(len(keys)) < cfg.TotalItems {
		h := ins.Next()
		if !compacted.Insert(h) {
			res.Failed = true
			return res
		}
		keys = append(keys, h)
		segItems++
		if n := compacted.NumLevels(); n != levels {
			closeSegment(start, segItems)
			levels, start, segItems = n, time.Now(), 0
		}
	}
	if segItems > 0 {
		closeSegment(start, segItems)
	}
	for _, h := range keys {
		if !frozen.Insert(h) {
			res.Failed = true
			return res
		}
	}

	cut := int(float64(len(keys)) * cfg.RemovedFrac)
	live := make([]uint64, 0, len(keys)-cut)
	for i, h := range keys[:cut] {
		if cfg.SurvivorStride > 0 && i%cfg.SurvivorStride == 0 {
			live = append(live, h)
			continue
		}
		if !compacted.Remove(h) || !frozen.Remove(h) {
			res.Failed = true
			return res
		}
	}
	live = append(live, keys[cut:]...)
	res.Churned = measure(compacted, live)

	t0 := time.Now()
	cr := compacted.CompactNow()
	res.CompactMs = float64(time.Since(t0).Microseconds()) / 1000
	res.LevelsMerged = cr.LevelsMerged
	verify(compacted, live)
	res.Compacted = measure(compacted, live)

	t0 = time.Now()
	fr := frozen.FreezeNow()
	res.FreezeMs = float64(time.Since(t0).Microseconds()) / 1000
	res.LevelsFrozen, res.FuseLevels = fr.LevelsFrozen, fr.FuseLevels
	verify(frozen, live)
	res.Frozen = measure(frozen, live)

	if res.Churned.NegLookupMops > 0 {
		res.NegSpeedup = res.Compacted.NegLookupMops / res.Churned.NegLookupMops
	}
	if res.Churned.BitsPerItem > 0 {
		res.BitsRatioVsChurned = res.Frozen.BitsPerItem / res.Churned.BitsPerItem
	}
	if res.Compacted.NegLookupMops > 0 {
		res.NegRatioVsCompacted = res.Frozen.NegLookupMops / res.Compacted.NegLookupMops
	}
	return res
}
