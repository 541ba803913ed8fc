package harness

import (
	"sort"
	"time"

	"vqf/internal/telemetry"
	"vqf/internal/workload"
)

// The observe experiment quantifies the telemetry layer itself, answering
// the two questions that decide whether latency sampling can stay on in
// production: what does the sampling gate cost at each rate (overhead, vs a
// sampling-off baseline measured in the same run), and how accurate are the
// log-bucketed histogram quantiles against an exact-sample oracle. It
// drives the public API (vqf.NewConcurrent + WithLatencySampling), injected
// as a constructor by cmd/vqfbench, because that is where the gate lives —
// an internal-core measurement would miss the hot-path cost being claimed.
// (The constructor is injected rather than imported: the root package's own
// tests use this harness, so importing the root here would cycle.)

// ObserveFilter is the surface RunObserve drives — the hashed-key hot path
// of the public Filter.
type ObserveFilter interface {
	Capacity() uint64
	AddHash(h uint64) error
	ContainsHash(h uint64) bool
}

// ObserveConfig parameterizes RunObserve.
type ObserveConfig struct {
	// NewFilter builds a fresh filter with the given latency sampling rate
	// (0 = off). Required.
	NewFilter func(rate int) ObserveFilter
	// LookupSummary extracts a filter's recorded single-key lookup latency
	// digest, reporting ok=false when sampling is off. Optional; when nil
	// the overhead rows omit their latency column.
	LookupSummary func(f ObserveFilter) (telemetry.Summary, bool)
	// Rates is the sampling-rate ladder; it must start with 0 (sampling
	// off), the baseline every overhead percentage is relative to.
	// Default {0, 64, 8, 1}.
	Rates []int
	// Reps is the number of timed samples per (rate, workload). Default 5.
	Reps int
	// Seed drives the deterministic workload streams.
	Seed uint64
	// OracleOps is the number of individually timed lookups feeding the
	// quantile-accuracy check. Default 200000.
	OracleOps int
}

func (c *ObserveConfig) defaults() {
	if len(c.Rates) == 0 {
		c.Rates = []int{0, 64, 8, 1}
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.OracleOps == 0 {
		c.OracleOps = 200000
	}
}

// ObservePoint is one sampling rate's overhead measurement. Overhead
// percentages are relative to the rate-0 row of the same run (positive =
// slower than sampling off); with run-to-run noise they can go slightly
// negative, which reads as "below the noise floor".
type ObservePoint struct {
	Rate              int                `json:"rate"`
	InsertMops        float64            `json:"insert_mops"`
	InsertCI95        *float64           `json:"insert_ci95_mops,omitempty"` // nil for one rep
	LookupMops        float64            `json:"lookup_mops"`
	LookupCI95        *float64           `json:"lookup_ci95_mops,omitempty"`
	InsertOverheadPct float64            `json:"insert_overhead_pct"`
	LookupOverheadPct float64            `json:"lookup_overhead_pct"`
	LookupLatency     *telemetry.Summary `json:"lookup_latency_ns,omitempty"`
}

// ObserveQuantile compares one histogram quantile against the exact-sample
// oracle. BucketDelta is BucketIndex(hist) − BucketIndex(oracle): 0 means
// the histogram reported the oracle value's own bucket, ±1 an adjacent one.
type ObserveQuantile struct {
	Quantile    string `json:"quantile"`
	OracleNs    uint64 `json:"oracle_ns"`
	HistNs      uint64 `json:"hist_ns"`
	BucketDelta int    `json:"bucket_delta"`
}

// ObserveResult is the observe experiment's output.
type ObserveResult struct {
	// Keys is the fill size (85% of the built filter's capacity).
	Keys int `json:"keys"`
	// Points is one overhead row per sampling rate, rate 0 first.
	Points []ObservePoint `json:"points"`
	// Accuracy compares histogram quantiles to the exact-sample oracle.
	Accuracy []ObserveQuantile `json:"accuracy"`
	// MaxAbsBucketDelta is the worst |BucketDelta| across Accuracy — the
	// single number the <=1-bucket acceptance bound checks.
	MaxAbsBucketDelta int `json:"max_abs_bucket_delta"`
}

// RunObserve measures sampling-gate overhead across the rate ladder and
// histogram quantile accuracy against an exact oracle.
func RunObserve(cfg ObserveConfig) ObserveResult {
	cfg.defaults()
	n := int(cfg.NewFilter(0).Capacity() * 85 / 100)
	keys := workload.NewStream(cfg.Seed).Keys(n)
	probe := makeProbe(keys, cfg.Seed^0x0b5e71e5)

	// Overhead ladder. Sampling is round-robin across rates (all rates once
	// per round, Reps rounds) for the same reason the kernel benchmarks
	// interleave: a host-interference window then widens every rate's CI
	// instead of silently biasing one rate's mean — which here would
	// fabricate or mask the very overhead being measured.
	ins := make([][]float64, len(cfg.Rates))
	lkp := make([][]float64, len(cfg.Rates))
	lat := make([]*telemetry.Summary, len(cfg.Rates))
	for rep := 0; rep < cfg.Reps; rep++ {
		for i, rate := range cfg.Rates {
			f := cfg.NewFilter(rate)
			start := time.Now()
			for _, h := range keys {
				f.AddHash(h)
			}
			ins[i] = append(ins[i], mops(uint64(n), time.Since(start)))
			start = time.Now()
			for _, h := range probe {
				f.ContainsHash(h)
			}
			lkp[i] = append(lkp[i], mops(uint64(len(probe)), time.Since(start)))
			if cfg.LookupSummary != nil {
				if s, ok := cfg.LookupSummary(f); ok {
					lat[i] = &s
				}
			}
		}
	}
	out := ObserveResult{Keys: n}
	var baseIns, baseLkp float64
	for i, rate := range cfg.Rates {
		p := ObservePoint{Rate: rate, LookupLatency: lat[i]}
		p.InsertMops, p.InsertCI95 = MeanCI95(ins[i])
		p.LookupMops, p.LookupCI95 = MeanCI95(lkp[i])
		if i == 0 {
			baseIns, baseLkp = p.InsertMops, p.LookupMops
		}
		if baseIns > 0 {
			p.InsertOverheadPct = (baseIns - p.InsertMops) / baseIns * 100
		}
		if baseLkp > 0 {
			p.LookupOverheadPct = (baseLkp - p.LookupMops) / baseLkp * 100
		}
		out.Points = append(out.Points, p)
	}

	// Quantile accuracy: time OracleOps lookups individually, feeding each
	// exact duration to both a histogram and a raw-sample slice, then
	// compare the histogram's quantiles to the sorted samples'. Both sides
	// see the identical observations, so any disagreement is pure bucketing
	// error — bounded by one bucket (≤12.5% relative) by construction.
	f := cfg.NewFilter(0)
	for _, h := range keys {
		f.AddHash(h)
	}
	ops := cfg.OracleOps
	if ops > len(probe) {
		ops = len(probe)
	}
	var hist telemetry.Hist
	samples := make([]uint64, 0, ops)
	for _, h := range probe[:ops] {
		start := time.Now()
		f.ContainsHash(h)
		d := uint64(time.Since(start))
		hist.Record(h, d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	snap := hist.Snapshot()
	for _, q := range []struct {
		label string
		p     float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}} {
		// Upper-rank convention matching HistSnapshot.Quantile: the k-th
		// smallest sample with k = max(1, floor(p·count)).
		rank := int(q.p * float64(len(samples)))
		if rank < 1 {
			rank = 1
		}
		if rank > len(samples) {
			rank = len(samples)
		}
		oracle := samples[rank-1]
		hq := snap.Quantile(q.p)
		delta := telemetry.BucketIndex(hq) - telemetry.BucketIndex(oracle)
		out.Accuracy = append(out.Accuracy, ObserveQuantile{
			Quantile: q.label, OracleNs: oracle, HistNs: hq, BucketDelta: delta,
		})
		if delta < 0 {
			delta = -delta
		}
		if delta > out.MaxAbsBucketDelta {
			out.MaxAbsBucketDelta = delta
		}
	}
	return out
}
