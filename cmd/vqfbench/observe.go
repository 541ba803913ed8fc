package main

import (
	"fmt"

	"vqf"
	"vqf/internal/harness"
	"vqf/internal/telemetry"
)

// The observe experiment validates the telemetry layer's own claims:
// sampling-gate overhead per rate against a sampling-off baseline from the
// same run, and histogram quantile accuracy against an exact-sample oracle.
// BENCH_observe.json is the artifact backing the "default-rate overhead
// under 2%" and "quantiles within one bucket" statements in DESIGN.md.

// observeDoc is the BENCH_observe.json schema.
type observeDoc struct {
	Experiment string                `json:"experiment"`
	Env        harness.BenchEnv      `json:"env"`
	Log2Slots  uint                  `json:"log2_slots"`
	Reps       int                   `json:"reps"`
	Rates      []int                 `json:"rates"`
	Seed       uint64                `json:"seed"`
	Result     harness.ObserveResult `json:"result"`
}

func runObserve(cfg config) {
	ocfg := harness.ObserveConfig{
		NewFilter: func(rate int) harness.ObserveFilter {
			return vqf.NewConcurrent(1<<cfg.logSlotsCache, vqf.WithLatencySampling(rate))
		},
		LookupSummary: func(f harness.ObserveFilter) (telemetry.Summary, bool) {
			snap := f.(*vqf.Filter).Latency()
			return snap.Lookup, snap.SamplingRate > 0
		},
		Reps: cfg.reps,
		Seed: cfg.seed,
	}
	ocfg = observeDefaults(ocfg)
	fmt.Printf("Telemetry overhead and accuracy (2^%d slots, 85%% load, %d reps, rates %v)\n",
		cfg.logSlotsCache, ocfg.Reps, ocfg.Rates)
	res := harness.RunObserve(ocfg)
	t := harness.NewTable("rate", "insert", "±ci95", "overhead%", "lookup", "±ci95", "overhead%")
	for _, p := range res.Points {
		label := fmt.Sprintf("1/%d", p.Rate)
		if p.Rate == 0 {
			label = "off"
		}
		t.AddRow(label,
			fmt.Sprintf("%.2f", p.InsertMops), harness.FormatCI(p.InsertCI95),
			fmt.Sprintf("%.2f", p.InsertOverheadPct),
			fmt.Sprintf("%.2f", p.LookupMops), harness.FormatCI(p.LookupCI95),
			fmt.Sprintf("%.2f", p.LookupOverheadPct))
	}
	emit(cfg, t)
	fmt.Println("histogram quantiles vs exact-sample oracle (every lookup timed):")
	a := harness.NewTable("quantile", "oracle(ns)", "hist(ns)", "bucket-delta")
	for _, q := range res.Accuracy {
		a.AddRow(q.Quantile, q.OracleNs, q.HistNs, q.BucketDelta)
	}
	emit(cfg, a)
	fmt.Printf("max |bucket delta|: %d (acceptance bound: <=1)\n", res.MaxAbsBucketDelta)
	doc := observeDoc{
		Experiment: "telemetry-overhead-accuracy",
		Env:        harness.CaptureEnv(),
		Log2Slots:  cfg.logSlotsCache,
		Reps:       ocfg.Reps,
		Rates:      ocfg.Rates,
		Seed:       cfg.seed,
		Result:     res,
	}
	writeJSON(cfg, "observe", doc)
}

// observeDefaults materializes the rate ladder so the printed header and the
// JSON stamp show the rates actually run.
func observeDefaults(ocfg harness.ObserveConfig) harness.ObserveConfig {
	if len(ocfg.Rates) == 0 {
		ocfg.Rates = []int{0, 64, 8, 1}
	}
	if ocfg.Reps == 0 {
		ocfg.Reps = 5
	}
	return ocfg
}
