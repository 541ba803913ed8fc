package main

import (
	"encoding/json"
	"fmt"
	"os"

	"vqf/internal/analysis"
	"vqf/internal/harness"
)

// The kernels experiment benchmarks the fused hot-path kernels and records
// per-op samples; kernelgate compares two such recordings and fails on
// statistically significant slowdowns. Together they form the CI regression
// gate: the gate job runs `kernels` at the merge base and at HEAD, then
// `kernelgate -old base.json -new head.json`.

// kernelDoc is the BENCH_kernels.json schema, shared by writer and gate.
type kernelDoc struct {
	Experiment string                 `json:"experiment"`
	Env        harness.BenchEnv       `json:"env"`
	Log2Slots  uint                   `json:"log2_slots"`
	Load       float64                `json:"load"`
	Batch      int                    `json:"batch"`
	Reps       int                    `json:"reps"`
	Seed       uint64                 `json:"seed"`
	Results    []harness.KernelResult `json:"results"`
}

func runKernels(cfg config) {
	kcfg := harness.KernelConfig{
		NSlots: 1 << cfg.logSlotsRAM,
		Batch:  cfg.batch,
		Reps:   cfg.reps,
		Seed:   cfg.seed,
	}
	fmt.Printf("Fused-kernel microbenchmarks (2^%d slots, 85%% load, batch %d, %d reps)\n",
		cfg.logSlotsRAM, cfg.batch, cfg.reps)
	results := harness.RunKernels(kcfg)
	t := harness.NewTable("kernel", "Mops/s", "±95% CI")
	for _, r := range results {
		t.AddRow(r.Name, fmt.Sprintf("%.2f", r.Mops), harness.FormatCI(r.CI95))
	}
	emit(cfg, t)
	doc := kernelDoc{
		Experiment: "kernel-microbenchmarks",
		Env:        harness.CaptureEnv(),
		Log2Slots:  cfg.logSlotsRAM,
		Load:       0.85,
		Batch:      cfg.batch,
		Reps:       cfg.reps,
		Seed:       cfg.seed,
		Results:    results,
	}
	writeJSON(cfg, "kernels", doc)
}

func readKernelDoc(path string) (kernelDoc, error) {
	var doc kernelDoc
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

func runKernelGate(cfg config) {
	if cfg.oldJSON == "" || cfg.newJSON == "" {
		fmt.Fprintln(os.Stderr, "vqfbench: kernelgate requires -old and -new BENCH_kernels.json paths")
		os.Exit(2)
	}
	oldDoc, err := readKernelDoc(cfg.oldJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqfbench: kernelgate: %v\n", err)
		os.Exit(2)
	}
	newDoc, err := readKernelDoc(cfg.newJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqfbench: kernelgate: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("Kernel regression gate: %s vs %s (fail below -%.1f%% with non-overlapping 95%% CIs)\n",
		cfg.oldJSON, cfg.newJSON, cfg.gateThreshold)
	oldBy := make(map[string][]float64, len(oldDoc.Results))
	for _, r := range oldDoc.Results {
		oldBy[r.Name] = r.Samples
	}
	t := harness.NewTable("kernel", "old Mops/s", "new Mops/s", "delta %", "verdict")
	regressed := 0
	for _, nr := range newDoc.Results {
		olds, ok := oldBy[nr.Name]
		if !ok {
			t.AddRow(nr.Name, "-", fmt.Sprintf("%.2f", nr.Mops), "-", "new")
			continue
		}
		d, err := analysis.CompareBenchChecked(olds, nr.Samples)
		if err != nil {
			// An unmeasurable comparison must stop the gate, not sail through
			// with infinite intervals that can never flag a regression.
			fmt.Fprintf(os.Stderr, "vqfbench: kernelgate: %s: %v\n", nr.Name, err)
			os.Exit(2)
		}
		verdict := "~" // no significant change
		switch {
		case d.Regression(cfg.gateThreshold):
			verdict = "REGRESSION"
			regressed++
		case d.Significant && d.DeltaPct > 0:
			verdict = "improved"
		case d.Significant:
			verdict = "slower (within threshold)"
		}
		t.AddRow(nr.Name,
			fmt.Sprintf("%.2f ±%.2f", d.OldMean, d.OldCI),
			fmt.Sprintf("%.2f ±%.2f", d.NewMean, d.NewCI),
			fmt.Sprintf("%+.1f", d.DeltaPct), verdict)
	}
	emit(cfg, t)
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "vqfbench: kernelgate: %d kernel(s) regressed more than %.1f%%\n",
			regressed, cfg.gateThreshold)
		os.Exit(1)
	}
	fmt.Println("gate passed: no significant regression beyond threshold")
}
