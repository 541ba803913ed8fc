// Command vqfbench regenerates every table and figure of the vector quotient
// filter paper's evaluation (Section 7) plus the analytic artifacts of
// Sections 5–6. Each experiment is a subcommand; `vqfbench all` runs the full
// suite. Output is aligned text (or CSV with -csv) with one series per paper
// line or bar.
//
// Usage:
//
//	vqfbench [flags] <experiment>
//
// Experiments:
//
//	table1   analytic bits-per-item formulas (Table 1)
//	fig2     false-positive rate vs bits per element (Figure 2)
//	fig3     mini-filter overhead vs s/b ratio (Figure 3)
//	table2   empirical space, FPR and efficiency (Table 2)
//	fig4     in-RAM throughput vs load factor (Figure 4a–d)
//	fig5     in-cache throughput vs load factor (Figure 5a–d)
//	fig6     aggregate throughput, 8/16-bit × RAM/cache (Figure 6a–d)
//	table3   write-heavy mixed workload at 90% load (Table 3)
//	table4   multi-threaded insert scaling (Table 4)
//	observe  telemetry-layer overhead and quantile accuracy (writes JSON)
//	service  vqfd daemon protocols: HTTP/JSON vs binary batches (writes JSON)
//	elastic  online-growth cascade: throughput and FPR across growth events (writes JSON)
//	compact  cascade compaction: negative-lookup recovery after churn (writes JSON)
//	freeze   frozen tier: churned vs compacted vs fuse-frozen cascade (writes JSON)
//	maxload  maximum load factor per design variant (§3.4, §6.2)
//	choices  block-occupancy dispersion: two-choice vs single (Theorem 1)
//	ablation SWAR vs scalar block operations (§7.7 analog)
//	all      everything above
package main

import (
	"encoding/json"
	_ "expvar" // registers /debug/vars on the -httpserve endpoint
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the -httpserve endpoint
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vqf/internal/analysis"
	"vqf/internal/elastic"
	"vqf/internal/harness"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
)

type config struct {
	logSlotsRAM    uint
	logSlotsCache  uint
	queries        int
	mixedOps       int
	probes         int
	seed           uint64
	csv            bool
	which          string
	repeat         int
	batch          int
	reps           int
	oldJSON        string
	newJSON        string
	gateThreshold  float64
	benchout       string
	oracleRounds   int
	oracleOps      int
	oracleUniverse int
	oracleDir      string
	conns          int
	cpuprofile     string
	memprofile     string
	mutexprofile   string
	httpserve      string
	kernelsImpl    string
}

func main() {
	var cfg config
	fs := flag.NewFlagSet("vqfbench", flag.ExitOnError)
	fs.UintVar(&cfg.logSlotsRAM, "logslots", 22,
		"log2 of slot count for in-RAM experiments (paper: 28)")
	fs.UintVar(&cfg.logSlotsCache, "cachelogslots", 19,
		"log2 of slot count for in-cache experiments (paper: 22)")
	fs.IntVar(&cfg.queries, "queries", 200000, "lookups per sweep measurement point")
	fs.IntVar(&cfg.mixedOps, "ops", 3000000, "operations for the table3 mixed workload (paper: 100M)")
	fs.IntVar(&cfg.probes, "probes", 2000000, "random probes for table2 FPR measurement")
	fs.Uint64Var(&cfg.seed, "seed", 42, "workload seed")
	fs.StringVar(&cfg.which, "which", "", "fig6 sub-panel: a, b, c or d (default: all four)")
	fs.IntVar(&cfg.repeat, "repeat", 1, "repetitions to average for fig4/fig5 sweeps")
	fs.IntVar(&cfg.batch, "batch", 1<<14, "keys per sequential batch call for the kernels experiment")
	fs.IntVar(&cfg.reps, "reps", 5, "timed samples per op for the kernels experiment")
	fs.StringVar(&cfg.oldJSON, "old", "", "baseline BENCH_kernels.json for kernelgate")
	fs.StringVar(&cfg.newJSON, "new", "", "candidate BENCH_kernels.json for kernelgate")
	fs.Float64Var(&cfg.gateThreshold, "gatethreshold", 5.0,
		"kernelgate failure threshold: max tolerated significant slowdown in percent")
	fs.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of aligned text")
	fs.StringVar(&cfg.benchout, "benchout", "auto",
		"output file for JSON-emitting experiments (fig4, fig5, elastic, choices); \"auto\" writes BENCH_<experiment>.json, empty skips")
	fs.IntVar(&cfg.oracleRounds, "oracle-rounds", 4, "oracle: traces per (subject, property) pair")
	fs.IntVar(&cfg.oracleOps, "oracle-ops", 8000, "oracle: operations per trace")
	fs.IntVar(&cfg.oracleUniverse, "oracle-universe", 2000, "oracle: distinct keys per trace")
	fs.StringVar(&cfg.oracleDir, "oracle-dir", "oracle-repros", "oracle: directory for shrunk repro traces (empty skips)")
	fs.IntVar(&cfg.conns, "conns", 8, "concurrent client connections for the service experiment")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.StringVar(&cfg.mutexprofile, "mutexprofile", "", "write an end-of-run mutex-contention profile to this file")
	fs.StringVar(&cfg.httpserve, "httpserve", "",
		"serve /metrics (Prometheus, live filters), /debug/pprof/ and /debug/vars on this address (e.g. 127.0.0.1:8080) while experiments run")
	fs.StringVar(&cfg.kernelsImpl, "kernels-impl", "auto",
		"kernel implementation: auto (assembly where supported), asm (require assembly), generic (portable Go)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vqfbench [flags] <experiment>\n\nexperiments: table1 fig2 fig3 table2 fig4 fig5 fig6 table3 table4 elastic compact freeze maxload maxloadscale choices ablation kernels kernelgate multicore observe oracle service all\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	switch cfg.kernelsImpl {
	case "auto":
	case "asm":
		if !minifilter.AsmSupported() {
			fmt.Fprintln(os.Stderr, "vqfbench: -kernels-impl=asm but the assembly kernels cannot run here (GOARCH, purego, or a CPU without BMI1/BMI2/POPCNT)")
			os.Exit(2)
		}
		minifilter.SetAsmKernels(true)
	case "generic":
		minifilter.SetAsmKernels(false)
	default:
		fmt.Fprintf(os.Stderr, "vqfbench: unknown -kernels-impl %q (want auto, asm or generic)\n", cfg.kernelsImpl)
		os.Exit(2)
	}

	if cfg.httpserve != "" {
		serveHTTP(cfg.httpserve)
	}
	stopProfiles := startProfiles(cfg)
	defer stopProfiles()

	cmd := fs.Arg(0)
	experiments := map[string]func(config){
		"table1":       runTable1,
		"fig2":         runFig2,
		"fig3":         runFig3,
		"table2":       runTable2,
		"fig4":         runFig4,
		"fig5":         runFig5,
		"fig6":         runFig6,
		"table3":       runTable3,
		"table4":       runTable4,
		"elastic":      runElastic,
		"compact":      runCompact,
		"freeze":       runFreeze,
		"maxload":      runMaxLoad,
		"maxloadscale": runMaxLoadScale,
		"choices":      runChoices,
		"ablation":     runAblation,
		"kernels":      runKernels,
		"kernelgate":   runKernelGate,
		"multicore":    runMulticore,
		"observe":      runObserve,
		"oracle":       runOracle,
		"service":      runService,
	}
	if cmd == "all" {
		for _, name := range []string{"table1", "fig2", "fig3", "table2", "fig4",
			"fig5", "fig6", "table3", "table4", "elastic", "maxload", "choices", "ablation"} {
			fmt.Printf("==== %s ====\n", name)
			experiments[name](cfg)
			fmt.Println()
		}
		return
	}
	run, ok := experiments[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "vqfbench: unknown experiment %q\n", cmd)
		fs.Usage()
		os.Exit(2)
	}
	run(cfg)
}

// serveHTTP starts the observability endpoint: /metrics renders Prometheus
// snapshots of the filters the running experiments have registered
// (harness.Observe), and the expvar/pprof imports contribute /debug/vars and
// /debug/pprof/. The listener is bound before the experiments start so the
// printed address is scrapeable for the whole run.
func serveHTTP(addr string) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", stats.ContentType)
		if err := harness.WriteObservedMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqfbench: listen %s: %v\n", addr, err)
		os.Exit(1)
	}
	fmt.Printf("serving metrics on http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(os.Stderr, "vqfbench: http serve: %v\n", err)
		}
	}()
}

// startProfiles begins the profiles requested by -cpuprofile, -memprofile
// and -mutexprofile, returning a function that finalizes them after the
// experiments complete.
func startProfiles(cfg config) func() {
	var cpuFile *os.File
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vqfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	if cfg.mutexprofile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	writeProfile := func(name, path string, gcFirst bool) {
		if path == "" {
			return
		}
		if gcFirst {
			runtime.GC() // materialize reachable-heap numbers
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqfbench: %s profile: %v\n", name, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "vqfbench: %s profile: %v\n", name, err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		writeProfile("heap", cfg.memprofile, true)
		writeProfile("mutex", cfg.mutexprofile, false)
	}
}

// benchPath resolves -benchout for one experiment: "auto" maps to
// BENCH_<experiment>.json, empty disables JSON output, anything else is used
// verbatim.
func benchPath(cfg config, experiment string) string {
	if cfg.benchout == "auto" {
		return "BENCH_" + experiment + ".json"
	}
	return cfg.benchout
}

// writeJSON marshals doc to the resolved -benchout path for experiment,
// doing nothing if JSON output is disabled.
func writeJSON(cfg config, experiment string, doc any) {
	path := benchPath(cfg, experiment)
	if path == "" {
		return
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqfbench: marshal results: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "vqfbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func emit(cfg config, t *harness.Table) {
	if cfg.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
}

func runTable1(cfg config) {
	fmt.Println("Table 1: analytic space usage (bits per item)")
	t := harness.NewTable("eps", "bloom", "quotient", "cuckoo", "morton", "vqf")
	for _, eps := range []float64{1.0 / 256, 1.0 / 1024, 1.0 / 65536} {
		b := analysis.Table1(eps)
		t.AddRow(fmt.Sprintf("2^%.0f", -log2(eps)), b.Bloom, b.Quotient, b.Cuckoo, b.Morton, b.VQF)
	}
	emit(cfg, t)
}

func runFig2(cfg config) {
	fmt.Println("Figure 2: -log2(FPR) vs bits per element (higher is better)")
	t := harness.NewTable("bits/elem", "vqf", "quotient", "cuckoo", "bloom")
	for _, p := range analysis.Figure2(5, 25, 1) {
		t.AddRow(p.BitsPerElement, p.VQF, p.Quotient, p.Cuckoo, p.Bloom)
	}
	emit(cfg, t)
}

func runFig3(cfg config) {
	fmt.Println("Figure 3: mini-filter overhead bits vs s/b (lower is better)")
	t := harness.NewTable("s/b", "log2(s/b)+b/s")
	for _, p := range analysis.Figure3(0.5, 1.0, 0.025) {
		t.AddRow(fmt.Sprintf("%.3f", p.Ratio), p.Overhead)
	}
	emit(cfg, t)
	fmt.Printf("optimal: s/b = ln2 = %.4f -> %.4f bits\n",
		analysis.OptimalRatio(), analysis.OverheadBits(analysis.OptimalRatio()))
	for _, c := range analysis.ChosenConfigs() {
		fmt.Printf("chosen:  s=%d b=%d (s/b=%.3f) -> %.4f bits\n", c.S, c.B, c.Ratio, c.Overhead)
	}
}

func runTable2(cfg config) {
	fmt.Printf("Table 2: empirical space and FPR (2^%d slots)\n", cfg.logSlotsRAM)
	for _, set := range []struct {
		label string
		specs []harness.Spec
	}{
		{"target FPR 2^-8", append(harness.SpecsFPR8(), harness.SpecBloom8())},
		{"target FPR 2^-16", harness.SpecsFPR16()},
	} {
		fmt.Println(set.label)
		t := harness.NewTable("filter", "items", "log2(FPR)", "space(MB)", "bits/key", "efficiency")
		for _, row := range harness.RunSpace(set.specs, 1<<cfg.logSlotsRAM, cfg.probes, cfg.seed) {
			t.AddRow(row.Name, row.Items, row.LogFPR, row.SpaceMB, row.BitsPerKey, row.Efficiency)
		}
		emit(cfg, t)
	}
}

func sweepTables(cfg config, logSlots uint, specs []harness.Spec) []harness.SweepResult {
	results := make([]harness.SweepResult, 0, len(specs))
	for _, spec := range specs {
		results = append(results,
			harness.RunSweepAveraged(spec, 1<<logSlots, cfg.queries, cfg.repeat, cfg.seed))
	}
	panels := []struct {
		label string
		pick  func(harness.SweepPoint) float64
	}{
		{"(a) insertion Mops/s", func(p harness.SweepPoint) float64 { return p.InsertMops }},
		{"(b) deletion Mops/s", func(p harness.SweepPoint) float64 { return p.DeleteMops }},
		{"(c) successful lookup Mops/s", func(p harness.SweepPoint) float64 { return p.PosLookupMops }},
		{"(d) random lookup Mops/s", func(p harness.SweepPoint) float64 { return p.RandLookupMops }},
	}
	for _, panel := range panels {
		fmt.Println(panel.label)
		header := []string{"load%"}
		for _, r := range results {
			header = append(header, r.Name)
		}
		t := harness.NewTable(header...)
		for i := 0; ; i++ {
			row := []any{(i + 1) * 5}
			any := false
			for _, r := range results {
				if i < len(r.Points) {
					row = append(row, panel.pick(r.Points[i]))
					any = true
				} else {
					row = append(row, "-")
				}
			}
			if !any {
				break
			}
			t.AddRow(row...)
		}
		emit(cfg, t)
	}
	return results
}

// sweepDoc is the JSON document fig4/fig5 emit: the full sweep series per
// filter plus, for the VQF variants, the operation-counter totals of the
// final repetition's sweep (stats field of each result).
type sweepDoc struct {
	Experiment string                `json:"experiment"`
	Env        harness.BenchEnv      `json:"env"`
	Log2Slots  uint                  `json:"log2_slots"`
	Queries    int                   `json:"queries_per_point"`
	Repeat     int                   `json:"repeat"`
	Seed       uint64                `json:"seed"`
	Results    []harness.SweepResult `json:"results"`
}

func runFig4(cfg config) {
	fmt.Printf("Figure 4: in-RAM throughput vs load factor (2^%d slots, FPR 2^-8)\n", cfg.logSlotsRAM)
	results := sweepTables(cfg, cfg.logSlotsRAM, harness.SpecsFPR8())
	writeJSON(cfg, "fig4", sweepDoc{"fig4-load-sweep-ram", harness.CaptureEnv(), cfg.logSlotsRAM, cfg.queries, cfg.repeat, cfg.seed, results})
}

func runFig5(cfg config) {
	fmt.Printf("Figure 5: in-cache throughput vs load factor (2^%d slots, FPR 2^-8)\n", cfg.logSlotsCache)
	results := sweepTables(cfg, cfg.logSlotsCache, harness.SpecsFPR8())
	writeJSON(cfg, "fig5", sweepDoc{"fig5-load-sweep-cache", harness.CaptureEnv(), cfg.logSlotsCache, cfg.queries, cfg.repeat, cfg.seed, results})
}

func runFig6(cfg config) {
	panels := map[string]struct {
		label    string
		logSlots uint
		specs    []harness.Spec
	}{
		"a": {"Figure 6a: aggregate, RAM, FPR 2^-8", cfg.logSlotsRAM,
			append([]harness.Spec{harness.SpecVQF8Generic()}, harness.SpecsFPR8()...)},
		"b": {"Figure 6b: aggregate, cache, FPR 2^-8", cfg.logSlotsCache,
			append([]harness.Spec{harness.SpecVQF8Generic()}, harness.SpecsFPR8()...)},
		"c": {"Figure 6c: aggregate, RAM, FPR 2^-16", cfg.logSlotsRAM,
			append([]harness.Spec{harness.SpecVQF16Generic()}, harness.SpecsFPR16()...)},
		"d": {"Figure 6d: aggregate, cache, FPR 2^-16", cfg.logSlotsCache,
			append([]harness.Spec{harness.SpecVQF16Generic()}, harness.SpecsFPR16()...)},
	}
	order := []string{"a", "b", "c", "d"}
	if cfg.which != "" {
		order = strings.Split(cfg.which, "")
	}
	for _, key := range order {
		p, ok := panels[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "vqfbench: unknown fig6 panel %q\n", key)
			os.Exit(2)
		}
		fmt.Println(p.label)
		t := harness.NewTable("filter", "insert", "pos-lookup", "rand-lookup", "delete")
		for _, spec := range p.specs {
			r := harness.RunAggregate(spec, 1<<p.logSlots, cfg.seed)
			if r.Failed {
				t.AddRow(r.Name, "FAILED", "-", "-", "-")
				continue
			}
			t.AddRow(r.Name, r.InsertMops, r.PosLookupMops, r.RandLookupMops, r.DeleteMops)
		}
		emit(cfg, t)
	}
}

func runTable3(cfg config) {
	fmt.Printf("Table 3: write-heavy mixed workload at 90%% load (%d ops, 2^%d slots)\n",
		cfg.mixedOps, cfg.logSlotsRAM)
	t := harness.NewTable("filter", "Mops/s")
	for _, spec := range []harness.Spec{
		harness.SpecVQF8Shortcut(), harness.SpecCF12(), harness.SpecMF8(),
	} {
		r := harness.RunMixed(spec, 1<<cfg.logSlotsRAM, cfg.mixedOps, cfg.seed)
		if r.Failed {
			t.AddRow(r.Name, "FAILED")
			continue
		}
		t.AddRow(r.Name, r.Mops)
	}
	emit(cfg, t)
}

func runTable4(cfg config) {
	fmt.Printf("Table 4: concurrent insert scaling (2^%d slots; GOMAXPROCS=%d, physical cores gate real scaling)\n",
		cfg.logSlotsRAM, runtime.GOMAXPROCS(0))
	t := harness.NewTable("threads", "Mops/s")
	for _, r := range harness.RunThreadScaling(1<<cfg.logSlotsRAM, []int{1, 2, 3, 4}, cfg.seed) {
		t.AddRow(r.Threads, r.Mops)
	}
	emit(cfg, t)
}

func runElastic(cfg config) {
	// Start small enough (relative to -logslots) that the fill passes through
	// several growth events; with growth factor 2 the cascade reaches the
	// target item count after four to five levels.
	initialSlots := uint64(1) << (cfg.logSlotsCache - 3)
	totalItems := uint64(1) << cfg.logSlotsCache
	ecfg := elastic.Config{TargetFPR: 1.0 / 256, InitialSlots: initialSlots}
	fmt.Printf("Elastic growth: %d items through an initial capacity of %d slots (target FPR 2^-8)\n",
		totalItems, initialSlots)
	res := harness.RunGrowth(ecfg, totalItems, cfg.probes, cfg.queries, cfg.seed)
	t := harness.NewTable("levels", "items", "insert", "pos-lookup", "rand-lookup", "measured FPR", "bits/item")
	for _, s := range res.Segments {
		t.AddRow(s.Levels, s.Items, s.InsertMops, s.PosLookupMops, s.RandLookupMops,
			fmt.Sprintf("%.2e", s.MeasuredFPR), s.BitsPerItem)
	}
	emit(cfg, t)
	if res.Failed {
		fmt.Println("insert failed before reaching the target item count")
	}
	fmt.Printf("growth events: %d; FPR budget: %.2e (every checkpoint must stay below it)\n",
		res.GrowthEvents, res.TargetFPR)
	doc := struct {
		Experiment string               `json:"experiment"`
		Env        harness.BenchEnv     `json:"env"`
		Probes     int                  `json:"probes"`
		Queries    int                  `json:"queries_per_point"`
		Seed       uint64               `json:"seed"`
		Result     harness.GrowthResult `json:"result"`
	}{"elastic-growth", harness.CaptureEnv(), cfg.probes, cfg.queries, cfg.seed, res}
	writeJSON(cfg, "elastic", doc)
}

func runCompact(cfg config) {
	// Start far smaller than runElastic so the fill stacks many levels: the
	// point is a long churned cascade (≥6 levels) whose negative lookups pay
	// one block probe per level before compaction collapses it.
	initialSlots := uint64(1) << (cfg.logSlotsCache - 8)
	totalItems := uint64(1) << cfg.logSlotsCache
	probes := cfg.probes
	if probes < 1_000_000 {
		probes = 1_000_000 // FPR must be measured over at least a million probes
	}
	ecfg := elastic.Config{TargetFPR: 1.0 / 256, InitialSlots: initialSlots}
	fmt.Printf("Cascade compaction: %d items through an initial capacity of %d slots, then 75%% removed oldest-first\n",
		totalItems, initialSlots)
	res := harness.RunCompact(ecfg, totalItems, 0.75, probes, cfg.queries, cfg.seed)
	t := harness.NewTable("phase", "levels", "items", "neg-lookup", "pos-lookup", "measured FPR", "bits/item")
	for _, row := range []struct {
		name string
		s    harness.CompactSide
	}{{"before", res.Before}, {"after", res.After}} {
		t.AddRow(row.name, row.s.Levels, row.s.Items, row.s.NegLookupMops, row.s.PosLookupMops,
			fmt.Sprintf("%.2e", row.s.MeasuredFPR), row.s.BitsPerItem)
	}
	emit(cfg, t)
	if res.Failed {
		fmt.Println("compaction run FAILED: a live key went missing or an op was rejected")
	}
	fmt.Printf("merged %d levels in %.1f ms; negative-lookup speedup %.2fx (FPR budget %.2e)\n",
		res.LevelsMerged, res.CompactMs, res.NegSpeedup, res.TargetFPR)
	doc := struct {
		Experiment string                `json:"experiment"`
		Env        harness.BenchEnv      `json:"env"`
		Probes     int                   `json:"probes"`
		Queries    int                   `json:"queries_per_point"`
		Seed       uint64                `json:"seed"`
		Result     harness.CompactResult `json:"result"`
	}{"cascade-compaction", harness.CaptureEnv(), probes, cfg.queries, cfg.seed, res}
	writeJSON(cfg, "compact", doc)
}

func runFreeze(cfg config) {
	// The lsmstore churn: fill an 8-level cascade to ~90% of the next growth
	// trigger, then drop the oldest 85% of keys the way an LSM store retires
	// runs — every 16th old key survives as a long-lived straggler. Two
	// identically churned twins are then maintained both ways: CompactNow
	// (the all-VQF baseline) versus FreezeNow on the churned state (the
	// mixed VQF/fuse tier). The headline is bits/item against the churned
	// cascade and negative-lookup throughput against the compacted one.
	initialSlots := uint64(1) << (cfg.logSlotsCache - 8)
	// 195× the initial budget lands inside the 8-level regime (growth to a
	// 9th level would fire near 217×), so the insert-target level — the one
	// a freeze can never take — is well loaded when the churn stops.
	totalItems := initialSlots * 195
	probes := cfg.probes
	if probes < 1_000_000 {
		probes = 1_000_000 // FPR must be measured over at least a million probes
	}
	ecfg := elastic.Config{TargetFPR: 1.0 / 256, InitialSlots: initialSlots}
	fmt.Printf("Frozen tier: %d items through an initial capacity of %d slots, 85%% of runs retired oldest-first\n"+
		"(1/%d long-lived survivors), then compact vs freeze on churned twins\n",
		totalItems, initialSlots, harness.SurvivorStride)
	res := harness.RunFreeze(ecfg, totalItems, 0.85, probes, cfg.queries, cfg.seed)
	t := harness.NewTable("phase", "levels", "fuse", "items", "neg-lookup", "pos-lookup", "measured FPR", "bits/item")
	for _, row := range []struct {
		name string
		s    harness.FreezeSide
	}{{"churned", res.Churned}, {"compacted", res.Compacted}, {"frozen", res.Frozen}} {
		t.AddRow(row.name, row.s.Levels, row.s.FuseLevels, row.s.Items, row.s.NegLookupMops,
			row.s.PosLookupMops, fmt.Sprintf("%.2e", row.s.MeasuredFPR), row.s.BitsPerItem)
	}
	emit(cfg, t)
	if res.Failed {
		fmt.Println("freeze run FAILED: a live key went missing or an op was rejected")
	}
	fmt.Printf("froze %d levels into %d fuse levels in %.1f ms; bits/item %.2fx of churned, neg-lookup %.2fx of compacted (FPR budget %.2e)\n",
		res.LevelsFrozen, res.FuseLevels, res.FreezeMs,
		res.BitsRatioVsChurned, res.NegRatioVsCompacted, res.TargetFPR)
	doc := struct {
		Experiment string               `json:"experiment"`
		Env        harness.BenchEnv     `json:"env"`
		Probes     int                  `json:"probes"`
		Queries    int                  `json:"queries_per_point"`
		Seed       uint64               `json:"seed"`
		Result     harness.FreezeResult `json:"result"`
	}{"frozen-tier", harness.CaptureEnv(), probes, cfg.queries, cfg.seed, res}
	writeJSON(cfg, "freeze", doc)
}

func runMaxLoad(cfg config) {
	fmt.Printf("Max load factor by design variant (2^%d slots)\n", cfg.logSlotsRAM)
	t := harness.NewTable("config", "max load")
	for _, r := range harness.RunMaxLoad(1<<cfg.logSlotsRAM, cfg.seed) {
		t.AddRow(r.Config, fmt.Sprintf("%.4f", r.MaxLoad))
	}
	emit(cfg, t)
}

func runMaxLoadScale(cfg config) {
	fmt.Println("Max load factor vs filter scale (the xor trick's failure probability")
	fmt.Println("grows with filter size, §3.4; all values drop slowly as blocks multiply)")
	t := harness.NewTable("log2(slots)", "independent", "xor-trick", "shortcut-75%")
	for logSlots := uint(16); logSlots <= cfg.logSlotsRAM; logSlots += 2 {
		rows := harness.RunMaxLoad(1<<logSlots, cfg.seed)
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r.Config] = r.MaxLoad
		}
		t.AddRow(logSlots,
			fmt.Sprintf("%.4f", byName["independent-hash, no shortcut"]),
			fmt.Sprintf("%.4f", byName["xor-trick, no shortcut"]),
			fmt.Sprintf("%.4f", byName["shortcut 75% (36/48)"]))
	}
	emit(cfg, t)
}

func runChoices(cfg config) {
	fmt.Printf("Placement-policy ablation at 85%% load (2^%d slots)\n", cfg.logSlotsCache)
	results := harness.RunChoices(1<<cfg.logSlotsCache, 0.85, cfg.seed)
	t := harness.NewTable("policy", "load", "mean occ", "stddev", "min occ", "max occ", "full blocks %")
	for _, r := range results {
		t.AddRow(r.Policy, r.Load, r.MeanOcc, r.StddevOcc, r.MinOcc, r.MaxOcc, r.FullPct)
	}
	emit(cfg, t)
	doc := struct {
		Experiment string                `json:"experiment"`
		Env        harness.BenchEnv      `json:"env"`
		Log2Slots  uint                  `json:"log2_slots"`
		Load       float64               `json:"load"`
		Seed       uint64                `json:"seed"`
		Results    []harness.ChoiceStats `json:"results"`
	}{"choices-placement-ablation", harness.CaptureEnv(), cfg.logSlotsCache, 0.85, cfg.seed, results}
	writeJSON(cfg, "choices", doc)
}

func runAblation(cfg config) {
	fmt.Printf("SWAR vs scalar block operations (§7.7 analog, 2^%d slots)\n", cfg.logSlotsRAM)
	t := harness.NewTable("variant", "insert", "pos-lookup", "rand-lookup", "delete")
	for _, spec := range []harness.Spec{
		harness.SpecVQF8Shortcut(), harness.SpecVQF8Generic(),
		harness.SpecVQF16Shortcut(), harness.SpecVQF16Generic(),
	} {
		r := harness.RunAggregate(spec, 1<<cfg.logSlotsRAM, cfg.seed)
		t.AddRow(r.Name, r.InsertMops, r.PosLookupMops, r.RandLookupMops, r.DeleteMops)
	}
	emit(cfg, t)
}

func log2(x float64) float64 {
	l := 0.0
	for x < 1 {
		x *= 2
		l++
	}
	return l
}
