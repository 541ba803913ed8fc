// Command perfbench is the repository's benchmark. Each invocation runs one
// workload in its own process: it builds the workload's state through the
// public API, runs a closed loop of requests from one client, checks every
// answer, and prints one JSON result line last.
//
//	perfbench --workload cache-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it sends
// the same requests through each layer's twin in turn and prints the
// per-layer metrics and writes its spans under .bench_build/. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"vqf/internal/harness"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndDefs are printed by untraced runs, in this order.
var endToEndDefs = []metricDef{
	{"throughput_mops", "Mops/s"},
	{"req_p50_us", "us"},
	{"setup_s", "s"},
	{"bits_per_item", "bits"},
	{"success_ratio", "ratio"},
}

// perLayer are printed by traced runs.
var perLayer = []metricDef{
	{"minifilter.contains_ns", "ns"},
	{"minifilter.insert_ns", "ns"},
	{"minifilter.remove_ns", "ns"},
	{"core.contains_ns_per_key", "ns"},
	{"core.insert_ns_per_key", "ns"},
	{"core.remove_ns_per_key", "ns"},
	{"core.shortcut_ratio", "ratio"},
	{"core.opt_retry_ratio", "ratio"},
	{"hashing.ns_per_key", "ns"},
	{"vqf.contains_self_ns", "ns"},
	{"vqf.insert_self_ns", "ns"},
	{"vqf.remove_self_ns", "ns"},
	{"elastic.contains_self_ns", "ns"},
	{"elastic.insert_self_ns", "ns"},
	{"elastic.remove_self_ns", "ns"},
	{"elastic.probes_per_lookup", "probes"},
	{"elastic.levels", "count"},
	{"elastic.fuse_levels", "count"},
	{"elastic.compactions", "count"},
	{"elastic.freezes", "count"},
	{"elastic.thaws", "count"},
	{"elastic.stall_ms", "ms"},
	{"service.rtt_us", "us"},
	{"service.self_us_per_req", "us"},
	{"service.error_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_key", "B/key"},
	{"driver.req_p99_us", "us"},
	{"driver.req_count", "count"},
	{"check.fpr", "ratio"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultOf(defs []metricDef, vals map[string]float64, chk *checker) result {
	r := result{Correct: true, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return r
}

// cacheSizes reads the L2 and L3 sizes of CPU 0 from sysfs ("" if absent).
func cacheSizes() (l2, l3 string) {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			l2 = strings.TrimSpace(string(size))
		case "3":
			l3 = strings.TrimSpace(string(size))
		}
	}
	return l2, l3
}

// stamp prints the environment stamp as a comment line.
func stamp(w *workload, seed uint64, seconds float64, trace int) {
	l2, l3 := cacheSizes()
	env, _ := json.Marshal(struct {
		harness.BenchEnv
		L2       string  `json:"l2"`
		L3       string  `json:"l3"`
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    int     `json:"trace"`
	}{harness.CaptureEnv(), l2, l3, w.name, seed, seconds, trace})
	fmt.Printf("# env %s\n", env)
}

func main() {
	name := flag.String("workload", "", "workload: cache-batch, cascade-churn or vqfd-binary")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced layer-ladder run printing per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int) error {
	w, err := findWorkload(fullSizes, name)
	if err != nil {
		return err
	}
	procs := runtime.NumCPU()
	if w.procs > 0 {
		procs = w.procs
	}
	runtime.GOMAXPROCS(procs)
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	stamp(w, seed, seconds, trace)
	var out result
	if trace == 0 {
		r, err := runUntraced(w, seed, seconds)
		if err != nil {
			return err
		}
		fmt.Printf("# filter_bytes %d items %d setups_s %v requests %d p99_us %.3f fail_ratio %g fpr %.3g (%d/%d)\n",
			r.bytes, r.items, r.setups, r.requests, r.p99us, r.failRatio(), r.chk.fprRatio(), r.chk.falsePos, r.chk.absent)
		fmt.Printf("# parts mops %.4g\n# parts p50_us %.4g\n", r.partMops, r.partP50us)
		out = resultOf(endToEndDefs, r.metrics(), &r.chk)
	} else {
		l, err := runTraced(w, seed, seconds)
		if err != nil {
			return err
		}
		spans := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, seed)
		if err := l.writeSpans(spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		for i, r := range l.rungs {
			fmt.Printf("# rung %-10s insert %8.2f remove %8.2f contains %8.2f ns/key\n", r.name,
				l.cost[i][opInsert].perKey(), l.cost[i][opRemove].perKey(), l.cost[i][opContains].perKey())
		}
		fmt.Printf("# filter_bytes %d items %d\n# spans %d -> %s\n", l.top().bytes(), l.top().items(), len(l.spans), spans)
		out = resultOf(perLayer, l.metrics(), &l.chk)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
