package harness

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"vqf/internal/minifilter"
)

// BenchEnv records the execution environment of a benchmark run. Every
// BENCH_*.json artifact embeds one, so a number can always be traced back to
// the parallelism, architecture, and kernel implementation that produced it
// — scaling results from a 1-CPU container and a 32-core box are not
// comparable, and the stamp makes the difference visible instead of silent.
type BenchEnv struct {
	// GoMaxProcs is runtime.GOMAXPROCS at capture time: the parallelism the
	// Go scheduler will actually use.
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU(): the logical CPUs the OS exposes.
	NumCPU int `json:"num_cpu"`
	// PhysicalCores is the distinct physical core count parsed from
	// /proc/cpuinfo, or 0 when unavailable (non-Linux, restricted
	// container). SMT siblings share execution resources, so scaling past
	// PhysicalCores is not expected to be linear.
	PhysicalCores int    `json:"physical_cores"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GoVersion     string `json:"go_version"`
	// AsmKernels reports whether the fused assembly kernels were selected
	// (false on non-amd64 and purego builds, on CPUs without BMI2, and under
	// -kernels-impl generic).
	AsmKernels bool `json:"asm_kernels"`
}

// CaptureEnv snapshots the current benchmark environment.
func CaptureEnv() BenchEnv {
	return BenchEnv{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		PhysicalCores: physicalCores(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoVersion:     runtime.Version(),
		AsmKernels:    minifilter.AsmEnabled(),
	}
}

// physicalCores counts distinct (physical id, core id) pairs in
// /proc/cpuinfo: the physical cores behind the logical CPUs. Returns 0 when
// the topology cannot be read.
func physicalCores() int {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	cores := map[string]bool{}
	var phys, core string
	for _, line := range strings.Split(string(buf), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			if phys != "" || core != "" {
				cores[phys+"/"+core] = true
			}
			phys, core = "", ""
			continue
		}
		switch strings.TrimSpace(key) {
		case "physical id":
			phys = strings.TrimSpace(val)
		case "core id":
			core = strings.TrimSpace(val)
		}
	}
	if phys != "" || core != "" {
		cores[phys+"/"+core] = true
	}
	return len(cores)
}

// WarnUnderprovisioned prints a loud warning to stderr when a scaling
// experiment asks for more threads than the runtime will schedule in
// parallel: the resulting "scaling" numbers measure time-slicing, not
// cores, and must not be read as the filter's parallel speedup. It returns
// true when the warning fired.
func WarnUnderprovisioned(requested int) bool {
	avail := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < avail {
		avail = n
	}
	if requested <= avail {
		return false
	}
	fmt.Fprintf(os.Stderr,
		"\n*** WARNING: scaling experiment requested %d threads but only %d can run in parallel ***\n"+
			"*** (GOMAXPROCS=%d, NumCPU=%d). Thread counts beyond %d time-slice on the same cores; ***\n"+
			"*** their Mops/s do NOT measure multi-core scaling. Re-run on a machine with >= %d CPUs. ***\n\n",
		requested, avail, runtime.GOMAXPROCS(0), runtime.NumCPU(), avail, requested)
	return true
}
