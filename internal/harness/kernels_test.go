package harness

import (
	"encoding/json"
	"testing"

	"vqf/internal/core"
)

// TestRunKernelsSmoke runs the kernel microbenchmarks at toy scale and
// checks the result inventory: every filter/op pair present (every op on
// the sequential filters, cfilterOps on the concurrent ones), every sample
// positive, summaries populated.
func TestRunKernelsSmoke(t *testing.T) {
	results := RunKernels(KernelConfig{NSlots: 1 << 12, Batch: 512, Reps: 2, Seed: 7})
	want := map[string]bool{}
	for _, geom := range []string{"filter8", "filter16"} {
		for _, op := range []string{"insert", "insert-batch", "lookup-pos",
			"lookup-rand", "contains-batch", "remove", "remove-batch"} {
			want[geom+"/"+op] = false
		}
	}
	for _, geom := range []string{"cfilter8", "cfilter16"} {
		for _, op := range []string{"insert", "insert-batch", "contains-batch", "remove", "remove-batch"} {
			want[geom+"/"+op] = false
		}
	}
	for _, r := range results {
		seen, ok := want[r.Name]
		if !ok {
			t.Fatalf("unexpected kernel %q", r.Name)
		}
		if seen {
			t.Fatalf("duplicate kernel %q", r.Name)
		}
		want[r.Name] = true
		if len(r.Samples) != 2 {
			t.Fatalf("%s: %d samples, want 2", r.Name, len(r.Samples))
		}
		if r.Mops <= 0 {
			t.Fatalf("%s: non-positive throughput %v", r.Name, r.Mops)
		}
		for _, s := range r.Samples {
			if s <= 0 {
				t.Fatalf("%s: non-positive sample %v", r.Name, s)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("kernel %q missing from results", name)
		}
	}
}

// observeCFilter adapts a core concurrent filter to ObserveFilter; it has no
// sampling gate, so RunObserve's rates only relabel identical runs.
type observeCFilter struct{ *core.CFilter8 }

func (f observeCFilter) AddHash(h uint64) error     { f.Insert(h); return nil }
func (f observeCFilter) ContainsHash(h uint64) bool { return f.Contains(h) }

// TestOneRepResultsMarshal runs the kernel and observe experiments with a
// single sample each, where the 95% CI is undefined, and requires their
// results to encode as JSON.
func TestOneRepResultsMarshal(t *testing.T) {
	kernels := RunKernels(KernelConfig{NSlots: 1 << 12, Batch: 512, Reps: 1, Seed: 7})
	observe := RunObserve(ObserveConfig{
		NewFilter: func(int) ObserveFilter { return observeCFilter{core.NewCFilter8(1<<12, core.Options{})} },
		Rates:     []int{0, 8},
		Reps:      1,
		Seed:      7,
		OracleOps: 1000,
	})
	for name, v := range map[string]any{"kernels": kernels, "observe": observe} {
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
