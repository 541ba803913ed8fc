package harness

import "testing"

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
