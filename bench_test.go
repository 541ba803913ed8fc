package vqf

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark executes the corresponding harness
// experiment at a reduced scale (so `go test -bench=.` completes in minutes;
// the cmd/vqfbench driver runs the full-scale versions) and reports the
// figure's key series as custom metrics. Shape expectations against the
// paper are recorded in EXPERIMENTS.md.

import (
	"testing"

	"vqf/internal/analysis"
	"vqf/internal/harness"
)

const (
	benchSlots      = 1 << 16 // reduced scale for bench iterations
	benchSlotsSmall = 1 << 14
	benchQueries    = 20000
)

// BenchmarkTable1SpaceFormulas regenerates Table 1 (analytic bits/item).
func BenchmarkTable1SpaceFormulas(b *testing.B) {
	var sink analysis.BitsPerItem
	for i := 0; i < b.N; i++ {
		sink = analysis.Table1(1.0 / 256)
	}
	b.ReportMetric(sink.VQF, "vqf-bits/item")
	b.ReportMetric(sink.Cuckoo, "cf-bits/item")
	b.ReportMetric(sink.Quotient, "qf-bits/item")
}

// BenchmarkFig2SpaceVsFPR regenerates the Figure 2 curves.
func BenchmarkFig2SpaceVsFPR(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(analysis.Figure2(5, 25, 0.5))
	}
	b.ReportMetric(float64(n), "points")
}

// BenchmarkFig3OverheadCurve regenerates the Figure 3 overhead curve and its
// chosen configuration points.
func BenchmarkFig3OverheadCurve(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		pts := analysis.Figure3(0.5, 1.0, 0.01)
		v = pts[len(pts)/2].Overhead
		for _, c := range analysis.ChosenConfigs() {
			v += c.Overhead
		}
	}
	b.ReportMetric(analysis.OverheadBits(analysis.OptimalRatio()), "optimal-bits")
	_ = v
}

// BenchmarkTable2EmpiricalSpace regenerates Table 2: empirical space and FPR
// for the ε≈2⁻⁸ line-up.
func BenchmarkTable2EmpiricalSpace(b *testing.B) {
	var rows []harness.SpaceRow
	for i := 0; i < b.N; i++ {
		rows = harness.RunSpace(harness.SpecsFPR8(), benchSlotsSmall, 100000, 42)
	}
	for _, r := range rows {
		b.ReportMetric(r.Efficiency, r.Name+"-efficiency")
	}
}

// sweepBench runs the Figure 4/5 sweep for one spec and reports the
// instantaneous insert throughput at low and high load, whose ratio is the
// paper's headline "does it degrade as it fills" metric.
func sweepBench(b *testing.B, spec harness.Spec, nslots uint64) {
	var res harness.SweepResult
	for i := 0; i < b.N; i++ {
		res = harness.RunSweep(spec, nslots, benchQueries, 42)
	}
	if res.Failed || len(res.Points) == 0 {
		b.Fatalf("%s: sweep failed", spec.Name)
	}
	first, last := res.Points[1], res.Points[len(res.Points)-1]
	b.ReportMetric(first.InsertMops, "insert-Mops@10")
	b.ReportMetric(last.InsertMops, "insert-Mops@max")
	b.ReportMetric(last.PosLookupMops, "poslookup-Mops@max")
	b.ReportMetric(last.RandLookupMops, "randlookup-Mops@max")
	b.ReportMetric(last.DeleteMops, "delete-Mops@max")
}

// BenchmarkFig4InRAMVQF .. BenchmarkFig4InRAMMorton regenerate the Figure 4
// panels (in-RAM load-factor sweeps), one benchmark per paper line.
func BenchmarkFig4InRAMVQF(b *testing.B) { sweepBench(b, harness.SpecVQF8(), benchSlots) }
func BenchmarkFig4InRAMVQFShortcut(b *testing.B) {
	sweepBench(b, harness.SpecVQF8Shortcut(), benchSlots)
}
func BenchmarkFig4InRAMQuotient(b *testing.B) { sweepBench(b, harness.SpecQF8(), benchSlots) }
func BenchmarkFig4InRAMCuckoo(b *testing.B)   { sweepBench(b, harness.SpecCF12(), benchSlots) }
func BenchmarkFig4InRAMMorton(b *testing.B)   { sweepBench(b, harness.SpecMF8(), benchSlots) }

// BenchmarkFig5InCache* regenerate the Figure 5 panels (filters sized to fit
// in cache).
func BenchmarkFig5InCacheVQF(b *testing.B) {
	sweepBench(b, harness.SpecVQF8Shortcut(), benchSlotsSmall)
}
func BenchmarkFig5InCacheQuotient(b *testing.B) { sweepBench(b, harness.SpecQF8(), benchSlotsSmall) }
func BenchmarkFig5InCacheCuckoo(b *testing.B)   { sweepBench(b, harness.SpecCF12(), benchSlotsSmall) }
func BenchmarkFig5InCacheMorton(b *testing.B)   { sweepBench(b, harness.SpecMF8(), benchSlotsSmall) }

func aggregateBench(b *testing.B, spec harness.Spec, nslots uint64) {
	var res harness.AggregateResult
	for i := 0; i < b.N; i++ {
		res = harness.RunAggregate(spec, nslots, 42)
	}
	if res.Failed {
		b.Fatalf("%s: aggregate run failed", spec.Name)
	}
	b.ReportMetric(res.InsertMops, "insert-Mops")
	b.ReportMetric(res.PosLookupMops, "poslookup-Mops")
	b.ReportMetric(res.RandLookupMops, "randlookup-Mops")
	b.ReportMetric(res.DeleteMops, "delete-Mops")
}

// BenchmarkFig6a* regenerate Figure 6a (aggregate, RAM, ε≈2⁻⁸).
func BenchmarkFig6aVQF(b *testing.B)        { aggregateBench(b, harness.SpecVQF8Shortcut(), benchSlots) }
func BenchmarkFig6aVQFNoShort(b *testing.B) { aggregateBench(b, harness.SpecVQF8(), benchSlots) }
func BenchmarkFig6aQuotient(b *testing.B)   { aggregateBench(b, harness.SpecQF8(), benchSlots) }
func BenchmarkFig6aCuckoo(b *testing.B)     { aggregateBench(b, harness.SpecCF12(), benchSlots) }
func BenchmarkFig6aMorton(b *testing.B)     { aggregateBench(b, harness.SpecMF8(), benchSlots) }

// BenchmarkFig6b* regenerate Figure 6b (aggregate, cache, ε≈2⁻⁸).
func BenchmarkFig6bVQF(b *testing.B)    { aggregateBench(b, harness.SpecVQF8Shortcut(), benchSlotsSmall) }
func BenchmarkFig6bCuckoo(b *testing.B) { aggregateBench(b, harness.SpecCF12(), benchSlotsSmall) }
func BenchmarkFig6bMorton(b *testing.B) { aggregateBench(b, harness.SpecMF8(), benchSlotsSmall) }

// BenchmarkFig6c* regenerate Figure 6c (aggregate, RAM, ε≈2⁻¹⁶).
func BenchmarkFig6cVQF(b *testing.B)      { aggregateBench(b, harness.SpecVQF16Shortcut(), benchSlots) }
func BenchmarkFig6cQuotient(b *testing.B) { aggregateBench(b, harness.SpecQF16(), benchSlots) }
func BenchmarkFig6cCuckoo(b *testing.B)   { aggregateBench(b, harness.SpecCF16(), benchSlots) }
func BenchmarkFig6cMorton(b *testing.B)   { aggregateBench(b, harness.SpecMF16(), benchSlots) }

// BenchmarkFig6d* regenerate Figure 6d (aggregate, cache, ε≈2⁻¹⁶).
func BenchmarkFig6dVQF(b *testing.B)    { aggregateBench(b, harness.SpecVQF16Shortcut(), benchSlotsSmall) }
func BenchmarkFig6dCuckoo(b *testing.B) { aggregateBench(b, harness.SpecCF16(), benchSlotsSmall) }
func BenchmarkFig6dMorton(b *testing.B) { aggregateBench(b, harness.SpecMF16(), benchSlotsSmall) }

// BenchmarkTable3WriteHeavy regenerates Table 3: the write-heavy mixed
// workload at 90% load factor, one sub-benchmark per paper row.
func BenchmarkTable3WriteHeavy(b *testing.B) {
	for _, spec := range []harness.Spec{
		harness.SpecVQF8Shortcut(), harness.SpecCF12(), harness.SpecMF8(),
	} {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var res harness.MixedResult
			for i := 0; i < b.N; i++ {
				res = harness.RunMixed(spec, benchSlots, 300000, 42)
			}
			if res.Failed {
				b.Fatalf("%s: mixed run failed", spec.Name)
			}
			b.ReportMetric(res.Mops, "Mops")
		})
	}
}

// BenchmarkTable4ThreadScaling regenerates Table 4: concurrent insert
// throughput at 1–4 threads (real scaling is gated by physical cores; see
// EXPERIMENTS.md).
func BenchmarkTable4ThreadScaling(b *testing.B) {
	var rows []harness.ThreadResult
	for i := 0; i < b.N; i++ {
		rows = harness.RunThreadScaling(benchSlots, []int{1, 2, 3, 4}, 42)
	}
	for _, r := range rows {
		b.ReportMetric(r.Mops, "Mops-"+itoa(r.Threads)+"t")
	}
}

// BenchmarkMaxLoadFactor regenerates the §3.4/§6.2 maximum-load-factor
// measurements.
func BenchmarkMaxLoadFactor(b *testing.B) {
	var rows []harness.MaxLoadRow
	for i := 0; i < b.N; i++ {
		rows = harness.RunMaxLoad(benchSlots, 42)
	}
	for _, r := range rows {
		b.ReportMetric(r.MaxLoad, "maxload-"+shorten(r.Config))
	}
}

// BenchmarkAblationGenericBlock regenerates the §7.7 analog: aggregate
// throughput of the shortcut VQF on the assembly kernels versus their
// portable Go bodies.
func BenchmarkAblationGenericBlock(b *testing.B) {
	for _, asm := range []bool{true, false} {
		name := "portable"
		if asm {
			name = "asm"
		}
		b.Run(name, func(b *testing.B) {
			harness.WithKernels(asm, func() { aggregateBench(b, harness.SpecVQF8Shortcut(), benchSlots) })
		})
	}
}

// BenchmarkChoicesPlacement regenerates the Theorem 1 design ablation:
// block-occupancy dispersion under two-choice vs single-choice placement.
func BenchmarkChoicesPlacement(b *testing.B) {
	var rows []harness.ChoiceStats
	for i := 0; i < b.N; i++ {
		rows = harness.RunChoices(benchSlotsSmall, 0.85, 42)
	}
	for _, r := range rows {
		b.ReportMetric(r.StddevOcc, "stddev-"+shorten(r.Policy))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func shorten(s string) string {
	out := make([]rune, 0, 12)
	for _, r := range s {
		if r == ' ' || r == ',' || r == '(' {
			break
		}
		out = append(out, r)
	}
	return string(out)
}
