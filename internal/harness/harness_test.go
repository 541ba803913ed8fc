package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vqf/internal/core"
)

// The harness tests run every experiment at a deliberately small scale: the
// goal is to validate the machinery (slice accounting, stream plumbing, the
// false-negative and delete assertions built into each run), not to produce
// publication numbers.

const testSlots = 1 << 14

func TestRunSweepAllSpecs(t *testing.T) {
	for _, spec := range append(SpecsFPR8(), SpecsFPR16()...) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := RunSweep(spec, testSlots, 2000, 42)
			if res.Failed {
				t.Fatalf("%s: sweep failed before target load", spec.Name)
			}
			wantPoints := int(spec.MaxLoad*100) / 5
			if len(res.Points) != wantPoints {
				t.Fatalf("%s: %d points, want %d", spec.Name, len(res.Points), wantPoints)
			}
			for _, p := range res.Points {
				if p.InsertMops <= 0 || p.PosLookupMops <= 0 || p.RandLookupMops <= 0 {
					t.Fatalf("%s: nonpositive throughput at %d%%: %+v", spec.Name, p.LoadPct, p)
				}
				if p.DeleteMops <= 0 {
					t.Fatalf("%s: missing delete throughput at %d%%", spec.Name, p.LoadPct)
				}
			}
		})
	}
}

func TestRunAggregateAllSpecs(t *testing.T) {
	for _, spec := range SpecsFPR8() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := RunAggregate(spec, testSlots, 7)
			if res.Failed {
				t.Fatalf("%s: aggregate run failed", spec.Name)
			}
			if res.InsertMops <= 0 || res.PosLookupMops <= 0 ||
				res.RandLookupMops <= 0 || res.DeleteMops <= 0 {
				t.Fatalf("%s: nonpositive aggregate throughput: %+v", spec.Name, res)
			}
		})
	}
}

func TestRunMixed(t *testing.T) {
	for _, spec := range []Spec{SpecVQF8Shortcut(), SpecCF12(), SpecMF8()} {
		res := RunMixed(spec, testSlots, 30000, 9)
		if res.Failed {
			t.Fatalf("%s: mixed run failed", spec.Name)
		}
		if res.Mops <= 0 {
			t.Fatalf("%s: nonpositive mixed throughput", spec.Name)
		}
	}
}

func TestRunThreadScaling(t *testing.T) {
	rows := RunThreadScaling(testSlots, []int{1, 2}, 11)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Mops <= 0 {
			t.Fatalf("thread=%d throughput %f", r.Threads, r.Mops)
		}
	}
}

// TestMulticoreFillsToCapacity: the multicore fills reach 85% of the
// filter's built capacity, not of the requested slot count, which the
// power-of-two block count rounds up (30000 and 2^15 slots build 1024
// blocks, 49152 slots: 85% of the request would be 52% and 57% load).
func TestMulticoreFillsToCapacity(t *testing.T) {
	for _, nslots := range []uint64{30000, 1 << 15} {
		for _, c := range []struct {
			name  string
			fresh func() mcFilter
		}{
			{"cfilter8", func() mcFilter { return core.NewCFilter8(nslots, core.Options{}) }},
			{"sharded8", func() mcFilter { return core.NewSharded8(nslots, 4, core.Options{}) }},
		} {
			check := func(fill string, f mcFilter) {
				t.Helper()
				if lf := f.(interface{ LoadFactor() float64 }).LoadFactor(); math.Abs(lf-0.85) > 0.002 {
					t.Errorf("%s %d slots, %s: load %.4f after the fill, want 0.85 of capacity %d",
						c.name, nslots, fill, lf, f.Capacity())
				}
			}
			f := c.fresh()
			fillTo85(f, 5)
			check("fillTo85", f)
			for _, threads := range []int{1, 2} {
				f := c.fresh()
				mcInsertFill(f, threads, 5)
				check(fmt.Sprintf("mcInsertFill/%d", threads), f)
			}
		}
	}
}

func TestRunSpace(t *testing.T) {
	rows := RunSpace(append(SpecsFPR8(), SpecBloom8()), testSlots, 200000, 13)
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Items == 0 || r.SpaceMB <= 0 || r.BitsPerKey <= 0 {
			t.Fatalf("degenerate space row: %+v", r)
		}
		// All ε≈2⁻⁸-class filters should measure within a few bits of 8.
		if r.LogFPR < 5 || r.LogFPR > 14 {
			t.Errorf("%s: measured log FPR %.2f outside plausible range", r.Name, r.LogFPR)
		}
		if r.Efficiency <= 0.3 || r.Efficiency > 1.0 {
			t.Errorf("%s: efficiency %.3f outside (0.3, 1.0]", r.Name, r.Efficiency)
		}
	}
}

func TestRunMaxLoad(t *testing.T) {
	rows := RunMaxLoad(1<<15, 17)
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.MaxLoad < 0.3 || r.MaxLoad > 1.0 {
			t.Fatalf("%s: implausible max load %.3f", r.Config, r.MaxLoad)
		}
		byName[r.Config] = r.MaxLoad
	}
	// Shape assertions from §3.4/§6.2: xor ≲ independent; aggressive
	// shortcut thresholds reduce the max load.
	if byName["shortcut 95.83% (46/48)"] >= byName["shortcut 75% (36/48)"] {
		t.Error("95.83% threshold should lower max load vs 75%")
	}
	if byName["xor-trick, no shortcut"] < byName["shortcut 75% (36/48)"]-0.02 {
		t.Error("no-shortcut max load should not be far below shortcut")
	}
}

func TestRunChoices(t *testing.T) {
	rows := RunChoices(1<<15, 0.85, 19)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var two, one ChoiceStats
	for _, r := range rows {
		if r.Policy == "two-choice" {
			two = r
		} else {
			one = r
		}
	}
	// Theorem 1's point: two choices shrink occupancy dispersion.
	if two.StddevOcc >= one.StddevOcc {
		t.Errorf("two-choice stddev %.2f not below single-choice %.2f",
			two.StddevOcc, one.StddevOcc)
	}
	if two.FullPct > one.FullPct {
		t.Errorf("two-choice has more full blocks (%.2f%%) than single-choice (%.2f%%)",
			two.FullPct, one.FullPct)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 22)
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.500") || !strings.Contains(s, "22") {
		t.Errorf("table output missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("bad CSV header: %q", csv)
	}
}

func TestSpecCapacitiesComparable(t *testing.T) {
	// All specs sized with the same slot budget should end up within 2× of
	// one another (power-of-two rounding) — a sanity check that Table 2
	// space comparisons are apples-to-apples.
	for _, spec := range SpecsFPR8() {
		f, err := spec.New(testSlots)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		c := f.Capacity()
		if c < testSlots || c > testSlots*3 {
			t.Errorf("%s: capacity %d for %d requested slots", spec.Name, c, testSlots)
		}
	}
}
