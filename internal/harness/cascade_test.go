package harness

import (
	"testing"

	"vqf/internal/elastic"
)

// TestRunCascade runs the cascade lifecycle at toy scale with survivors on
// and checks every phase: the fill closes growth segments that each stay
// inside the FPR budget, compaction shortens the churned cascade, and the
// freeze turns its sparse levels into a fuse tier that costs fewer bits per
// item than the churned state.
func TestRunCascade(t *testing.T) {
	res := RunCascade(CascadeConfig{
		Elastic:        elastic.Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 6},
		TotalItems:     1 << 14,
		RemovedFrac:    0.85,
		SurvivorStride: 16,
		Probes:         100000,
		Queries:        5000,
		Seed:           3,
	})
	if res.Failed {
		t.Fatal("cascade run failed: a live key went missing or an op was rejected")
	}
	if len(res.Growth) < 3 {
		t.Fatalf("%d growth segments, want at least 3", len(res.Growth))
	}
	for i, s := range res.Growth {
		if s.MeasuredFPR > res.TargetFPR {
			t.Fatalf("growth segment %d: measured FPR %g over the budget %g", i, s.MeasuredFPR, res.TargetFPR)
		}
		if s.InsertMops <= 0 || s.NegLookupMops <= 0 || s.PosLookupMops <= 0 {
			t.Fatalf("growth segment %d: nonpositive throughput %+v", i, s)
		}
	}
	if last := res.Growth[len(res.Growth)-1]; last.Items != res.TotalItems {
		t.Fatalf("fill ends at %d items, want %d", last.Items, res.TotalItems)
	}
	if res.Compacted.Levels >= res.Churned.Levels || res.LevelsMerged == 0 {
		t.Fatalf("compaction: %d levels before, %d after, %d merged",
			res.Churned.Levels, res.Compacted.Levels, res.LevelsMerged)
	}
	if res.FuseLevels < 1 || res.Frozen.BitsPerItem >= res.Churned.BitsPerItem {
		t.Fatalf("freeze: %d fuse levels, %.1f bits/item against %.1f churned",
			res.FuseLevels, res.Frozen.BitsPerItem, res.Churned.BitsPerItem)
	}
	for _, s := range []CascadeSide{res.Churned, res.Compacted, res.Frozen} {
		if s.Items != res.Churned.Items || s.MeasuredFPR > res.TargetFPR {
			t.Fatalf("side %+v: items or FPR off (churned holds %d, budget %g)", s, res.Churned.Items, res.TargetFPR)
		}
	}
}
