package elastic

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"vqf/internal/workload"
)

// churn grows f to at least minLevels levels by inserting keys, then
// removes the given fraction of them (oldest-inserted first, which
// concentrates the holes in the old levels). Returns the still-live keys.
func churn(t *testing.T, f interface {
	Insert(uint64) bool
	Remove(uint64) bool
	NumLevels() int
}, seed uint64, total int, minLevels int, removeFrac float64) []uint64 {
	t.Helper()
	keys := workload.NewStream(seed).Keys(total)
	for _, k := range keys {
		if !f.Insert(k) {
			t.Fatal("insert failed")
		}
	}
	if f.NumLevels() < minLevels {
		t.Fatalf("churn produced %d levels, want ≥%d (raise total)", f.NumLevels(), minLevels)
	}
	cut := int(float64(len(keys)) * removeFrac)
	for _, k := range keys[:cut] {
		if !f.Remove(k) {
			t.Fatal("remove of inserted key failed")
		}
	}
	return keys[cut:]
}

// budgetSum returns the cascade's total live FPR budget.
func budgetSum(ls []*level) float64 {
	var s float64
	for _, l := range ls {
		s += l.budget
	}
	return s
}

// futureBudget sums the schedule terms a cascade with next index sched has
// not yet spent.
func futureBudget(cfg Config, sched, horizon int) float64 {
	var s float64
	for i := sched; i < horizon; i++ {
		s += levelBudget(cfg, i)
	}
	return s
}

// checkBudgetInvariant asserts live budgets plus the reclaimed pool plus
// the unspent schedule tail stay within ε (live + reclaimed must equal
// Σ_{i<sched} εᵢ exactly up to float error: merges and freezes preserve
// sums, and dropping an emptied level moves its budget to reclaimed).
func checkBudgetInvariant(t *testing.T, cfg Config, ls []*level, sched int, reclaimed float64) {
	t.Helper()
	live := budgetSum(ls) + reclaimed
	var spent float64
	for i := 0; i < sched; i++ {
		spent += levelBudget(cfg, i)
	}
	if math.Abs(live-spent) > 1e-12 {
		t.Fatalf("live+reclaimed budgets %g != schedule prefix %g (sched=%d)", live, spent, sched)
	}
	if total := live + futureBudget(cfg, sched, sched+200); total > cfg.TargetFPR*(1+1e-9) {
		t.Fatalf("total budget %g exceeds ε=%g", total, cfg.TargetFPR)
	}
}

func TestCompactMergesChurnedCascade(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := churn(t, f, 11, 30000, 6, 0.75)
	before := f.NumLevels()
	countBefore := f.Count()

	res := f.CompactNow()
	if res.LevelsMerged == 0 || res.LevelsAfter >= before {
		t.Fatalf("compaction did not shrink the cascade: %+v", res)
	}
	if f.NumLevels() != res.LevelsAfter {
		t.Fatalf("NumLevels %d != result %d", f.NumLevels(), res.LevelsAfter)
	}
	if f.Count() != countBefore {
		t.Fatalf("count changed %d -> %d", countBefore, f.Count())
	}
	for _, k := range live {
		if !f.Contains(k) {
			t.Fatalf("compaction lost key %#x", k)
		}
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())

	// Realized FPR over fresh never-inserted keys stays within the budget.
	probes := workload.NewStream(999).Keys(300000)
	fp := 0
	for _, k := range probes {
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(probes)); rate > cfg.TargetFPR {
		t.Fatalf("post-compaction FPR %g exceeds ε %g", rate, cfg.TargetFPR)
	}

	snap := f.Snapshot()
	if snap.Compactions != 1 || snap.CompactionLevelsMerged != uint64(res.LevelsMerged) {
		t.Fatalf("snapshot counters %d/%d, want 1/%d",
			snap.Compactions, snap.CompactionLevelsMerged, res.LevelsMerged)
	}
}

func TestCompactNoOpOnDenseCascade(t *testing.T) {
	// Without removes every frozen level sits at its trigger load; the
	// merged level cannot be smaller than its sources, so nothing merges.
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	for _, k := range workload.NewStream(12).Keys(20000) {
		f.Insert(k)
	}
	before := f.NumLevels()
	res := f.CompactNow()
	if res.LevelsMerged != 0 || f.NumLevels() != before {
		t.Fatalf("dense cascade compacted: %+v", res)
	}
}

func TestCompactThenGrow(t *testing.T) {
	// After a compaction, further growth must keep drawing fresh schedule
	// indices: re-spending a merged index would double-count its εᵢ.
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 13, 20000, 5, 0.8)
	schedBefore := f.sched
	if res := f.CompactNow(); res.LevelsMerged == 0 {
		t.Fatal("expected a merge")
	}
	if f.sched != schedBefore {
		t.Fatalf("compaction moved the schedule index %d -> %d", schedBefore, f.sched)
	}
	extra := workload.NewStream(14).Keys(30000)
	for _, k := range extra {
		if !f.Insert(k) {
			t.Fatal("post-compaction insert failed")
		}
	}
	if f.sched <= schedBefore {
		t.Fatal("growth after compaction did not advance the schedule")
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())
	for _, k := range live {
		if !f.Contains(k) {
			t.Fatal("lost pre-compaction key after regrowth")
		}
	}
	for _, k := range extra {
		if !f.Contains(k) {
			t.Fatal("lost post-compaction key")
		}
	}
}

func TestCompactAutoTrigger(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9,
		CompactMinLevels: 4, CompactMaxLoad: 0.5}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(15).Keys(20000)
	for _, k := range keys {
		f.Insert(k)
	}
	levels := f.NumLevels()
	if levels < cfg.CompactMinLevels {
		t.Fatalf("setup produced only %d levels", levels)
	}
	// Drain old keys; once the frozen load crosses below 0.5 a Remove must
	// trigger the compaction inline.
	for _, k := range keys[:len(keys)*3/4] {
		f.Remove(k)
	}
	if f.compactions.runs.Load() == 0 {
		t.Fatal("auto-compaction never fired")
	}
	if f.NumLevels() >= levels {
		t.Fatalf("levels did not shrink: %d -> %d", levels, f.NumLevels())
	}
	for _, k := range keys[len(keys)*3/4:] {
		if !f.Contains(k) {
			t.Fatal("auto-compaction lost a live key")
		}
	}
}

func TestCompactValidationRejectsBadPolicy(t *testing.T) {
	for _, cfg := range []Config{
		{TargetFPR: 1.0 / 256, CompactMinLevels: 2},
		{TargetFPR: 1.0 / 256, CompactMinLevels: MaxLevels + 1},
		{TargetFPR: 1.0 / 256, CompactMaxLoad: 1.5},
		{TargetFPR: 1.0 / 256, CompactMaxLoad: -0.1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestCompactSerializeRoundTrip(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 16, 20000, 5, 0.7)
	if res := f.CompactNow(); res.LevelsMerged == 0 {
		t.Fatal("expected a merge")
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.sched != f.sched || g.NumLevels() != f.NumLevels() || g.Count() != f.Count() {
		t.Fatalf("reload mismatch: sched %d/%d levels %d/%d count %d/%d",
			g.sched, f.sched, g.NumLevels(), f.NumLevels(), g.Count(), f.Count())
	}
	for i := range f.list() {
		if g.list()[i].budget != f.list()[i].budget ||
			g.list()[i].trigger != f.list()[i].trigger ||
			g.list()[i].kind() != f.list()[i].kind() {
			t.Fatalf("level %d parameters did not survive the round trip", i)
		}
	}
	for _, k := range live {
		if !g.Contains(k) {
			t.Fatal("reloaded cascade lost a key")
		}
	}
	// The reloaded cascade keeps growing on the same schedule.
	for _, k := range workload.NewStream(17).Keys(30000) {
		if !g.Insert(k) {
			t.Fatal("post-reload insert failed")
		}
	}
	checkBudgetInvariant(t, g.cfg, g.list(), g.sched, g.Reclaimed())
}

// TestReadV1Stream hand-crafts a version-1 cascade stream (no per-level
// records, zeroed schedule field) for a pure growth product and checks the
// reader reconstructs the same cascade the v1 code would have.
func TestReadV1Stream(t *testing.T) {
	cfg := testConfig()
	f, _ := New(cfg)
	keys := workload.NewStream(18).Keys(20000)
	for _, k := range keys {
		f.Insert(k)
	}

	var buf bytes.Buffer
	var hdr [elasticHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicElastic)
	binary.LittleEndian.PutUint16(hdr[4:], 1)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(len(f.list())))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(cfg.TargetFPR))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(f.cfg.GrowthFactor))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(f.cfg.TightenRatio))
	binary.LittleEndian.PutUint64(hdr[40:], math.Float64bits(f.cfg.FillThreshold))
	binary.LittleEndian.PutUint64(hdr[48:], f.cfg.InitialSlots)
	buf.Write(hdr[:])
	for _, lvl := range f.list() {
		if _, err := lvl.filter.(io.WriterTo).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}

	g, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	if g.sched != len(f.list()) {
		t.Fatalf("v1 reload sched %d, want level count %d", g.sched, len(f.list()))
	}
	if g.Count() != f.Count() {
		t.Fatalf("v1 reload count %d != %d", g.Count(), f.Count())
	}
	for i := range f.list() {
		if g.list()[i].budget != f.list()[i].budget || g.list()[i].kind() != f.list()[i].kind() {
			t.Fatalf("v1 reload level %d parameters differ", i)
		}
	}
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatal("v1 reload lost a key")
		}
	}
}

// TestReadRejectsBadLevelRecords audits the v2 per-level record validation.
func TestReadRejectsBadLevelRecords(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	churn(t, f, 19, 20000, 5, 0.7)
	f.CompactNow()
	var buf bytes.Buffer
	f.WriteTo(&buf)
	orig := buf.Bytes()

	patch := func(mutate func(data []byte)) []byte {
		data := append([]byte(nil), orig...)
		mutate(data)
		return data
	}
	rec := elasticHeaderV4Bytes // first level record offset
	for name, data := range map[string][]byte{
		"bad kind":       patch(func(d []byte) { d[rec] = 12 }),
		"huge blocks":    patch(func(d []byte) { d[rec+1] = 60 }),
		"zero budget":    patch(func(d []byte) { binary.LittleEndian.PutUint64(d[rec+8:], 0) }),
		"budget overrun": patch(func(d []byte) { binary.LittleEndian.PutUint64(d[rec+8:], math.Float64bits(0.5)) }),
		"zero trigger":   patch(func(d []byte) { binary.LittleEndian.PutUint64(d[rec+16:], 0) }),
		"sched too low":  patch(func(d []byte) { binary.LittleEndian.PutUint16(d[10:], 0) }),
		"sched too high": patch(func(d []byte) { binary.LittleEndian.PutUint16(d[10:], uint16(schedCap)+1) }),
		// The version-4 auto-trigger policy passes through Config.Validate.
		"compact min levels": patch(func(d []byte) { binary.LittleEndian.PutUint64(d[64:], 2) }),
		"compact max load":   patch(func(d []byte) { binary.LittleEndian.PutUint64(d[72:], math.Float64bits(1.5)) }),
		"negative min age":   patch(func(d []byte) { binary.LittleEndian.PutUint64(d[80:], ^uint64(0)) }),
		"NaN freeze load":    patch(func(d []byte) { binary.LittleEndian.PutUint64(d[88:], math.Float64bits(math.NaN())) }),
	} {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
