package elastic

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"time"

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

// soleLevel grows f past several levels with the keys of stream seed,
// removes every key a frozen level holds and drops the emptied levels,
// leaving one level sized for the whole growth. It returns the keys that
// level still holds.
func soleLevel(t *testing.T, f cascade, seed uint64, total int) []uint64 {
	t.Helper()
	keys := workload.NewStream(seed).Keys(total)
	last := 0 // first key of the newest level
	for i, k := range keys {
		n := f.NumLevels()
		if !f.Insert(k) {
			t.Fatal("insert failed")
		}
		if f.NumLevels() > n {
			last = i
		}
	}
	if f.NumLevels() < 4 {
		t.Fatalf("growth produced %d levels, want ≥ 4 (raise total)", f.NumLevels())
	}
	for _, k := range keys[:last] {
		if !f.Remove(k) {
			t.Fatal("remove of inserted key failed")
		}
	}
	f.FreezeNow() // drops every all-empty frozen run
	if f.NumLevels() != 1 {
		t.Fatalf("%d levels after dropping the emptied ones, want 1", f.NumLevels())
	}
	return keys[last:]
}

// checkShrunk checks a sole level that a shrink just rebuilt from src: same
// geometry and budget, at most half the blocks, no more than FillThreshold
// load, a trigger that admits the live set within the level's budget, and
// every live key still present.
func checkShrunk(t *testing.T, f *cascadeState, src *level, live []uint64) {
	t.Helper()
	ls := f.list()
	if len(ls) != 1 || ls[0] == src {
		t.Fatalf("want one rebuilt level, have %d levels (rebuilt %v)", len(ls), len(ls) == 1 && ls[0] != src)
	}
	l := ls[0]
	if l.geom != src.geom || l.budget != src.budget {
		t.Fatalf("shrink changed geometry %d→%d or budget %g→%g", src.geom.FPBits, l.geom.FPBits, src.budget, l.budget)
	}
	if 2*l.filter.NumBlocks() > src.filter.NumBlocks() {
		t.Fatalf("shrink kept %d of %d blocks, want at most half", l.filter.NumBlocks(), src.filter.NumBlocks())
	}
	count, slots := l.filter.Count(), float64(l.filter.Capacity())
	if count != uint64(len(live)) || float64(count) > f.cfg.FillThreshold*slots {
		t.Fatalf("shrunk level holds %d of %d slots, want %d at most FillThreshold load", count, l.filter.Capacity(), len(live))
	}
	if l.trigger < count || float64(l.trigger)*l.geomFPR > l.budget*slots {
		t.Fatalf("trigger %d: below the live count %d or past the budget", l.trigger, count)
	}
	for _, k := range live {
		if !l.filter.Contains(k) {
			t.Fatalf("shrink lost key %#x", k)
		}
	}
}

func TestShrinkSoleLevel(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	if res := f.CompactNow(); res.LevelsMerged != 0 {
		t.Fatalf("fresh cascade shrank below its first level: %+v", res)
	}
	live := soleLevel(t, f, 15, 20000)
	src, sched, reclaimed := f.list()[0], f.sched, f.Reclaimed()
	res := f.CompactNow()
	if res.LevelsMerged != 1 || res.LevelsAfter != 1 {
		t.Fatalf("CompactNow on an under-loaded sole level: %+v", res)
	}
	checkShrunk(t, &f.cascadeState, src, live)
	if f.sched != sched || f.Reclaimed() != reclaimed {
		t.Fatalf("shrink moved the schedule %d→%d or the reclaimed pool %g→%g", sched, f.sched, reclaimed, f.Reclaimed())
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())
	if res := f.CompactNow(); res.LevelsMerged != 0 {
		t.Fatalf("a just-shrunk level shrank again: %+v", res)
	}
	// The shrunk level takes inserts up to its trigger, then grows.
	extra := workload.NewStream(16).Keys(20000)
	for _, k := range extra {
		if !f.Insert(k) {
			t.Fatal("insert after shrink failed")
		}
	}
	if f.NumLevels() < 2 {
		t.Fatal("the shrunk level never grew")
	}
	for _, k := range append(live, extra...) {
		if !f.Contains(k) {
			t.Fatalf("lost key %#x after regrowth", k)
		}
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())
}

// TestShrinkAutoOnRemoves drains a sole level through removes alone: under
// auto compaction the shrink fires at the first remove that makes it due,
// with no growth or explicit call to evaluate the planners.
func TestShrinkAutoOnRemoves(t *testing.T) {
	for _, kind := range []string{"sequential", "concurrent"} {
		t.Run(kind, func(t *testing.T) {
			cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9, CompactMinLevels: 4, CompactMaxLoad: 0.01}
			f, st, wait := newCascade(t, kind, cfg)
			live := soleLevel(t, f, 17, 20000)
			shrinks := 0
			for len(live) > 0 {
				src, runs := st.list()[0], st.compactions.runs.Load()
				if !f.Remove(live[0]) {
					t.Fatal("remove of live key failed")
				}
				live = live[1:]
				wait()
				if st.compactions.runs.Load() != runs {
					shrinks++
					checkShrunk(t, st, src, live)
				} else if compactDue(cfg, st.list()) {
					t.Fatalf("%d live: shrink due but not run", len(live))
				}
			}
			if shrinks < 2 {
				t.Fatalf("draining ran %d shrinks, want ≥ 2", shrinks)
			}
			if n := st.list()[0].filter.NumBlocks(); n != st.list()[0].geom.Blocks(cfg.InitialSlots) {
				t.Fatalf("drained level has %d blocks, want the first level's %d", n, st.list()[0].geom.Blocks(cfg.InitialSlots))
			}
		})
	}
}

// TestShrinkRebuildFailure makes a shrink's rebuild fail: two keys that
// share their tag and, in every level of at most half the sole level's
// blocks, their block pair are each inserted 5/4 of a block's slots times,
// more than any smaller level's pair can hold. The failed shrink must leave
// the level in place and taking inserts (a level left sealed hangs
// CFilter.Insert), must not be due again at once (or every remove would
// retry the rebuild), and must run once the live set has halved.
func TestShrinkRebuildFailure(t *testing.T) {
	for _, kind := range []string{"sequential", "concurrent"} {
		t.Run(kind, func(t *testing.T) {
			// The cascade runs without auto compaction (the test runs the
			// shrink itself); auto is the same config with it on.
			f, st, _ := newCascade(t, kind, Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9})
			auto := st.cfg
			auto.CompactMinLevels = 4
			live := soleLevel(t, f, 19, 20000)
			keep := len(live) / 16
			for _, k := range live[keep:] {
				if !f.Remove(k) {
					t.Fatal("remove of live key failed")
				}
			}
			live = live[:keep]
			l := st.list()[0]
			h0 := uint64(0)
			for _, k := range workload.NewStream(20).Keys(64) {
				if p1, p2 := l.filter.CandidateBlocks(k); p1 != p2 {
					h0 = k
					break
				}
			}
			h1 := h0 ^ l.filter.NumBlocks()/2<<l.geom.BlockShift
			dups := 5 * int(l.geom.Slots) / 4
			for i := 0; i < dups; i++ {
				if !f.Insert(h0) || !f.Insert(h1) {
					t.Fatal("duplicate insert failed")
				}
			}
			failedAt := l.filter.Count()
			if shrinkBlocks(auto, l, failedAt) == 0 {
				t.Fatalf("%d live in %d blocks: no shrink due", failedAt, l.filter.NumBlocks())
			}
			if res := f.CompactNow(); res.LevelsMerged != 0 || st.list()[0] != l {
				t.Fatalf("a shrink that cannot fit its duplicates replaced the level: %+v", res)
			}
			if l.sealed.Load() {
				t.Fatal("the failed shrink left the level sealed")
			}
			if compactDue(auto, st.list()) || quietRemoves(auto, st.list(), time.Now().UnixNano()) == 0 {
				t.Fatal("the failed shrink is due again at once")
			}
			extra := workload.NewStream(21).Keys(64)
			inserted := make(chan bool, 1)
			go func() {
				for _, k := range extra {
					if !f.Insert(k) {
						inserted <- false
						return
					}
				}
				inserted <- true
			}()
			select {
			case ok := <-inserted:
				if !ok {
					t.Fatal("insert after the failed shrink failed")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("insert after the failed shrink did not return")
			}
			for i := 0; i < dups; i++ {
				if !f.Remove(h0) || !f.Remove(h1) {
					t.Fatal("duplicate remove failed")
				}
			}
			live = append(live, extra...)
			if half := int(failedAt / 2); len(live) > half {
				for _, k := range live[half:] {
					if !f.Remove(k) {
						t.Fatal("remove of live key failed")
					}
				}
				live = live[:half]
			}
			if res := f.CompactNow(); res.LevelsMerged != 1 {
				t.Fatalf("no shrink once the live set halved: %+v", res)
			}
			checkShrunk(t, st, l, live)
		})
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
