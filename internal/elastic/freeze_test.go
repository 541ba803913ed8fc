package elastic

import (
	"bytes"
	"math/rand"
	"testing"

	"vqf/internal/core"
	"vqf/internal/telemetry"
	"vqf/internal/workload"
)

// fuseLevelCount returns how many of the cascade's levels are frozen fuse
// levels.
func fuseLevelCount(ls []*level) int {
	n := 0
	for _, l := range ls {
		if l.fused() {
			n++
		}
	}
	return n
}

func TestFreezeChurnedCascade(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := churn(t, f, 21, 30000, 6, 0.75)
	before := f.NumLevels()
	countBefore := f.Count()
	sizeBefore := f.SizeBytes()

	res := f.FreezeNow()
	if res.LevelsFrozen == 0 || res.FuseLevels == 0 {
		t.Fatalf("freeze retired nothing: %+v", res)
	}
	if res.LevelsBefore != before || res.LevelsAfter != f.NumLevels() {
		t.Fatalf("result depths %+v disagree with cascade %d -> %d", res, before, f.NumLevels())
	}
	if fuseLevelCount(f.list()) != res.FuseLevels {
		t.Fatalf("cascade has %d fuse levels, result says %d", fuseLevelCount(f.list()), res.FuseLevels)
	}
	if f.Count() != countBefore {
		t.Fatalf("count changed %d -> %d", countBefore, f.Count())
	}
	if f.SizeBytes() >= sizeBefore {
		t.Fatalf("freeze did not shrink the cascade: %d -> %d bytes", sizeBefore, f.SizeBytes())
	}
	for _, k := range live {
		if !f.Contains(k) {
			t.Fatalf("freeze lost key %#x", k)
		}
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())

	// Realized FPR over fresh never-inserted keys stays within the budget.
	probes := workload.NewStream(888).Keys(300000)
	fp := 0
	for _, k := range probes {
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(probes)); rate > cfg.TargetFPR {
		t.Fatalf("post-freeze FPR %g exceeds ε %g", rate, cfg.TargetFPR)
	}

	snap := f.Snapshot()
	if snap.Freezes != 1 || snap.FreezeLevelsFrozen != uint64(res.LevelsFrozen) {
		t.Fatalf("snapshot counters %d/%d, want 1/%d",
			snap.Freezes, snap.FreezeLevelsFrozen, res.LevelsFrozen)
	}

	// A second pass has nothing left to take: fuse levels are not sources.
	if res2 := f.FreezeNow(); res2.LevelsFrozen != 0 {
		t.Fatalf("second freeze found sources: %+v", res2)
	}
}

func TestFreezeRemoveSemantics(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 22, 30000, 6, 0.75)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}

	countBefore := f.Count()
	victim := live[0]
	if !f.Remove(victim) {
		t.Fatal("remove of frozen key failed")
	}
	if f.Count() != countBefore-1 {
		t.Fatalf("count %d after one remove, want %d", f.Count(), countBefore-1)
	}
	if f.Contains(victim) {
		t.Fatal("fully removed frozen key still answers true")
	}
	// The tombstone ledger caps removes at the frozen instance count: a
	// second remove of the same key must miss, not drive Count below truth.
	if f.Remove(victim) {
		t.Fatal("second remove of a single-instance key succeeded")
	}
	if f.Count() != countBefore-1 {
		t.Fatalf("count drifted to %d after capped re-remove", f.Count())
	}
	// The vault gates ghost removes at the canonical-collision rate (the
	// geometric term of the level's FPR), not at the much larger fuse
	// false-positive rate 2^-fpBits — a bare fuse filter would accept every
	// fuse FP as removable. Probe the frozen level directly (live VQF levels
	// keep the usual fingerprint-collision caveat) and check the ledger
	// stays exact: Count drops by precisely the accepted removes.
	var fl *fuseLevel
	var geomFPR float64
	for _, l := range f.list() {
		if cand, ok := l.filter.(*fuseLevel); ok {
			fl, geomFPR = cand, l.geomFPR
			break
		}
	}
	if fl == nil {
		t.Fatal("no fuse level in cascade")
	}
	canon := geomFPR - fl.f.FPR()
	before := fl.Count()
	ghosts := workload.NewStream(777).Keys(200000)
	succ := 0
	for _, g := range ghosts {
		if fl.Remove(g) {
			succ++
		}
	}
	if fl.Count() != before-uint64(succ) {
		t.Fatalf("ledger drift: %d accepted removes moved count %d -> %d",
			succ, before, fl.Count())
	}
	if rate := float64(succ) / float64(len(ghosts)); rate > 4*canon+1e-4 {
		t.Fatalf("ghost removes accepted at %g, canonical-collision bound %g", rate, canon)
	}
}

func TestFreezeBatchParity(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 23, 30000, 6, 0.7)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	probes := append(append([]uint64(nil), live...), workload.NewStream(555).Keys(5000)...)
	got := f.ContainsBatch(probes, nil)
	for i, k := range probes {
		if got[i] != f.Contains(k) {
			t.Fatalf("batch answer %v for key %#x, single-key %v", got[i], k, !got[i])
		}
	}
}

func TestFreezeThaw(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 24, 20000, 5, 0.6)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	// Remove well past the ¼ tombstone threshold of every frozen level; the
	// sequential filter thaws inline on the triggering remove.
	cut := len(live) / 2
	for _, k := range live[:cut] {
		if !f.Remove(k) {
			t.Fatalf("remove of live key %#x failed", k)
		}
	}
	if f.thaws.levels.Load() == 0 {
		t.Fatal("tombstone pressure never thawed a level")
	}
	for _, l := range f.list() {
		if fl, ok := l.filter.(*fuseLevel); ok && fl.needsThaw() {
			t.Fatal("a fuse level is still past the thaw threshold")
		}
	}
	for _, k := range live[cut:] {
		if !f.Contains(k) {
			t.Fatalf("thaw lost live key %#x", k)
		}
	}
	// Removed keys may surface as ordinary false positives, but no more
	// than that: a thaw bug that forgot tombstones would answer true for
	// (nearly) all of them.
	fp := 0
	for _, k := range live[:cut] {
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(cut); rate > 4*cfg.TargetFPR {
		t.Fatalf("removed keys answer true at %g after thaw", rate)
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())
}

// TestThawEvents: a thaw records a start and a finish event in the
// cascade's ring, like a freeze or a compaction, with the pass's level
// counts in their arguments.
func TestThawEvents(t *testing.T) {
	f, _ := New(Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9})
	ring := telemetry.NewRing(telemetry.DefaultRingSize)
	f.SetEventRing(ring)
	live := churn(t, f, 24, 20000, 5, 0.6)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	for _, k := range live[:len(live)/2] {
		f.Remove(k)
	}
	thawed := f.thaws.levels.Load()
	if thawed == 0 {
		t.Fatal("tombstone pressure never thawed a level")
	}
	var starts, finishes []telemetry.Event
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case "thaw-start":
			starts = append(starts, ev)
		case "thaw-finish":
			finishes = append(finishes, ev)
		}
	}
	if len(starts) == 0 || len(starts) != len(finishes) || uint64(len(finishes)) != f.thaws.runs.Load() {
		t.Fatalf("%d thaw-start and %d thaw-finish events for %d thaw passes",
			len(starts), len(finishes), f.thaws.runs.Load())
	}
	var levels uint64
	for i, fin := range finishes {
		if st := starts[i]; st.Seq >= fin.Seq || st.A == 0 || st.B == 0 {
			t.Fatalf("thaw-start %+v does not open thaw-finish %+v", st, fin)
		}
		if fin.A == 0 || fin.B == 0 || fin.C == 0 {
			t.Fatalf("thaw-finish %+v: want levels thawed, levels after and a duration", fin)
		}
		levels += fin.A
	}
	if levels != thawed {
		t.Fatalf("thaw-finish events count %d levels, the cascade %d", levels, thawed)
	}
}

// TestFreezeDegenerateCascades drives FreezeNow and CompactNow over the
// cascade shapes where there is nothing (or nothing sane) to do: both must
// be explicit no-ops — no panic, no level allocation — and an all-empty
// frozen run must drop into the reclaimed pool rather than build an empty
// fuse level.
func TestFreezeDegenerateCascades(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	t.Run("empty cascade", func(t *testing.T) {
		f, _ := New(cfg)
		if res := f.FreezeNow(); res.LevelsFrozen != 0 || res.LevelsBefore != 1 || res.LevelsAfter != 1 {
			t.Fatalf("freeze on empty cascade: %+v", res)
		}
		if res := f.CompactNow(); res.LevelsMerged != 0 {
			t.Fatalf("compact on empty cascade: %+v", res)
		}
		if f.NumLevels() != 1 || f.Count() != 0 {
			t.Fatalf("empty cascade mutated: %d levels, %d items", f.NumLevels(), f.Count())
		}
	})
	t.Run("single populated level", func(t *testing.T) {
		f, _ := New(cfg)
		for _, k := range workload.NewStream(25).Keys(100) {
			f.Insert(k)
		}
		if res := f.FreezeNow(); res.LevelsFrozen != 0 {
			t.Fatalf("froze the newest level: %+v", res)
		}
		if fuseLevelCount(f.list()) != 0 {
			t.Fatal("fuse level appeared in a single-level cascade")
		}
	})
	t.Run("all-empty frozen run", func(t *testing.T) {
		f, _ := New(cfg)
		keys := workload.NewStream(26).Keys(20000)
		for _, k := range keys {
			f.Insert(k)
		}
		if f.NumLevels() < 4 {
			t.Fatalf("setup produced %d levels", f.NumLevels())
		}
		for _, k := range keys {
			if !f.Remove(k) {
				t.Fatal("remove failed")
			}
		}
		depth := f.NumLevels()
		res := f.FreezeNow()
		if res.LevelsFrozen == 0 || res.FuseLevels != 0 {
			t.Fatalf("empty run should drop, not fuse: %+v", res)
		}
		if f.NumLevels() >= depth {
			t.Fatalf("dropping empties did not shrink: %d -> %d", depth, f.NumLevels())
		}
		if f.Reclaimed() == 0 {
			t.Fatal("dropped budgets were not reclaimed")
		}
		checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())
	})
}

func TestFreezeSerializeRoundTrip(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 27, 30000, 6, 0.7)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	// Tombstone some frozen keys (below the thaw threshold) so the ledger
	// rides along in the stream.
	cut := len(live) / 10
	for _, k := range live[:cut] {
		if !f.Remove(k) {
			t.Fatal("remove failed")
		}
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
	if g.Reclaimed() != f.Reclaimed() {
		t.Fatalf("reclaimed pool %g did not survive the round trip (want %g)", g.Reclaimed(), f.Reclaimed())
	}
	for i := range f.list() {
		if g.list()[i].budget != f.list()[i].budget || g.list()[i].kind() != f.list()[i].kind() {
			t.Fatalf("level %d parameters did not survive the round trip", i)
		}
	}
	for _, k := range live[cut:] {
		if !g.Contains(k) {
			t.Fatal("reloaded frozen cascade lost a key")
		}
	}
	// Removed keys may still be false positives (that is what ε buys), but
	// the reload must answer exactly as the original does.
	for _, k := range live[:cut] {
		if g.Contains(k) != f.Contains(k) {
			t.Fatalf("reload answer for removed key %#x diverged from original", k)
		}
	}
	// The reloaded ledger keeps enforcing exact removes and thaw pressure.
	if g.Remove(live[0]) {
		t.Fatal("reloaded ledger allowed re-removing a tombstoned key")
	}
	for _, k := range live[cut : len(live)/2] {
		if !g.Remove(k) {
			t.Fatal("remove on reloaded cascade failed")
		}
	}
	checkBudgetInvariant(t, g.cfg, g.list(), g.sched, g.Reclaimed())
}

func TestFreezeAutoTrigger(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9,
		AutoFreeze: true, FreezeMaxLoad: 1}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(28).Keys(20000)
	for _, k := range keys {
		f.Insert(k)
	}
	if f.freezes.runs.Load() == 0 {
		t.Fatal("auto-freeze never fired across growths")
	}
	if fuseLevelCount(f.list()) == 0 {
		t.Fatal("no fuse level in an auto-freezing cascade")
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatal("auto-freeze lost a key")
		}
	}
	checkBudgetInvariant(t, f.cfg, f.list(), f.sched, f.Reclaimed())
}

func TestFreezeValidationRejectsBadPolicy(t *testing.T) {
	for _, cfg := range []Config{
		{TargetFPR: 1.0 / 256, FreezeMinAge: -1},
		{TargetFPR: 1.0 / 256, FreezeMaxLoad: 1.5},
		{TargetFPR: 1.0 / 256, FreezeMaxLoad: -0.1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestBudgetInvariantUnderInterleavings is a property test of the budget
// identity: across a seeded random interleaving of growth (insert bursts),
// remove churn, CompactNow, FreezeNow, thaws (the removes trip them) and
// shrinks (a drain to the newest level's keys, a FreezeNow that drops the
// emptied levels, then CompactNow on the sole level), on both cascades, the
// ledger balances after every step — Σ live level budgets + reclaimed
// equals the spent schedule prefix exactly, and adding the unspent tail
// never exceeds ε — and no live key is lost.
func TestBudgetInvariantUnderInterleavings(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	for _, kind := range []string{"sequential", "concurrent"} {
		t.Run(kind, func(t *testing.T) {
			var shrinks, thaws, merges, freezes uint64
			for _, seed := range []int64{1, 2, 3} {
				f, st, quiesce := newCascade(t, kind, cfg)
				compact := func() { // CompactNow, counting the shrinks
					sole, runs := len(st.list()) == 1, st.compactions.runs.Load()
					f.CompactNow()
					if sole && st.compactions.runs.Load() > runs {
						shrinks++
					}
				}
				rng := rand.New(rand.NewSource(seed))
				stream := workload.NewStream(uint64(29 + seed))
				var liveKeys []uint64
				steps := 60
				if testing.Short() {
					steps = 20
				}
				for step := 0; step < steps; step++ {
					switch rng.Intn(5) {
					case 0: // grow
						batch := stream.Keys(500 + rng.Intn(3000))
						for _, k := range batch {
							if !f.Insert(k) {
								t.Fatal("insert failed")
							}
						}
						liveKeys = append(liveKeys, batch...)
					case 1: // churn (may trip thaw on frozen levels)
						n := len(liveKeys) / 3
						for _, k := range liveKeys[:n] {
							if !f.Remove(k) {
								t.Fatalf("remove of live key %#x failed", k)
							}
						}
						liveKeys = liveKeys[n:]
					case 2:
						compact()
					case 3:
						f.FreezeNow()
					case 4: // drain to the newest keys, drop the emptied levels, shrink
						n := len(liveKeys) - min(len(liveKeys), 100+rng.Intn(400))
						for _, k := range liveKeys[:n] {
							if !f.Remove(k) {
								t.Fatalf("remove of live key %#x failed", k)
							}
						}
						liveKeys = liveKeys[n:]
						quiesce()
						f.FreezeNow()
						compact()
					}
					quiesce()
					st.growMu.Lock()
					checkBudgetInvariant(t, st.cfg, st.list(), st.sched, st.Reclaimed())
					st.growMu.Unlock()
					if st.Count() != uint64(len(liveKeys)) {
						t.Fatalf("seed %d step %d: count %d, want %d live", seed, step, st.Count(), len(liveKeys))
					}
				}
				for _, k := range liveKeys {
					if !st.Contains(k) {
						t.Fatalf("seed %d: lost live key %#x", seed, k)
					}
				}
				thaws += st.thaws.levels.Load()
				merges += st.compactions.runs.Load()
				freezes += st.freezes.runs.Load()
			}
			t.Logf("%d shrinks, %d compactions, %d freezes, %d thaws", shrinks, merges, freezes, thaws)
			if shrinks == 0 || thaws == 0 || freezes == 0 || merges <= shrinks {
				t.Fatal("the interleavings missed a structural op; the property is vacuous for it")
			}
		})
	}
}

// BenchmarkNewFuseLevel times a freeze's build step — pack, sort and
// deduplicate the folded keys, peel the fuse filter, build the vault — over
// 2^16 folded keys of 16-bit geometry at 4096 fold blocks.
func BenchmarkNewFuseLevel(b *testing.B) {
	const foldBlocks = 4096
	s := workload.NewStream(11)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = core.Geom16.Fold(s.Next(), foldBlocks-1)
	}
	scratch := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, keys)
		if _, err := newFuseLevel(core.Geom16, 16, foldBlocks, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
