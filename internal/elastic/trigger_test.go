package elastic

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vqf/internal/workload"
)

// opKind is the kind of one churn step.
type opKind uint8

const (
	opInsert opKind = iota
	opRemove
	opCompactNow
	opFreezeNow
)

// churnOp is one step of a churn: insert or remove key, or an explicit
// structural op.
type churnOp struct {
	kind opKind
	key  uint64
}

// cascade is the operation surface the churn drives.
type cascade interface {
	Insert(uint64) bool
	Remove(uint64) bool
	NumLevels() int
	CompactNow() CompactionResult
	FreezeNow() FreezeResult
}

// newCascade builds the sequential or the concurrent cascade (kind names
// which) with its shared state, and a function that returns once no
// background structural op is running.
func newCascade(t *testing.T, kind string, cfg Config) (cascade, *cascadeState, func()) {
	t.Helper()
	if kind == "sequential" {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f, &f.cascadeState, func() {}
	}
	f, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, &f.cascadeState, func() {
		for f.busy.Load() {
			runtime.Gosched()
		}
	}
}

// apply runs op against f and reports whether an insert or remove
// succeeded (explicit structural ops always report true).
func apply(f cascade, op churnOp) bool {
	switch op.kind {
	case opInsert:
		return f.Insert(op.key)
	case opRemove:
		return f.Remove(op.key)
	case opCompactNow:
		f.CompactNow()
	case opFreezeNow:
		f.FreezeNow()
	}
	return true
}

// slidingOps returns the ops of an LSM-style sliding-window churn over n
// inserted keys: a window of w live keys, with every 16th key living 4w.
// Removes therefore land mostly in superseded levels, the workload the
// quiet countdown exists for.
func slidingOps(seed uint64, n, w int) []churnOp {
	keys := workload.NewStream(seed).Keys(n)
	ops := make([]churnOp, 0, 2*n)
	for i, k := range keys {
		ops = append(ops, churnOp{opInsert, k})
		if j := i - w; j >= 0 && j%16 != 0 {
			ops = append(ops, churnOp{opRemove, keys[j]})
		}
		if j := i - 4*w; j >= 0 && j%16 == 0 {
			ops = append(ops, churnOp{opRemove, keys[j]})
		}
	}
	return ops
}

// drainOps returns the ops of a grow-then-drain churn: n inserts, then
// removes of every key in insertion order, so removes sweep the frozen
// levels oldest first with no growth between the planners' evaluations.
func drainOps(seed uint64, n int) []churnOp {
	keys := workload.NewStream(seed).Keys(n)
	ops := make([]churnOp, 0, 2*n)
	for _, k := range keys {
		ops = append(ops, churnOp{opInsert, k})
	}
	for _, k := range keys {
		ops = append(ops, churnOp{opRemove, k})
	}
	return ops
}

// withExplicit interleaves an explicit CompactNow or FreezeNow (in turn)
// every period ops: structural ops the countdown did not schedule, which
// must rearm it all the same.
func withExplicit(ops []churnOp, period int) []churnOp {
	out := make([]churnOp, 0, len(ops)+len(ops)/period)
	for i, op := range ops {
		out = append(out, op)
		if i%period == period-1 {
			kind := opCompactNow
			if (i/period)%2 == 1 {
				kind = opFreezeNow
			}
			out = append(out, churnOp{kind: kind})
		}
	}
	return out
}

// triggerWorkloads are the op sequences the countdown tests replay.
func triggerWorkloads() map[string][]churnOp {
	const w = 1 << 12
	sliding := slidingOps(71, 6*w, w)
	return map[string][]churnOp{
		"sliding":  sliding,
		"drain":    drainOps(76, 4*w),
		"explicit": withExplicit(sliding, 3001),
	}
}

// triggerPolicies are the auto-trigger configurations the countdown tests
// cover. "churn" is the repository benchmark's cascade-churn policy.
func triggerPolicies() map[string]Config {
	return map[string]Config{
		"churn": {TargetFPR: FPR8Full, InitialSlots: 1 << 9,
			CompactMinLevels: 4, AutoFreeze: true, FreezeMaxLoad: 0.1},
		"compact": {TargetFPR: 1.0 / 256, InitialSlots: 1 << 9,
			CompactMinLevels: 3, CompactMaxLoad: 0.6},
		"freeze-any": {TargetFPR: 1e-3, InitialSlots: 1 << 9, AutoFreeze: true},
		"freeze-compact": {TargetFPR: 1.0 / 256, InitialSlots: 1 << 9,
			CompactMinLevels: 3, AutoFreeze: true, FreezeMaxLoad: 0.5},
		"min-age": {TargetFPR: 1.0 / 256, InitialSlots: 1 << 9,
			CompactMinLevels: 4, AutoFreeze: true, FreezeMinAge: time.Millisecond, FreezeMaxLoad: 0.5},
	}
}

// dueNow is a dry run of the three planners: the name of the first one
// that would act on ls, or "".
func dueNow(cfg Config, ls []*level) string {
	switch {
	case thawDue(ls):
		return "thaw"
	case compactDue(cfg, ls):
		return "compact"
	case freezeDue(cfg, ls):
		return "freeze"
	}
	return ""
}

// checkQuiet fails when a positive countdown coexists with a due planner
// (the countdown would fire late), or when the countdown exceeds the bound
// recomputed from the current levels: removes since the last rearm lower
// every term of the bound by at most one each, so a countdown above it has
// lost a decrement or missed a rearm.
func checkQuiet(t *testing.T, what string, cfg Config, ls []*level, quiet int64) {
	t.Helper()
	if quiet <= 0 {
		return
	}
	if due := dueNow(cfg, ls); due != "" {
		t.Fatalf("%s: countdown %d but %s is due (levels %d)", what, quiet, due, len(ls))
	}
	if d := quietRemoves(cfg, ls, time.Now().UnixNano()); quiet > d {
		t.Fatalf("%s: countdown %d above the current bound %d", what, quiet, d)
	}
}

func TestQuietCountdownNeverLate(t *testing.T) {
	for wname, ops := range triggerWorkloads() {
		for name, cfg := range triggerPolicies() {
			t.Run(wname+"/"+name+"/sequential", func(t *testing.T) {
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					if !apply(f, op) {
						t.Fatalf("op %d (%d) failed", i, op.kind)
					}
					checkQuiet(t, fmt.Sprintf("op %d", i), f.cfg, f.list(), f.quiet)
				}
			})
			t.Run(wname+"/"+name+"/concurrent", func(t *testing.T) {
				f, err := NewConcurrent(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					if !apply(f, op) {
						t.Fatalf("op %d (%d) failed", i, op.kind)
					}
					// Level-list changes and their rearm happen together
					// under growMu, so holding it gives a consistent view.
					f.growMu.Lock()
					checkQuiet(t, fmt.Sprintf("op %d", i), f.cfg, *f.levels.Load(), f.quiet.Load())
					f.growMu.Unlock()
				}
			})
		}
	}
}

// structure summarizes a cascade for trace comparison: every level's kind,
// count and capacity, plus the lifetime structural-op totals.
func structure(f *cascadeState) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "c%d f%d t%d |", f.compactions.runs.Load(), f.freezes.runs.Load(), f.thaws.levels.Load())
	for _, l := range f.list() {
		fmt.Fprintf(&b, " %d/%d/%d", l.kind(), l.filter.Count(), l.filter.Capacity())
	}
	return b.String()
}

// pollStep applies op to f the way the cascade did before the countdown:
// every remove that hits a frozen level, or the sole level (which may
// shrink), runs all three planners. f's own countdown is held off so that
// only the polling evaluates.
func pollStep(f *Filter, op churnOp) bool {
	f.quiet = never
	if op.kind != opRemove {
		return apply(f, op)
	}
	ls := f.list()
	newest := ls[len(ls)-1]
	before := newest.filter.Count()
	if !f.Remove(op.key) {
		return false
	}
	if len(ls) == 1 || newest.filter.Count() == before { // a sole or frozen level got sparser
		f.maybeThaw()
		f.maybeCompact()
		f.maybeFreeze()
	}
	return true
}

// TestQuietCountdownMatchesPolling runs twin cascades through the same
// churn, one on the countdown and one polling the planners after every
// frozen-level remove, and requires identical structure after every op:
// the countdown may skip evaluations but never moves a structural op.
func TestQuietCountdownMatchesPolling(t *testing.T) {
	workloads := triggerWorkloads()
	workloads["sliding-2k"] = slidingOps(73, 6<<11, 1<<11)
	shrinks := 0
	for wname, ops := range workloads {
		for name, cfg := range triggerPolicies() {
			if cfg.FreezeMinAge > 0 {
				continue // time-gated: twins cannot see the same clock
			}
			t.Run(wname+"/"+name, func(t *testing.T) {
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := New(cfg)
				for i, op := range ops {
					sole, runs := len(a.list()) == 1, a.compactions.runs.Load()
					okA, okB := apply(a, op), pollStep(b, op)
					if okA != okB {
						t.Fatalf("op %d: results differ: countdown %v, polling %v", i, okA, okB)
					}
					if sole && a.compactions.runs.Load() > runs {
						shrinks++
					}
					if sa, sb := structure(&a.cascadeState), structure(&b.cascadeState); sa != sb {
						t.Fatalf("op %d: structure differs\ncountdown: %s\npolling:   %s", i, sa, sb)
					}
				}
				if a.compactions.runs.Load()+a.freezes.runs.Load()+a.thaws.levels.Load() == 0 {
					t.Fatal("churn ran no structural op; the comparison is vacuous")
				}
			})
		}
	}
	if shrinks == 0 {
		t.Fatal("no churn shrank a sole level; the comparison never covers the shrink")
	}
}

// TestSequentialConcurrentEquivalence drives one goroutine's churn through
// twin sequential and concurrent cascades and requires the same structure
// after every op, once the concurrent cascade's background structural ops
// have finished: the two share one engine, and at quiescence they must
// also share its schedule.
func TestSequentialConcurrentEquivalence(t *testing.T) {
	const w = 1 << 11
	sliding := slidingOps(75, 6*w, w)
	workloads := map[string][]churnOp{"sliding": sliding, "explicit": withExplicit(sliding, 2003)}
	for wname, ops := range workloads {
		for name, cfg := range triggerPolicies() {
			if cfg.FreezeMinAge > 0 {
				continue // time-gated: twins cannot see the same clock
			}
			t.Run(wname+"/"+name, func(t *testing.T) {
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewConcurrent(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					okA, okB := apply(a, op), apply(b, op)
					for b.busy.Load() {
						runtime.Gosched()
					}
					if okA != okB {
						t.Fatalf("op %d: results differ: sequential %v, concurrent %v", i, okA, okB)
					}
					if sa, sb := structure(&a.cascadeState), structure(&b.cascadeState); sa != sb {
						t.Fatalf("op %d: structure differs\nsequential: %s\nconcurrent: %s", i, sa, sb)
					}
				}
				if a.compactions.runs.Load()+a.freezes.runs.Load()+a.thaws.levels.Load() == 0 {
					t.Fatal("churn ran no structural op; the comparison is vacuous")
				}
			})
		}
	}
}

// TestQuietCountdownRareEvaluations bounds how often a frozen-level remove
// still runs the planners on the sliding-window churn.
func TestQuietCountdownRareEvaluations(t *testing.T) {
	const w = 1 << 14
	cfg := triggerPolicies()["churn"]
	cfg.InitialSlots = 1 << 12
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frozenRemoves, evaluations int
	for _, op := range slidingOps(74, 6*w, w) {
		if op.kind == opInsert {
			f.Insert(op.key)
			continue
		}
		newest := f.list()[len(f.list())-1]
		before, q := newest.filter.Count(), f.quiet
		if !f.Remove(op.key) {
			t.Fatal("remove of live key failed")
		}
		if newest.filter.Count() == before {
			frozenRemoves++
			if q <= 1 {
				evaluations++
			}
		}
	}
	t.Logf("%d of %d frozen-level removes ran the planners (%d compactions, %d freezes, %d thaws)",
		evaluations, frozenRemoves, f.compactions.runs.Load(), f.freezes.runs.Load(), f.thaws.levels.Load())
	if frozenRemoves < 10000 {
		t.Fatalf("only %d frozen-level removes; the churn does not exercise the countdown", frozenRemoves)
	}
	if evaluations*100 > frozenRemoves {
		t.Fatalf("%d of %d frozen-level removes ran the planners, want at most 1 in 100", evaluations, frozenRemoves)
	}
}

// TestQuietCountdownRacingRemoves churns a concurrent cascade from several
// goroutines at once, then checks at each quiescent point that a positive
// countdown leaves nothing due: a rearm racing removes may fire early but
// must never lose a decrement.
func TestQuietCountdownRacingRemoves(t *testing.T) {
	const workers, w, rounds = 4, 1 << 10, 6
	cfg := triggerPolicies()["freeze-compact"]
	f, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]churnOp, workers)
	for i := range streams {
		streams[i] = slidingOps(80+uint64(i), 6*w, w)
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, ops := range streams {
			part := ops[r*len(ops)/rounds : (r+1)*len(ops)/rounds]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range part {
					if !apply(f, op) {
						t.Errorf("op (%d) failed", op.kind)
						return
					}
				}
			}()
		}
		wg.Wait()
		for f.busy.Load() {
			runtime.Gosched()
		}
		f.growMu.Lock()
		checkQuiet(t, fmt.Sprintf("round %d", r), f.cfg, *f.levels.Load(), f.quiet.Load())
		f.growMu.Unlock()
	}
}

// TestQuietCountdownAfterRead reloads a churned cascade whose fuse levels
// carry tombstones close to the thaw threshold. The auto-trigger policy is
// serialized but the countdown is not; a reloaded cascade starts with it
// expired, so it must thaw, freeze and compact at exactly the ops the
// original does.
func TestQuietCountdownAfterRead(t *testing.T) {
	cfg := triggerPolicies()["churn"]
	ops := triggerWorkloads()["sliding"]
	// nearThaw reports whether some fuse level has tombstones but is within
	// 64 removes of thawing.
	nearThaw := func(f *Filter) bool {
		for _, l := range f.list() {
			if fl, ok := l.filter.(*fuseLevel); ok && fl.tombTotal.Load() > 0 && !fl.needsThaw() &&
				removesUntil(fl.Count(), func(live uint64) bool { return fl.thawDueAt(fl.baseTotal - live) }) <= 64 {
				return true
			}
		}
		return false
	}
	// Cut the churn at the last op that leaves a fuse level near its thaw
	// threshold and still has a compaction ahead of it.
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut, lastNear := -1, -1
	for i, op := range ops {
		c := a.compactions.runs.Load()
		apply(a, op)
		if a.compactions.runs.Load() != c && lastNear >= 0 {
			cut = lastNear
		}
		if nearThaw(a) {
			lastNear = i + 1
		}
	}
	if cut < 0 {
		t.Fatal("churn never left a fuse level near its thaw threshold ahead of a compaction")
	}
	a, _ = New(cfg)
	for _, op := range ops[:cut] {
		apply(a, op)
	}

	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.quiet != 0 {
		t.Fatalf("reloaded countdown %d, want expired", b.quiet)
	}
	// The stream carries the auto-trigger policy; the lifetime totals are
	// not serialized, so align them for comparison.
	if b.cfg != a.cfg {
		t.Fatalf("reloaded config %+v, want %+v", b.cfg, a.cfg)
	}
	b.compactions.runs.Store(a.compactions.runs.Load())
	b.freezes.runs.Store(a.freezes.runs.Load())
	b.thaws.levels.Store(a.thaws.levels.Load())
	if sa, sb := structure(&a.cascadeState), structure(&b.cascadeState); sa != sb {
		t.Fatalf("reload differs\noriginal: %s\nreloaded: %s", sa, sb)
	}

	thaws, compactions := a.thaws.levels.Load(), a.compactions.runs.Load()
	for i, op := range ops[cut:] {
		okA, okB := apply(a, op), apply(b, op)
		if okA != okB {
			t.Fatalf("op %d after reload: results differ: original %v, reloaded %v", i, okA, okB)
		}
		if sa, sb := structure(&a.cascadeState), structure(&b.cascadeState); sa != sb {
			t.Fatalf("op %d after reload: structure differs\noriginal: %s\nreloaded: %s", i, sa, sb)
		}
	}
	if a.thaws.levels.Load() == thaws || a.compactions.runs.Load() == compactions {
		t.Fatalf("after reload the churn ran %d thaws and %d compactions; want both",
			a.thaws.levels.Load()-thaws, a.compactions.runs.Load()-compactions)
	}
}

// TestQuietCountdownRemovesUntil pins the distance search on predicates
// with known thresholds, including the already-due and never-due cases.
func TestQuietCountdownRemovesUntil(t *testing.T) {
	atMost := func(m uint64) func(uint64) bool { return func(x uint64) bool { return x <= m } }
	for _, c := range []struct {
		live uint64
		due  func(uint64) bool
		want int64
	}{
		{100, atMost(100), 0},
		{100, atMost(250), 0},
		{100, atMost(99), 1},
		{100, atMost(37), 63},
		{100, atMost(0), 100},
		{1, atMost(0), 1},
		{0, atMost(0), 0},
		{1 << 40, atMost(1<<40 - 12345), 12345},
		{100, func(uint64) bool { return false }, never},
	} {
		if got := removesUntil(c.live, c.due); got != c.want {
			t.Errorf("removesUntil(%d) = %d, want %d", c.live, got, c.want)
		}
	}
}
