package elastic

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"vqf/internal/core"
	"vqf/internal/workload"
)

func testConfig() Config {
	return Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 10}
}

func TestGrowthAddsLevels(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumLevels() != 1 {
		t.Fatalf("fresh cascade has %d levels", f.NumLevels())
	}
	src := workload.NewStream(1)
	keys := src.Keys(40000) // ≈ 39× the initial item budget → several growths
	for _, k := range keys {
		if !f.Insert(k) {
			t.Fatal("elastic insert failed")
		}
	}
	if f.NumLevels() < 4 {
		t.Fatalf("expected ≥4 levels after 40k inserts into 2^10 base, got %d", f.NumLevels())
	}
	if f.Count() != uint64(len(keys)) {
		t.Fatalf("count %d != %d", f.Count(), len(keys))
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatal("false negative across growth")
		}
	}
}

func TestRemoveAcrossLevels(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(2).Keys(10000)
	for _, k := range keys {
		f.Insert(k)
	}
	if f.NumLevels() < 3 {
		t.Fatalf("want ≥3 levels, got %d", f.NumLevels())
	}
	// Every key — including those trapped in old, read-only levels — must be
	// removable.
	for _, k := range keys {
		if !f.Remove(k) {
			t.Fatal("remove of inserted key failed")
		}
	}
	if f.Count() != 0 {
		t.Fatalf("count %d after removing everything", f.Count())
	}
}

func TestBudgetSchedule(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Budgets must sum to ε over the full possible depth.
	var sum float64
	for i := 0; i < MaxLevels; i++ {
		sum += levelBudget(cfg, i)
	}
	if sum > cfg.TargetFPR*(1+1e-9) {
		t.Fatalf("budget sum %g exceeds ε %g", sum, cfg.TargetFPR)
	}
	// Each level's worst-case realized FPR (at its growth trigger) must fit
	// its budget, for every level small enough to ever be allocated (beyond
	// ~2^50 slots the sizing clamp kicks in and the level could not be built).
	for i := 0; i < 24; i++ {
		_, trigger, alloc := levelSizing(cfg, i)
		realized := levelGeometry(cfg, i).FPR * float64(trigger) / float64(alloc)
		if realized > levelBudget(cfg, i)*(1+1e-9) {
			t.Fatalf("level %d: worst-case realized FPR %g exceeds budget %g",
				i, realized, levelBudget(cfg, i))
		}
	}
	// The schedule must tighten: deep levels get 16-bit fingerprints and
	// eventually over-provisioned slots.
	if g := levelGeometry(cfg, 0); g != core.Geom16 { // ε/2 < 8-bit full-load FPR already
		t.Fatalf("level 0 has %d-bit fingerprints", g.FPBits)
	}
	base20, _, alloc20 := levelSizing(cfg, 20)
	if alloc20 <= base20 {
		t.Fatalf("level 20 not over-provisioned: base %d alloc %d", base20, alloc20)
	}
}

func TestLooseBudgetUses8Bit(t *testing.T) {
	cfg := Config{TargetFPR: 0.02, InitialSlots: 1 << 10}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if g := levelGeometry(cfg, 0); g != core.Geom8 {
		t.Fatalf("ε=0.02 level 0 should use 8-bit fingerprints, got %d-bit", g.FPBits)
	}
	if g := levelGeometry(cfg, 3); g != core.Geom16 {
		t.Fatalf("ε=0.02 level 3 should have tightened to 16-bit, got %d-bit", g.FPBits)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{TargetFPR: 0},
		{TargetFPR: 1.5},
		{TargetFPR: 0.01, GrowthFactor: 1.1},
		{TargetFPR: 0.01, TightenRatio: 0.95},
		{TargetFPR: 0.01, FillThreshold: 0.99},
		{TargetFPR: 0.01, InitialSlots: 4},
		{TargetFPR: 0.01, GrowthFactor: math.NaN()},
		{TargetFPR: 0.01, CompactMaxLoad: math.NaN()},
		{TargetFPR: 0.01, FreezeMaxLoad: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSnapshotLevels(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(3).Keys(5000)
	for _, k := range keys {
		f.Insert(k)
	}
	cs := f.Snapshot()
	if len(cs.Levels) != f.NumLevels() {
		t.Fatalf("%d level snapshots for %d levels", len(cs.Levels), f.NumLevels())
	}
	var count uint64
	for _, ls := range cs.Levels {
		count += ls.Count
	}
	if count != cs.Aggregate.Count || count != uint64(len(keys)) {
		t.Fatalf("level counts %d, aggregate %d, want %d", count, cs.Aggregate.Count, len(keys))
	}
	if cs.Aggregate.FPRFullLoad != f.TargetFPR() {
		t.Fatalf("aggregate FPRFullLoad %g != target %g", cs.Aggregate.FPRFullLoad, f.TargetFPR())
	}
	if cs.Aggregate.FPREstimate > f.TargetFPR() {
		t.Fatalf("estimated FPR %g exceeds budget %g", cs.Aggregate.FPREstimate, f.TargetFPR())
	}
	if cs.Aggregate.Ops.Inserts+cs.Aggregate.Ops.ShortcutInserts == 0 {
		t.Fatal("aggregate counters empty")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(4).Keys(12000)
	for _, k := range keys {
		f.Insert(k)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLevels() != f.NumLevels() || g.Count() != f.Count() {
		t.Fatalf("round trip: %d levels/%d items, want %d/%d",
			g.NumLevels(), g.Count(), f.NumLevels(), f.Count())
	}
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatal("false negative after round trip")
		}
	}
	// The reloaded cascade must keep growing with the same schedule.
	more := workload.NewStream(5).Keys(20000)
	for _, k := range more {
		if !g.Insert(k) {
			t.Fatal("insert after reload failed")
		}
	}
	if g.NumLevels() <= f.NumLevels() {
		t.Fatal("reloaded cascade did not grow")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	f, _ := New(testConfig())
	for _, k := range workload.NewStream(6).Keys(100) {
		f.Insert(k)
	}
	var buf bytes.Buffer
	f.WriteTo(&buf)
	data := buf.Bytes()

	if _, err := Read(bytes.NewReader(data[:20])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Read(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Error("truncated level stream accepted")
	}
	// Forge an absurd level count.
	forged := append([]byte(nil), data...)
	forged[6], forged[7] = 0xff, 0xff
	if _, err := Read(bytes.NewReader(forged)); err == nil {
		t.Error("forged level count accepted")
	}
	// Forge an invalid config float.
	forged = append([]byte(nil), data...)
	for i := 16; i < 24; i++ {
		forged[i] = 0xff // TargetFPR = NaN
	}
	if _, err := Read(bytes.NewReader(forged)); err == nil {
		t.Error("NaN target FPR accepted")
	}
}

func TestInsertNeverFailsBelowBackstop(t *testing.T) {
	// A tight fill threshold plus tiny levels exercises the grow-and-retry
	// path: inserts that lose the two-choice game below the trigger must
	// still land via a fresh level.
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 64, FillThreshold: 0.9}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workload.NewStream(7).Keys(50000) {
		if !f.Insert(k) {
			t.Fatal("insert failed below MaxLevels")
		}
	}
	if math.Abs(float64(f.Count())-50000) > 0 {
		t.Fatalf("count %d", f.Count())
	}
}

// TestPolicyRoundTrip: a version-4 stream carries the auto-trigger policy,
// and a version-3 stream (the same bytes without the policy fields) reads
// back with the policy off.
func TestPolicyRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.CompactMinLevels, cfg.CompactMaxLoad = 5, 0.3
	cfg.AutoFreeze, cfg.FreezeMinAge, cfg.FreezeMaxLoad = true, 3*time.Second, 0.4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workload.NewStream(8).Keys(5000) {
		f.Insert(k)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v4 := buf.Bytes()
	g, err := Read(bytes.NewReader(v4))
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg != f.cfg {
		t.Fatalf("v4 reload config %+v, want %+v", g.cfg, f.cfg)
	}

	v3 := append([]byte(nil), v4[:elasticHeaderBytes+8]...)
	v3 = append(v3, v4[elasticHeaderV4Bytes:]...)
	binary.LittleEndian.PutUint16(v3[4:], 3)
	g, err = Read(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("v3 stream rejected: %v", err)
	}
	off := testConfig()
	if err := off.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.cfg != off {
		t.Fatalf("v3 reload config %+v, want the policy off: %+v", g.cfg, off)
	}
	if g.Count() != f.Count() || g.NumLevels() != f.NumLevels() {
		t.Fatalf("v3 reload %d items/%d levels, want %d/%d", g.Count(), g.NumLevels(), f.Count(), f.NumLevels())
	}
}

// TestReadRejectsLevelGeometryMismatch: the cascade's per-level geometry is a
// pure function of (config, index), so a level stream whose block count
// disagrees with the declared config must be refused before allocation.
func TestReadRejectsLevelGeometryMismatch(t *testing.T) {
	f, _ := New(testConfig())
	for _, k := range workload.NewStream(7).Keys(100) {
		f.Insert(k)
	}
	var buf bytes.Buffer
	f.WriteTo(&buf)
	data := append([]byte(nil), buf.Bytes()...)
	// First level's core header follows the cascade header and the level
	// record; its block count sits 8 bytes in. Halve it — still a power of
	// two, still fewer bytes than remain, but inconsistent with the level
	// record's declared geometry.
	off := elasticHeaderV4Bytes + levelRecordBytes + 8
	nb := binary.LittleEndian.Uint64(data[off:])
	binary.LittleEndian.PutUint64(data[off:], nb/2)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("level stream with config-inconsistent block count accepted")
	}
}
