package vqf

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vqf/internal/minifilter"
)

// TestStatsExactSequential scripts a deterministic workload against the
// sequential filter and asserts every counter exactly.
func TestStatsExactSequential(t *testing.T) {
	f := New(10_000)

	// 1000 distinct keys inserted: the filter is nearly empty, so every
	// insert takes the shortcut path.
	for i := uint64(0); i < 1000; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	// 500 positive + 300 negative lookups: each is exactly one Lookup.
	for i := uint64(0); i < 500; i++ {
		if !f.ContainsUint64(i) {
			t.Fatalf("false negative on %d", i)
		}
	}
	for i := uint64(0); i < 300; i++ {
		f.ContainsUint64(1_000_000 + i)
	}
	// 200 removes of present keys, then 100 remove attempts of those same
	// (now absent, modulo collisions) keys.
	for i := uint64(0); i < 200; i++ {
		if !f.RemoveUint64(i) {
			t.Fatalf("remove of inserted key %d failed", i)
		}
	}
	misses := 0
	for i := uint64(0); i < 100; i++ {
		if !f.RemoveUint64(i) {
			misses++
		}
	}

	st := f.Stats()
	if st.Inserts != 1000 || st.InsertFailures != 0 {
		t.Fatalf("inserts %d (failures %d), want 1000 (0)", st.Inserts, st.InsertFailures)
	}
	if st.ShortcutInserts != 1000 {
		t.Fatalf("shortcut inserts %d, want 1000 (filter stays far below threshold)", st.ShortcutInserts)
	}
	if st.Lookups != 800 {
		t.Fatalf("lookups %d, want 800", st.Lookups)
	}
	wantRemoves := uint64(200 + (100 - misses))
	if st.Removes != wantRemoves || st.RemoveMisses != uint64(misses) {
		t.Fatalf("removes %d misses %d, want %d and %d", st.Removes, st.RemoveMisses, wantRemoves, misses)
	}
	if st.OptAttempts != 0 || st.OptRetries != 0 || st.OptFallbacks != 0 {
		t.Fatalf("sequential filter has optimistic counters: %+v", st)
	}
	if st.Inserts-st.Removes != f.Count() {
		t.Fatalf("inserts−removes = %d but Count() = %d", st.Inserts-st.Removes, f.Count())
	}
}

// TestStatsExactConcurrent runs a single-threaded script against the
// concurrent filter: with no contention possible, retries and fallbacks must
// be zero and attempts exactly accountable.
func TestStatsExactConcurrent(t *testing.T) {
	f := NewConcurrent(10_000)
	for i := uint64(0); i < 1000; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	pos := 0
	for i := uint64(0); i < 400; i++ {
		if f.ContainsUint64(i) {
			pos++
		}
	}
	if pos != 400 {
		t.Fatalf("false negatives: %d/400", pos)
	}
	neg := uint64(300)
	for i := uint64(0); i < neg; i++ {
		f.ContainsUint64(2_000_000 + i)
	}

	st := f.Stats()
	if st.Inserts != 1000 || st.ShortcutInserts != 1000 || st.InsertFailures != 0 {
		t.Fatalf("insert counters: %+v", st)
	}
	if st.Lookups != 700 {
		t.Fatalf("lookups %d, want 700", st.Lookups)
	}
	if st.OptRetries != 0 || st.OptFallbacks != 0 {
		t.Fatalf("uncontended filter saw retries/fallbacks: %+v", st)
	}
	// Inserts decide the shortcut under the block lock, so only lookups read
	// optimistically, one or two blocks each. Attempts must fall in
	// [lookups, 2·lookups].
	lo, hi := st.Lookups, 2*st.Lookups
	if st.OptAttempts < lo || st.OptAttempts > hi {
		t.Fatalf("optimistic attempts %d outside [%d, %d]", st.OptAttempts, lo, hi)
	}
}

func TestStatsBatchCounters(t *testing.T) {
	f := NewConcurrent(100_000)
	hs := make([]uint64, 5000)
	for i := range hs {
		hs[i] = (uint64(i) + 1) * 0x9e3779b97f4a7c15 // spread over blocks
	}
	cf, ok := f.impl.(interface {
		InsertBatch([]uint64) int
		ContainsBatch([]uint64, []bool) []bool
	})
	if !ok {
		t.Fatal("concurrent impl lacks batch API")
	}
	if n := cf.InsertBatch(hs); n != len(hs) {
		t.Fatalf("inserted %d/%d", n, len(hs))
	}
	cf.ContainsBatch(hs, nil)
	st := f.Stats()
	if st.BatchOps != 2 || st.BatchKeys != uint64(2*len(hs)) {
		t.Fatalf("batch counters: ops %d keys %d, want 2 and %d", st.BatchOps, st.BatchKeys, 2*len(hs))
	}
	if st.Inserts != uint64(len(hs)) {
		t.Fatalf("batch inserts folded into Inserts: %d want %d", st.Inserts, len(hs))
	}
	if st.Lookups != uint64(len(hs)) {
		t.Fatalf("batch lookups folded into Lookups: %d want %d", st.Lookups, len(hs))
	}
}

func TestSnapshotStructure(t *testing.T) {
	f := New(10_000)
	for i := uint64(0); i < 5000; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Snapshot()
	if s.Count != 5000 || s.Capacity != f.Capacity() {
		t.Fatalf("count/capacity: %+v", s)
	}
	if s.LoadFactor != f.LoadFactor() {
		t.Fatalf("load factor %v vs %v", s.LoadFactor, f.LoadFactor())
	}
	if s.FPRFullLoad != f.FalsePositiveRate() {
		t.Fatalf("fpr %v vs %v", s.FPRFullLoad, f.FalsePositiveRate())
	}
	if s.Occupancy.SlotsPerBlock != minifilter.B8Slots {
		t.Fatalf("slots/block %d", s.Occupancy.SlotsPerBlock)
	}
	var blocks, items uint64
	for occ, n := range s.Occupancy.Histogram {
		blocks += n
		items += uint64(occ) * n
	}
	if blocks != s.Occupancy.Blocks || items != s.Count {
		t.Fatalf("histogram sums: %d blocks (want %d), %d items (want %d)",
			blocks, s.Occupancy.Blocks, items, s.Count)
	}
	if s.Ops.Inserts != 5000 {
		t.Fatalf("snapshot ops: %+v", s.Ops)
	}

	// The concurrent variant serves the same snapshot shape.
	cs := NewConcurrent(10_000)
	if err := cs.AddUint64(1); err != nil {
		t.Fatal(err)
	}
	snap := cs.Snapshot()
	if snap.Count != 1 || snap.Ops.Inserts != 1 {
		t.Fatalf("concurrent snapshot: %+v", snap)
	}
}

func TestMetricsHandler(t *testing.T) {
	f := New(10_000)
	for i := uint64(0); i < 100; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMap(1000)
	if err := m.PutHash(42, 7); err != nil {
		t.Fatal(err)
	}
	h := MetricsHandler(map[string]Source{"filter": f, "router": m})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != MetricsContentType {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	text := string(body)
	for _, want := range []string{
		`vqf_inserts_total{filter="filter"} 100`,
		`vqf_inserts_total{filter="router"} 1`,
		`vqf_items{filter="filter"} 100`,
		"# TYPE vqf_block_occupancy histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	// HELP headers must not repeat per filter.
	if n := strings.Count(text, "# HELP vqf_inserts_total"); n != 1 {
		t.Fatalf("HELP emitted %d times", n)
	}
}

func TestPublishExpvar(t *testing.T) {
	f := New(1000)
	if err := f.AddUint64(7); err != nil {
		t.Fatal(err)
	}
	PublishExpvar("vqf_test_filter", f)
	v := expvar.Get("vqf_test_filter")
	if v == nil {
		t.Fatal("expvar not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not snapshot JSON: %v", err)
	}
	if snap.Count != 1 || snap.Ops.Inserts != 1 {
		t.Fatalf("expvar snapshot: %+v", snap)
	}
	// Re-reads take fresh snapshots.
	if err := f.AddUint64(8); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count != 2 {
		t.Fatalf("expvar did not refresh: %+v", snap)
	}
}

func TestMapStats(t *testing.T) {
	m := NewMap(10_000)
	key := func(i int) string { return "key-" + strconv.Itoa(i) }
	for i := 0; i < 500; i++ {
		if err := m.PutString(key(i), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok := m.GetString(key(i)); !ok {
			t.Fatalf("stored key %d missing", i)
		}
	}
	for i := 0; i < 50; i++ {
		if !m.UpdateString(key(i), 99) {
			t.Fatalf("update of stored key %d failed", i)
		}
	}
	deleted := uint64(0)
	for i := 0; i < 100; i++ {
		if m.Delete([]byte(key(i))) {
			deleted++
		}
	}
	st := m.Stats()
	if st.Inserts != 500 || st.Lookups != 250 || st.Removes != deleted {
		t.Fatalf("map counters: %+v (deleted %d)", st, deleted)
	}
	if m.LoadFactor() <= 0 || m.LoadFactor() != float64(m.Count())/float64(m.Capacity()) {
		t.Fatalf("load factor %v", m.LoadFactor())
	}
	snap := m.Snapshot()
	if snap.Count != m.Count() || snap.FPRFullLoad != m.FalsePositiveRate() {
		t.Fatalf("map snapshot: %+v", snap)
	}
}
