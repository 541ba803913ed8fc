package vqf

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape runs the handler once and returns the exposition body.
func scrape(t *testing.T, sources map[string]Source) string {
	t.Helper()
	rec := httptest.NewRecorder()
	MetricsHandler(sources).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body, _ := io.ReadAll(rec.Body)
	return string(body)
}

// TestShardLabelCardinality asserts the per-shard series of a sharded
// filter: every metric appears exactly NumShards times with a shard label
// (indices 0..N-1, no extras), the aggregate series keeps no shard label,
// and the imbalance gauge is exported.
func TestShardLabelCardinality(t *testing.T) {
	f := NewSharded(100_000, 4)
	for i := uint64(0); i < 10_000; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	n := f.NumShards()
	if n != 4 {
		t.Fatalf("NumShards = %d, want 4", n)
	}
	text := scrape(t, map[string]Source{"s": f})

	for i := 0; i < n; i++ {
		want := fmt.Sprintf(`vqf_items{filter="s",shard="%d"} `, i)
		if !strings.Contains(text, want) {
			t.Fatalf("missing per-shard series %q", want)
		}
	}
	if strings.Contains(text, fmt.Sprintf(`shard="%d"`, n)) {
		t.Fatalf("shard label beyond NumShards-1 present")
	}
	if got := strings.Count(text, `vqf_items{filter="s",shard=`); got != n {
		t.Fatalf("vqf_items shard series count = %d, want %d", got, n)
	}
	if !strings.Contains(text, `vqf_items{filter="s"} `) {
		t.Fatal("aggregate series missing")
	}
	if !strings.Contains(text, `vqf_shard_imbalance{filter="s"} `) {
		t.Fatal("imbalance gauge missing")
	}

	// Per-shard item counts must sum to the aggregate.
	var sum uint64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `vqf_items{filter="s",shard=`) {
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			sum += v
		}
	}
	if sum != f.Count() {
		t.Fatalf("shard items sum %d != aggregate %d", sum, f.Count())
	}
}

// TestShardedSnapshotImbalance checks the heat metric: a uniform workload
// keeps max/mean near 1, and the non-sharded filters report no shard view.
func TestShardedSnapshotImbalance(t *testing.T) {
	f := NewSharded(100_000, 8)
	for i := uint64(0); i < 50_000; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	ss, ok := f.ShardedSnapshot()
	if !ok {
		t.Fatal("sharded filter reported no shard view")
	}
	if len(ss.Shards) != 8 {
		t.Fatalf("shards %d, want 8", len(ss.Shards))
	}
	if ss.Imbalance < 1.0 || ss.Imbalance > 1.2 {
		t.Fatalf("imbalance %g outside [1, 1.2] on a uniform workload", ss.Imbalance)
	}
	if ss.Aggregate.Count != f.Count() {
		t.Fatalf("aggregate count %d != %d", ss.Aggregate.Count, f.Count())
	}

	if _, ok := New(1000).ShardedSnapshot(); ok {
		t.Fatal("sequential filter claims a shard view")
	}
	if _, ok := NewConcurrent(1000).ShardedSnapshot(); ok {
		t.Fatal("concurrent filter claims a shard view")
	}
}

// TestPublishExpvarRepublish asserts the duplicate-name fix: publishing the
// same name twice swaps the source instead of panicking, and reads follow
// the new source.
func TestPublishExpvarRepublish(t *testing.T) {
	a := New(1000)
	for i := uint64(0); i < 3; i++ {
		if err := a.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	PublishExpvar("vqf_test_republish", a)

	b := New(1000)
	for i := uint64(0); i < 7; i++ {
		if err := b.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	PublishExpvar("vqf_test_republish", b) // must not panic

	var snap Snapshot
	if err := json.Unmarshal([]byte(expvar.Get("vqf_test_republish").String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count != 7 {
		t.Fatalf("expvar still serves old source: count %d, want 7", snap.Count)
	}
}

// TestLatencySnapshot exercises every op at rate 1 (sample everything) and
// asserts the observation counts and basic sanity of the quantiles.
func TestLatencySnapshot(t *testing.T) {
	f := NewConcurrent(10_000, WithLatencySampling(1))
	for i := uint64(0); i < 500; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 300; i++ {
		f.ContainsUint64(i)
	}
	for i := uint64(0); i < 100; i++ {
		f.RemoveUint64(i)
	}
	hs := make([]uint64, 64)
	for i := range hs {
		hs[i] = uint64(0x5555_0000 + i)
	}
	f.AddHashBatch(hs)
	f.ContainsHashBatch(hs, nil)
	f.RemoveHashBatch(hs)

	lat := f.Latency()
	if lat.SamplingRate != 1 {
		t.Fatalf("sampling rate %d, want 1", lat.SamplingRate)
	}
	if lat.Insert.Count != 500 || lat.Lookup.Count != 300 || lat.Remove.Count != 100 {
		t.Fatalf("single-key counts insert=%d lookup=%d remove=%d, want 500/300/100",
			lat.Insert.Count, lat.Lookup.Count, lat.Remove.Count)
	}
	if lat.InsertBatch.Count != 64 || lat.LookupBatch.Count != 64 || lat.RemoveBatch.Count != 64 {
		t.Fatalf("batch counts %d/%d/%d, want 64 each",
			lat.InsertBatch.Count, lat.LookupBatch.Count, lat.RemoveBatch.Count)
	}
	for _, s := range []LatencySummary{lat.Insert, lat.Lookup, lat.Remove} {
		if s.P50 == 0 || s.P99 < s.P50 || s.P999 < s.P99 || s.MeanNs <= 0 {
			t.Fatalf("implausible summary %+v", s)
		}
	}

	// Sampling disabled: zero rate, empty summaries.
	off := NewConcurrent(1000, WithLatencySampling(0))
	if err := off.AddUint64(1); err != nil {
		t.Fatal(err)
	}
	off.ContainsUint64(1)
	if lat := off.Latency(); lat.SamplingRate != 0 || lat.Insert.Count != 0 || lat.Lookup.Count != 0 {
		t.Fatalf("disabled sampling recorded: %+v", lat)
	}

	// Elastic filters record through the same surface.
	e := NewElastic(WithLatencySampling(1))
	for i := uint64(0); i < 200; i++ {
		if err := e.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	e.ContainsUint64(5)
	elat := e.Latency()
	if elat.Insert.Count != 200 || elat.Lookup.Count != 1 {
		t.Fatalf("elastic latency counts insert=%d lookup=%d", elat.Insert.Count, elat.Lookup.Count)
	}
}

// TestHotPathZeroAlloc guards the sampled hot path: a timed lookup/insert
// must not allocate, at default rate and at rate 1, on both the sequential
// and concurrent gates.
func TestHotPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *Filter
	}{
		{"sequential-rate1", New(100_000, WithLatencySampling(1))},
		{"concurrent-rate1", NewConcurrent(100_000, WithLatencySampling(1))},
		{"concurrent-default", NewConcurrent(100_000)},
		{"concurrent-off", NewConcurrent(100_000, WithLatencySampling(0))},
	} {
		for i := uint64(0); i < 1000; i++ {
			if err := tc.f.AddHash(i * 0x9e3779b97f4a7c15); err != nil {
				t.Fatal(err)
			}
		}
		var i uint64
		if allocs := testing.AllocsPerRun(2000, func() {
			tc.f.ContainsHash(i * 0x9e3779b97f4a7c15)
			i++
		}); allocs != 0 {
			t.Errorf("%s: ContainsHash allocates %.1f per op", tc.name, allocs)
		}
	}
}

// TestEventsAndHandler drives an elastic cascade through growth and checks
// the event stream end-to-end: typed events from Filter.Events, the JSON
// endpoint shape, and the global ring's kernel-dispatch record.
func TestEventsAndHandler(t *testing.T) {
	e := NewConcurrentElastic(WithInitialCapacity(4096))
	for i := uint64(0); i < 20_000; i++ {
		if err := e.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	if e.Levels() < 2 {
		t.Fatalf("cascade did not grow (levels %d)", e.Levels())
	}
	evs := e.Events()
	grows := 0
	var last Event
	for _, ev := range evs {
		if ev.Kind == "elastic-swap" {
			grows++
			last = ev
		}
	}
	if grows != e.Levels()-1 {
		t.Fatalf("recorded %d growth events for %d levels", grows, e.Levels())
	}
	if last.A != uint64(e.Levels()-1) || last.B == 0 || last.C == 0 {
		t.Fatalf("growth event args A=%d B=%d C=%d", last.A, last.B, last.C)
	}
	if last.TimeUnixNano <= 0 {
		t.Fatal("growth event has no timestamp")
	}

	rec := httptest.NewRecorder()
	EventsHandler(map[string]EventSource{"cache": e}).
		ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vqf/events", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var out map[string][]Event
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["cache"]) != len(evs) && len(out["cache"]) == 0 {
		t.Fatal("handler served no events for the filter")
	}
	if _, ok := out["global"]; !ok {
		t.Fatal("handler output missing global ring")
	}
	// The minifilter init dispatch record always lands in the global ring.
	found := false
	for _, ev := range GlobalEvents() {
		if ev.Kind == "asm-dispatch" {
			found = true
		}
	}
	if !found {
		t.Fatal("global ring missing the init asm-dispatch event")
	}
}

// TestMetricsHandlerLatencySeries checks the Prometheus latency exposition:
// histogram series appear per (filter, op), buckets are cumulative and
// monotone, and _count matches the recorded observations.
func TestMetricsHandlerLatencySeries(t *testing.T) {
	f := NewConcurrent(10_000, WithLatencySampling(1))
	for i := uint64(0); i < 400; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 250; i++ {
		f.ContainsUint64(i)
	}
	text := scrape(t, map[string]Source{"lat": f})

	if n := strings.Count(text, "# HELP vqf_op_latency_seconds"); n != 1 {
		t.Fatalf("latency HELP emitted %d times", n)
	}
	for _, op := range []string{"insert", "lookup"} {
		prefix := fmt.Sprintf(`vqf_op_latency_seconds_bucket{filter="lat",op="%s",le=`, op)
		if !strings.Contains(text, prefix) {
			t.Fatalf("missing latency buckets for op %s:\n%s", op, text)
		}
	}
	wantCount := map[string]uint64{"insert": 400, "lookup": 250}
	for op, want := range wantCount {
		line := fmt.Sprintf(`vqf_op_latency_seconds_count{filter="lat",op="%s"} %d`, op, want)
		if !strings.Contains(text, line) {
			t.Fatalf("missing %q", line)
		}
	}
	// Bucket monotonicity per series: cumulative counts never decrease and
	// the +Inf bucket equals _count.
	for _, op := range []string{"insert", "lookup"} {
		prev := uint64(0)
		lastVal := uint64(0)
		prefix := fmt.Sprintf(`vqf_op_latency_seconds_bucket{filter="lat",op="%s",`, op)
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket series for %s not monotone: %d after %d", op, v, prev)
			}
			prev, lastVal = v, v
		}
		if lastVal != wantCount[op] {
			t.Fatalf("+Inf bucket for %s = %d, want %d", op, lastVal, wantCount[op])
		}
	}

	// A filter with sampling off exports no latency series at all.
	off := NewConcurrent(1000, WithLatencySampling(0))
	if err := off.AddUint64(1); err != nil {
		t.Fatal(err)
	}
	if text := scrape(t, map[string]Source{"off": off}); strings.Contains(text, "vqf_op_latency_seconds") {
		t.Fatal("disabled sampling still exports latency series")
	}
}

// TestObserveConcurrentRace hammers a sharded filter with mixed traffic
// while scraping metrics, latency and events from other goroutines — the
// race detector is the assertion.
func TestObserveConcurrentRace(t *testing.T) {
	f := NewSharded(200_000, 4, WithLatencySampling(8))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			hs := make([]uint64, 256)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h := base + i
				f.AddHash(h * 0x9e3779b97f4a7c15)
				f.ContainsHash(h * 0x9e3779b97f4a7c15)
				if i%64 == 0 {
					for j := range hs {
						hs[j] = base + i + uint64(j)
					}
					f.AddHashBatch(hs)
					f.RemoveHashBatch(hs)
				}
			}
		}(w)
	}
	deadline := time.After(400 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
			f.Latency()
			f.Events()
			if _, ok := f.ShardedSnapshot(); !ok {
				t.Error("shard view vanished")
			}
			scrapeOnce(f)
		}
	}
}

func scrapeOnce(f *Filter) {
	rec := httptest.NewRecorder()
	MetricsHandler(map[string]Source{"race": f}).
		ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
}
