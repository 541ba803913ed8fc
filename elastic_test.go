package vqf

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestElasticFPRBudgetAcrossGrowth is the headline elastic guarantee: after
// several growth events the empirical false-positive rate over a million-plus
// never-added keys must still sit under the configured budget ε.
func TestElasticFPRBudgetAcrossGrowth(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default-eps", []Option{WithInitialCapacity(8192)}},
		{"loose-eps-8bit-start", []Option{WithInitialCapacity(8192), WithFalsePositiveRate(0.01)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewElastic(tc.opts...)
			eps := f.FalsePositiveRate()
			const inserts = 120_000 // ≈ 15× the initial capacity
			for i := uint64(0); i < inserts; i++ {
				if err := f.AddUint64(i); err != nil {
					t.Fatal(err)
				}
			}
			if f.Levels() < 4 {
				t.Fatalf("want ≥4 levels (≥3 growth events), got %d", f.Levels())
			}
			const probes = 1_200_000
			fps := 0
			for i := uint64(0); i < probes; i++ {
				if f.ContainsUint64(1<<40 + i) { // disjoint from the inserted range
					fps++
				}
			}
			measured := float64(fps) / probes
			t.Logf("levels=%d measured FPR=%.6f budget=%.6f estimate=%.6f",
				f.Levels(), measured, eps, f.Snapshot().FPREstimate)
			if measured > eps {
				t.Fatalf("measured FPR %.6f exceeds budget %.6f after %d growths",
					measured, eps, f.Levels()-1)
			}
			// No false negatives, ever.
			for i := uint64(0); i < inserts; i += 97 {
				if !f.ContainsUint64(i) {
					t.Fatal("false negative")
				}
			}
		})
	}
}

// TestElasticConcurrentContainsDuringGrowth races lock-free lookups against
// a grower adding levels (run with -race for the acceptance check).
func TestElasticConcurrentContainsDuringGrowth(t *testing.T) {
	f := NewConcurrentElastic(WithInitialCapacity(1024))
	for i := uint64(0); i < 800; i++ {
		f.AddUint64(i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(off uint64) {
			defer wg.Done()
			for n := uint64(0); !stop.Load(); n++ {
				if !f.ContainsUint64(n % 800) {
					t.Error("false negative during growth")
					return
				}
				f.ContainsUint64(1<<50 + off + n)
			}
		}(uint64(r) << 32)
	}
	start := f.Levels()
	for i := uint64(1000); f.Levels() < start+3; i++ {
		if err := f.AddUint64(i); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestElasticSerializeRoundTrip(t *testing.T) {
	f := NewElastic(WithInitialCapacity(1024), WithSeed(99))
	for i := 0; i < 10_000; i++ {
		if err := f.AddString("elastic-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadElastic(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Levels() != f.Levels() || g.Count() != f.Count() {
		t.Fatalf("round trip: levels %d/%d count %d/%d", g.Levels(), f.Levels(), g.Count(), f.Count())
	}
	if g.FalsePositiveRate() != f.FalsePositiveRate() {
		t.Fatal("FPR budget lost in round trip")
	}
	for i := 0; i < 10_000; i++ {
		if !g.ContainsString("elastic-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i))) {
			t.Fatal("false negative after round trip")
		}
	}
}

func TestElasticConcurrentSerializationUnsupported(t *testing.T) {
	f := NewConcurrentElastic()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err == nil {
		t.Error("concurrent elastic serialization should fail")
	}
}

// TestEnvelopeKindMismatch checks that each reader names the right decoder
// when handed another type's stream.
func TestEnvelopeKindMismatch(t *testing.T) {
	var filterBuf, elasticBuf, mapBuf bytes.Buffer
	pf := New(100)
	pf.AddString("x")
	pf.WriteTo(&filterBuf)
	ef := NewElastic()
	ef.AddString("x")
	ef.WriteTo(&elasticBuf)
	m := NewMap(100)
	m.PutString("x", 1)
	m.WriteTo(&mapBuf)

	if _, err := Read(bytes.NewReader(elasticBuf.Bytes())); err == nil || !strings.Contains(err.Error(), "ReadElastic") {
		t.Errorf("Read of elastic stream: %v", err)
	}
	if _, err := ReadElastic(bytes.NewReader(mapBuf.Bytes())); err == nil || !strings.Contains(err.Error(), "NewMapFromReader") {
		t.Errorf("ReadElastic of map stream: %v", err)
	}
	if _, err := NewMapFromReader(bytes.NewReader(filterBuf.Bytes())); err == nil || !strings.Contains(err.Error(), "vqf.Read") {
		t.Errorf("NewMapFromReader of filter stream: %v", err)
	}
}

func TestElasticMetricsExport(t *testing.T) {
	f := NewElastic(WithInitialCapacity(1024))
	for i := uint64(0); i < 5000; i++ {
		f.AddUint64(i)
	}
	if f.Levels() < 2 {
		t.Fatalf("want ≥2 levels, got %d", f.Levels())
	}
	h := MetricsHandler(map[string]Source{"grow": f})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `vqf_items{filter="grow"} 5000`) {
		t.Errorf("aggregate item count missing:\n%s", body)
	}
	for i := 0; i < f.Levels(); i++ {
		if !strings.Contains(body, `vqf_load_factor{filter="grow.level`+string(rune('0'+i))+`"}`) {
			t.Errorf("per-level series for level %d missing", i)
		}
	}
	cs := f.CascadeSnapshot()
	if len(cs.Levels) != f.Levels() {
		t.Fatalf("cascade snapshot has %d levels, filter reports %d", len(cs.Levels), f.Levels())
	}
}

func TestElasticOptionValidation(t *testing.T) {
	for name, opts := range map[string][]Option{
		"bad-growth":  {WithGrowthFactor(1.01)},
		"bad-tighten": {WithTightenRatio(0.99)},
		"bad-thresh":  {WithGrowthThreshold(0.99)},
		"bad-fpr":     {WithFalsePositiveRate(0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewElastic accepted invalid option", name)
				}
			}()
			NewElastic(opts...)
		}()
	}
}

// TestElasticSmallInitialCapacity builds elastic filters for capacities
// whose slot budget falls below one block: they start at one block, hold
// their keys and grow past it.
func TestElasticSmallInitialCapacity(t *testing.T) {
	for _, n := range []uint64{1, 40, 41} {
		for _, f := range []*Elastic{
			NewElastic(WithInitialCapacity(n)),
			NewConcurrentElastic(WithInitialCapacity(n)),
		} {
			for i := uint64(0); i < 200; i++ {
				if err := f.AddUint64(i); err != nil {
					t.Fatalf("n=%d: add %d: %v", n, i, err)
				}
			}
			for i := uint64(0); i < 200; i++ {
				if !f.ContainsUint64(i) {
					t.Fatalf("n=%d: key %d missing", n, i)
				}
			}
		}
	}
}

func TestElasticRemovePublic(t *testing.T) {
	f := NewElastic(WithInitialCapacity(1024))
	for i := uint64(0); i < 4000; i++ {
		f.AddUint64(i)
	}
	for i := uint64(0); i < 4000; i++ {
		if !f.RemoveUint64(i) {
			t.Fatal("remove of added key failed")
		}
	}
	if f.Count() != 0 {
		t.Fatalf("count %d after removing everything", f.Count())
	}
}

// TestElasticEventsOnlyRealCompactions churns a sequential cascade on a
// sliding window and requires every compact-finish event in the ring to
// report merged levels: a compaction pass with nothing to merge must stay
// silent, or the rare-event ring fills with no-op records and loses the
// growth events it exists to keep.
func TestElasticEventsOnlyRealCompactions(t *testing.T) {
	const w = 1 << 15
	e := NewElastic(WithAutoCompaction(4, 0), WithAutoFreeze(0, 0.1))
	for i := uint64(0); i < 6*w; i++ {
		e.AddUint64(i)
		if i >= w && (i-w)%16 != 0 && !e.RemoveUint64(i-w) {
			t.Fatalf("remove of live key %d failed", i-w)
		}
		if i >= 4*w && (i-4*w)%16 == 0 && !e.RemoveUint64(i-4*w) {
			t.Fatalf("remove of live key %d failed", i-4*w)
		}
	}
	if e.CascadeSnapshot().Compactions == 0 {
		t.Fatal("churn ran no compaction; the check is vacuous")
	}
	kinds := map[string]int{}
	for _, ev := range e.Events() {
		kinds[ev.Kind]++
		if ev.Kind == "compact-finish" && ev.A == 0 {
			t.Fatalf("compact-finish event with no levels merged: %+v", ev)
		}
	}
	if kinds["elastic-grow"] == 0 {
		t.Fatalf("no elastic-grow event left in the ring: %v", kinds)
	}
}
