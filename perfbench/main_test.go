package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// smallSizes shrink every workload to a few KiB so a run takes a fraction
// of a second.
var smallSizes = sizes{cacheBlocks: 1 << 11, window: 1 << 12, vqfdItems: 1 << 14}

// decode round-trips a result through its JSON line and checks that every
// named metric is present with its unit.
func decode(t *testing.T, r result, defs []metricDef) map[string]metricValue {
	t.Helper()
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted == 0 || back.Failed != 0 {
		t.Fatalf("result header %+v", back)
	}
	if len(back.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(back.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := back.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Fatalf("metric %s: got %+v, want unit %q", d.name, m, d.unit)
		}
	}
	return back.Metrics
}

func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads(smallSizes) {
		t.Run(w.name, func(t *testing.T) {
			r, err := runUntraced(w, 7, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range decode(t, resultOf(endToEndDefs, r.metrics(), &r.chk), endToEndDefs) {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads(smallSizes) {
		t.Run(w.name, func(t *testing.T) {
			l, err := runTraced(w, 7, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			m := decode(t, resultOf(perLayer, l.metrics(), &l.chk), perLayer)
			for _, name := range []string{"core.contains_ns_per_key", "minifilter.contains_ns", "driver.req_count"} {
				if !(m[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m[name].Value)
				}
			}
			if w.name == "cascade-churn" && !(m["elastic.probes_per_lookup"].Value >= 1) {
				t.Errorf("probes_per_lookup = %v", m["elastic.probes_per_lookup"].Value)
			}
			if w.name == "vqfd-binary" && !(m["service.rtt_us"].Value > 0) {
				t.Errorf("service.rtt_us = %v", m["service.rtt_us"].Value)
			}
		})
	}
}

// dropOne is a system wrapper that silently loses the first key of its
// first bulk load.
type dropOne struct {
	system
	dropped bool
}

func (d *dropOne) load(s *segment) (int, error) {
	if d.dropped {
		return d.system.load(s)
	}
	d.dropped = true
	keys, hs := s.keys, s.hs
	s.keys, s.hs = keys[1:], hs[1:]
	n, err := d.system.load(s)
	s.keys, s.hs = keys, hs
	return n + 1, err
}

func TestGateCatchesDroppedKey(t *testing.T) {
	for _, w := range workloads(smallSizes) {
		t.Run(w.name, func(t *testing.T) {
			build := w.build
			w.build = func(seed uint64) (system, error) {
				s, err := build(seed)
				return &dropOne{system: s}, err
			}
			_, err := runUntraced(w, 7, 0.3)
			if err == nil || !strings.Contains(err.Error(), "correctness") {
				t.Fatalf("gate did not trip on a dropped key: %v", err)
			}
		})
	}
}

// A refused insert exempts its keys only until the live set restarts at
// index 0; after that the same indices are new keys and checked again.
func TestRefusalsForgottenOnRestart(t *testing.T) {
	var c checker
	c.segment(&segment{op: opInsert, keys: []uint64{1, 2}, idx: []uint64{4, 5}, n: 1})
	if !c.exempt(5) || c.failed != 1 {
		t.Fatalf("refusal not booked: exempt(5)=%v failed=%d", c.exempt(5), c.failed)
	}
	c.forget()
	if c.exempt(5) {
		t.Fatal("refusal survived the restart")
	}
}

func TestChurnLiveSet(t *testing.T) {
	c := churn{window: 256, stride: 16, lifeMul: 4}
	ks := newKeyspace(3, c)
	live := func(i uint64) bool {
		return i < ks.hi && (i+c.window >= ks.hi || (i%c.stride == 0 && i+c.window*c.lifeMul >= ks.hi))
	}
	removed := map[uint64]bool{}
	s := &segment{}
	for step := 0; step < 200; step++ {
		ks.fill(s, segShape{op: opInsert, n: 16}, false)
		ks.fill(s, segShape{op: opRemove, n: 16}, false)
		for _, i := range s.idx {
			if removed[i] || live(i) {
				t.Fatalf("hi=%d: removed %d twice or while live", ks.hi, i)
			}
			removed[i] = true
		}
		for j := 0; j < 64; j++ {
			if i := ks.liveIndex(); !live(i) {
				t.Fatalf("hi=%d: sampled dead index %d", ks.hi, i)
			}
		}
		for i := uint64(0); i < ks.hi; i++ {
			if !live(i) && !removed[i] {
				t.Fatalf("hi=%d: expired %d never removed", ks.hi, i)
			}
		}
	}
}

// The timed loop of the in-process batch workload must not allocate:
// generating a request, running it and checking it reuse the same buffers.
func TestTimedLoopAllocatesNothing(t *testing.T) {
	w, err := findWorkload(smallSizes, "cache-batch")
	if err != nil {
		t.Fatal(err)
	}
	ks := newKeyspace(7, w.churn)
	sys, _, _, err := setup(w, 7, ks, &segment{}, false)
	if err != nil {
		t.Fatal(err)
	}
	req := newRequest()
	var chk checker
	i := 0
	request := func() {
		for _, s := range req.fill(w, ks, i) {
			apply(sys, s)
			chk.segment(s)
		}
		i++
	}
	for j := 0; j < 100; j++ {
		request()
	}
	if n := testing.AllocsPerRun(200, request); n != 0 {
		t.Fatalf("%v allocations per request", n)
	}
	if err := chk.err(sys.fpr()); err != nil {
		t.Fatal(err)
	}
}
