package main

import (
	"fmt"
	"slices"
	"time"
)

// timeParts is how many equal stretches the timed phase of a FIFO
// workload is cut into; epoch workloads use one part per epoch.
const timeParts = 40

// quietShare picks the part a run reports: throughput_mops is the part
// throughput that a tenth of the parts reach or beat, and req_p50_us the
// part median that a tenth of the parts reach or beat. Neighbours on a
// shared machine slow stretches of seconds by 1.3-1.5x, in cycles and not
// only in wall time, and the share of a run they cover changes from minute
// to minute; the median over parts moves with that share, this quantile
// only when they cover nine tenths of the run. Now and then a stretch runs
// some 7% faster than usual; the fastest part would move with those.
const quietShare = 0.1

// part is one stretch of the timed phase.
type part struct {
	start int // index of its first request duration
	busy  time.Duration
	done  uint64
}

// endToEnd is the result of an untraced run.
type endToEnd struct {
	throughputMops float64 // completed keys per second of request time on the quiet side of the parts, millions
	p50us, p99us   float64
	// partMops and partP50us are each part's throughput and exact median
	// request duration.
	partMops, partP50us []float64
	requests            int
	setupS              float64
	setups              []float64
	bitsPerItem         float64
	bytes, items        uint64
	chk                 checker
}

func (r *endToEnd) failRatio() float64 {
	return float64(r.chk.failed) / float64(r.chk.attempted)
}

// metrics returns the end-to-end metrics by name. success_ratio is
// 1 − fail_ratio: fail_ratio is 0 on a healthy run, and a metric that
// reads 0 has no relative spread.
func (r *endToEnd) metrics() map[string]float64 {
	return map[string]float64{
		"throughput_mops": r.throughputMops,
		"req_p50_us":      r.p50us,
		"setup_s":         r.setupS,
		"bits_per_item":   r.bitsPerItem,
		"success_ratio":   1 - r.failRatio(),
	}
}

// runUntraced builds the workload's state, warms up, then runs the closed
// loop for seconds and checks every answer. setup_s is the median of
// several set-ups spread over the run, so that a slow stretch of the
// machine meets few of them: epoch workloads rebuild their state at every
// epoch, and FIFO workloads build a spare copy of it at part boundaries
// until they have built it setupReps times.
func runUntraced(w *workload, seed uint64, seconds float64) (*endToEnd, error) {
	res := &endToEnd{}
	seg := &segment{}
	ks := newKeyspace(seed, w.churn)
	var sys system
	var warm checker
	rebuild := func() error {
		if sys != nil {
			sys.close()
			sys = nil
			freshHeap()
		}
		// The live set restarts at index 0: earlier refusals exempt nothing.
		warm.forget()
		res.chk.forget()
		s, _, d, err := setup(w, seed, ks, seg, false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		sys = s
		res.setups = append(res.setups, d.Seconds())
		return nil
	}
	// spare builds and drops copies of the starting state, on a keyspace
	// of their own, until the run has built it want times.
	spare := func(want int) error {
		for len(res.setups) < want {
			s, _, d, err := setup(w, seed, newKeyspace(seed, w.churn), seg, false)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			s.close()
			res.setups = append(res.setups, d.Seconds())
			freshHeap()
		}
		return nil
	}
	if err := rebuild(); err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	req := newRequest()
	durs := make([]uint32, 0, maxRequests)
	parts := make([]part, 1, 256)
	// Collect garbage before the warm-up rather than after it, so the
	// timed phase starts with the collector already at its steady pace.
	freshHeap()
	i := 0
	for start := time.Now(); time.Since(start) < warmup(seconds) || !w.boundary(ks, i); i++ {
		if w.epochEnd(ks, i) {
			if err := rebuild(); err != nil {
				return nil, err
			}
		}
		for _, s := range req.fill(w, ks, i) {
			apply(sys, s)
			warm.segment(s)
		}
	}

	// Keys refused during the warm-up stay exempt.
	res.chk.refused = append(res.chk.refused, warm.refused...)
	limit := time.Duration(seconds * float64(time.Second))
	for phase := time.Now(); len(durs) < cap(durs); i++ {
		elapsed := time.Since(phase)
		if elapsed >= limit && w.boundary(ks, i) {
			break
		}
		if w.epochEnd(ks, i) {
			if err := rebuild(); err != nil {
				return nil, err
			}
			if len(durs) > 0 {
				parts = append(parts, part{start: len(durs)})
			}
		} else if w.churn.epoch == 0 && int(elapsed*timeParts/limit) >= len(parts) && len(parts) < timeParts {
			parts = append(parts, part{start: len(durs)})
			if err := spare(len(parts) * w.setupReps / timeParts); err != nil {
				return nil, err
			}
		}
		segs := req.fill(w, ks, i)
		t0 := time.Now()
		for _, s := range segs {
			apply(sys, s)
		}
		d := time.Since(t0)
		durs = append(durs, clampNs(d))
		p := &parts[len(parts)-1]
		p.busy += d
		before := res.chk.failed
		for _, s := range segs {
			res.chk.segment(s)
		}
		p.done += uint64(keysOf(segs)) - (res.chk.failed - before)
	}

	res.setupS = median(slices.Clone(res.setups))
	for k, p := range parts {
		end := len(durs)
		if k+1 < len(parts) {
			end = parts[k+1].start
		}
		part := slices.Clone(durs[p.start:end])
		slices.Sort(part)
		res.partMops = append(res.partMops, float64(p.done)/p.busy.Seconds()/1e6)
		res.partP50us = append(res.partP50us, medianNs(part)/1e3)
	}
	res.throughputMops = quantileF(slices.Clone(res.partMops), 1-quietShare)
	res.p50us = quantileF(slices.Clone(res.partP50us), quietShare)
	slices.Sort(durs)
	res.requests = len(durs)
	res.p99us = quantile(durs, 0.99) / 1e3
	res.bytes, res.items = sys.bytes(), sys.items()
	res.bitsPerItem = float64(res.bytes) * 8 / float64(res.items)
	eps := sys.fpr()
	if err := warm.err(eps); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	return res, res.chk.err(eps)
}

// quantileF returns the q-quantile of xs, interpolating between order
// statistics (xs is reordered).
func quantileF(xs []float64, q float64) float64 {
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// medianNs is the exact median of sorted durations.
func medianNs(sorted []uint32) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
}
