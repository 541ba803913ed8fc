package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// op is the kind of one request segment.
type op uint8

const (
	opInsert op = iota
	opRemove
	opContains
	numOps
)

var opNames = [numOps]string{"insert", "remove", "contains"}

// segShape is the fixed form of one segment: its op, its key count and, for
// lookups, how many of those keys are live (the rest were never inserted).
type segShape struct {
	op      op
	n, live int
}

// shape is the fixed form of one request: one to three segments, each sent
// as one call (or, on single-key paths, one loop of calls).
type shape []segShape

// segment is one batch of same-kind operations inside a request, with the
// outcome the system under test reported for it.
type segment struct {
	op    op
	keys  []uint64 // what the system under test receives
	hs    []uint64 // the 64-bit hashes the core filters consume
	idx   []uint64 // live-stream index of each live key
	live  int      // contains: keys[:live] are live, keys[live:] absent
	hsBuf []uint64

	n   int    // insert/remove: keys the system reported as done
	res []bool // contains: answers in key order
	err error  // transport or status error
}

// grow makes the segment's result buffers fit n keys. Buffers only grow,
// so a timed loop that follows a warm-up allocates nothing.
func (s *segment) grow(n int) {
	if cap(s.hsBuf) < n {
		s.hsBuf = make([]uint64, n)
	}
	if cap(s.res) < n {
		s.res = make([]bool, n)
	}
}

// target is one rung of the ladder: something that runs request segments.
// load is the bulk path set-up prefills through.
type target interface {
	load(s *segment) (int, error)
	insert(s *segment) (int, error)
	remove(s *segment) (int, error)
	contains(s *segment, dst []bool) ([]bool, error)
}

// apply runs one segment on t and stores the outcome in s.
func apply(t target, s *segment) {
	switch s.op {
	case opInsert:
		s.n, s.err = t.insert(s)
	case opRemove:
		s.n, s.err = t.remove(s)
	case opContains:
		s.res, s.err = t.contains(s, s.res)
	}
}

// system is the end-to-end system a workload measures: the top rung.
type system interface {
	target
	capacity() uint64 // fingerprint slots, for FIFO prefill sizing
	bytes() uint64
	items() uint64
	fpr() float64 // analytic false-positive rate at the current load
	close() error
}

// rung is one named twin in the traced run's ladder.
type rung struct {
	name string
	t    target
}

// workload is one benchmark workload: how its system is built and filled,
// the request shapes its closed loop cycles through, and its ladder.
type workload struct {
	name    string
	top     string  // the system's rung name in the ladder
	rawKeys bool    // the system hashes raw keys itself
	pattern []shape // request shapes, cycled
	// load is the FIFO prefill load factor; churn workloads set churn.
	load  float64
	churn churn
	// setupReps is how many times an untraced run of a FIFO workload builds
	// its state; epoch workloads build it once per epoch instead.
	setupReps int
	// procs is the run's GOMAXPROCS; 0 means the CPU count.
	procs int
	build func(seed uint64) (system, error)
	// twins builds the traced run's rungs below the system, bottom first.
	twins func(seed uint64, sys system) ([]rung, error)
}

// prefillChunk is the key count of one set-up load call.
const prefillChunk = 1 << 22

// prefill brings every target to the workload's starting state with the
// same keys and returns the time spent inside the first target's calls;
// generating keys is not counted.
func prefill(w *workload, ts []target, ks *keyspace, capacity uint64, seg *segment) (time.Duration, error) {
	var spent time.Duration
	one := func(t target, sh segShape) error {
		var n int
		var err error
		if sh.op == opInsert {
			n, err = t.load(seg)
		} else {
			n, err = t.remove(seg)
		}
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if n != len(seg.keys) {
			return fmt.Errorf("prefill: %s did %d of %d keys", opNames[sh.op], n, len(seg.keys))
		}
		return nil
	}
	run := func(sh segShape) error {
		ks.fill(seg, sh, w.rawKeys)
		// Twins fill on a second goroutine while the system fills here:
		// both only read seg, and their memory-bound loads overlap.
		twinErr := make(chan error, 1)
		if len(ts) > 1 {
			go func() {
				var err error
				for _, t := range ts[1:] {
					if err = one(t, sh); err != nil {
						break
					}
				}
				twinErr <- err
			}()
		} else {
			twinErr <- nil
		}
		start := time.Now()
		err := one(ts[0], sh)
		spent += time.Since(start)
		if terr := <-twinErr; err == nil {
			err = terr
		}
		return err
	}
	if c := w.churn; c.window != 0 {
		batch := w.pattern[0][0].n
		for ks.hi < c.window {
			if err := run(segShape{op: opInsert, n: batch}); err != nil {
				return 0, err
			}
			if err := run(segShape{op: opRemove, n: batch}); err != nil {
				return 0, err
			}
		}
		return spent, nil
	}
	target := uint64(w.load * float64(capacity))
	for ks.hi < target {
		if err := run(segShape{op: opInsert, n: int(min(prefillChunk, target-ks.hi))}); err != nil {
			return 0, err
		}
	}
	return spent, nil
}

// setup builds the workload's system and, when traced, the twins of the
// layers below it, then prefills all of them from an empty live set with
// the same keys. It returns the time spent in the system's public API.
func setup(w *workload, seed uint64, ks *keyspace, seg *segment, traced bool) (system, []rung, time.Duration, error) {
	ks.restart()
	start := time.Now()
	sys, err := w.build(seed)
	built := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	ts := []target{sys}
	var twins []rung
	if traced {
		if twins, err = w.twins(seed, sys); err != nil {
			sys.close()
			return nil, nil, 0, fmt.Errorf("twins: %w", err)
		}
		for _, r := range twins {
			ts = append(ts, r.t)
		}
	}
	spent, err := prefill(w, ts, ks, sys.capacity(), seg)
	if err != nil {
		sys.close()
		return nil, nil, 0, err
	}
	return sys, twins, built + spent, nil
}

// boundary reports whether request i may end a warm-up or timed phase:
// always on FIFO workloads, and only where an epoch ends on epoch
// workloads, so every phase holds whole epochs.
func (w *workload) boundary(ks *keyspace, i int) bool {
	return w.churn.epoch == 0 || w.epochEnd(ks, i)
}

// epochEnd reports whether the workload restarts before request i.
func (w *workload) epochEnd(ks *keyspace, i int) bool {
	return w.churn.epoch != 0 && i%len(w.pattern) == 0 && ks.hi >= w.churn.epoch
}

// request holds the reusable segments of one request.
type request struct {
	segs []*segment
}

func newRequest() *request {
	return &request{segs: []*segment{{}, {}, {}}}
}

// fill generates request number i of the workload's cycle.
func (r *request) fill(w *workload, ks *keyspace, i int) []*segment {
	sh := w.pattern[i%len(w.pattern)]
	for j, s := range sh {
		ks.fill(r.segs[j], s, w.rawKeys)
	}
	return r.segs[:len(sh)]
}

func keysOf(segs []*segment) int {
	n := 0
	for _, s := range segs {
		n += len(s.keys)
	}
	return n
}

// maxRequests bounds one timed phase; the per-request durations are
// preallocated so the loop allocates nothing.
const maxRequests = 1 << 23

// warmup is run before every timed phase, untimed.
func warmup(seconds float64) time.Duration {
	return time.Duration(min(2, max(0.3, seconds/8)) * float64(time.Second))
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i])
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// freshHeap collects garbage so the timed phase starts from a clean heap.
func freshHeap() {
	runtime.GC()
	runtime.GC()
}

// clampNs stores a request duration; a request longer than ~4 s saturates.
func clampNs(d time.Duration) uint32 {
	if d > 0xffffffff {
		return 0xffffffff
	}
	return uint32(d)
}
