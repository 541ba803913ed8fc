package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// spanRec is one recorded span. Request spans have parent -1; rung spans
// point at their request's span. Times are nanoseconds since the trace
// started.
type spanRec struct {
	name       uint16
	parent     int32
	req        int32
	start, end int64
}

// maxSpans bounds the in-memory span buffer; spans past it are dropped
// (the aggregates still count them).
const maxSpans = 1 << 18

// cost accumulates one rung's time on one op over traced requests.
type cost struct {
	ns, keys int64
}

func (c cost) perKey() float64 {
	if c.keys == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.keys)
}

// counters are the monotone counters the per-layer ratios difference.
type counters struct {
	shortcuts, inserts, optRetries, optAttempts uint64
	compactions, freezes, thaws                 uint64
}

func (c counters) sub(o counters) counters {
	return counters{
		c.shortcuts - o.shortcuts, c.inserts - o.inserts, c.optRetries - o.optRetries, c.optAttempts - o.optAttempts,
		c.compactions - o.compactions, c.freezes - o.freezes, c.thaws - o.thaws,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		c.shortcuts + o.shortcuts, c.inserts + o.inserts, c.optRetries + o.optRetries, c.optAttempts + o.optAttempts,
		c.compactions + o.compactions, c.freezes + o.freezes, c.thaws + o.thaws,
	}
}

// ladder is the state and outcome of a traced run.
type ladder struct {
	w     *workload
	seed  uint64
	rungs []rung
	seg   *segment
	ks    *keyspace
	cost  [][numOps]cost // [rung][op], traced requests only
	// traced counts traced requests.
	traced int
	// wall[m][shape] is the top rung's summed request wall time in mode m
	// (0 plain: the system alone; 1 traced: inside the ladder) for each
	// request shape; n counts those requests.
	wall, n  [2][]int64
	topDurs  []uint32
	changed  []int // indices into topDurs whose request changed the cascade structure
	firstReq int   // request number of topDurs[0]
	errReqs  int
	topKeys  int64
	chk      checker
	coreChk  checker
	spans    []spanRec
	names    []string
	held     [][]*segment // a plain stretch's requests, kept for the twins

	// mem0 and mem1 bracket the timed phase; rebuilt holds what the epoch
	// rebuilds inside it allocated, collected and paused.
	mem0, mem1 runtime.MemStats
	rebuilt    struct{ alloc, gcs, pauseNs uint64 }
	// base holds the counters at the start of the current epoch's timed
	// part; acc sums earlier epochs.
	base, acc counters
	// probes and probeKeys sum per-level probes over top-rung lookups;
	// depth and depthN sample the cascade depth.
	probes, probeKeys   uint64
	depth, fuse, depthN uint64
}

func (l *ladder) rungIndex(name string) int {
	for i, r := range l.rungs {
		if r.name == name {
			return i
		}
	}
	return -1
}

func (l *ladder) top() system { return l.rungs[len(l.rungs)-1].t.(system) }

// read collects the counters of the current rungs.
func (l *ladder) read() counters {
	var c counters
	if cs, ok := l.rungs[l.rungIndex("core")].t.(statser); ok {
		st := cs.opStats()
		c.shortcuts, c.inserts = st.ShortcutInserts, st.Inserts
		c.optRetries, c.optAttempts = st.OptRetries, st.OptAttempts
	}
	if ss, ok := l.top().(statser); ok && l.w.top == "service" {
		st := ss.opStats()
		c.optRetries, c.optAttempts = st.OptRetries, st.OptAttempts
	}
	if cc, ok := l.top().(cascader); ok {
		cs := cc.cascade()
		c.compactions, c.freezes, c.thaws = cs.Compactions, cs.Freezes, cs.Thaws
	}
	return c
}

// build (re)builds the system and its twins and fills all of them with the
// same keys.
func (l *ladder) build() error {
	if len(l.rungs) > 0 {
		l.top().close()
		l.rungs = nil
		freshHeap()
	}
	// The live set restarts at index 0: earlier refusals exempt nothing.
	l.chk.forget()
	l.coreChk.forget()
	sys, twins, _, err := setup(l.w, l.seed, l.ks, l.seg, true)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	l.rungs = append(twins, rung{l.w.top, sys})
	return nil
}

// stretchReqs is the length of one traced or plain stretch of the timed
// phase in requests, rounded up to whole pattern cycles.
const stretchReqs = 20

// runTraced builds the system and its twins. The timed phase alternates
// stretches of traced and plain requests. A traced request goes through
// each rung in turn, starting at another rung each time, with a span per
// rung segment. A plain stretch runs on the system alone, the way an
// untraced run does, and is then replayed untimed on the twins;
// trace.overhead_pct compares the system's time in the two.
func runTraced(w *workload, seed uint64, seconds float64) (*ladder, error) {
	l := &ladder{w: w, seed: seed, seg: &segment{}, ks: newKeyspace(seed, w.churn)}
	if err := l.build(); err != nil {
		return nil, err
	}
	defer func() {
		if len(l.rungs) > 0 {
			l.top().close()
		}
	}()
	nr := len(l.rungs)
	l.cost = make([][numOps]cost, nr)
	for m := range l.wall {
		l.wall[m] = make([]int64, len(w.pattern))
		l.n[m] = make([]int64, len(w.pattern))
	}
	l.names = []string{"request"}
	for _, r := range l.rungs {
		for o := op(0); o < numOps; o++ {
			l.names = append(l.names, r.name+"."+opNames[o])
		}
	}
	i := 0
	np := len(w.pattern)
	stretch := (stretchReqs + np - 1) / np * np
	reqs := make([]*request, stretch)
	for k := range reqs {
		reqs[k] = newRequest()
	}
	timed := false
	// next runs request i, or the rest of a plain stretch from it. The
	// warm-up runs both kinds of stretch too, so every request buffer has
	// its size before timing starts.
	next := func(base time.Time) {
		if (i/stretch)%2 == 0 {
			if timed {
				l.traced++
			}
			l.step(reqs[0], i, timed, base)
			i++
		} else {
			i = l.plain(reqs, i, stretch-i%stretch)
		}
	}
	restart := func() error {
		var before, after runtime.MemStats
		if timed {
			l.acc = l.acc.add(l.read().sub(l.base))
			runtime.ReadMemStats(&before)
		}
		if err := l.build(); err != nil {
			return err
		}
		if timed {
			runtime.ReadMemStats(&after)
			l.rebuilt.alloc += after.TotalAlloc - before.TotalAlloc
			l.rebuilt.gcs += uint64(after.NumGC - before.NumGC)
			l.rebuilt.pauseNs += after.PauseTotalNs - before.PauseTotalNs
		}
		l.base = l.read()
		return nil
	}

	l.topDurs = make([]uint32, 0, maxRequests)
	l.spans = make([]spanRec, 0, maxSpans)
	// Collect garbage before the warm-up rather than after it, so the
	// timed phase starts with the collector already at its steady pace.
	freshHeap()
	base := time.Now()
	for time.Since(base) < warmup(seconds) || !w.boundary(l.ks, i) {
		if w.epochEnd(l.ks, i) {
			if err := restart(); err != nil {
				return l, err
			}
		}
		next(base)
	}
	warm := l.chk
	l.chk = checker{refused: slices.Clone(warm.refused)}
	l.topDurs, l.changed, l.errReqs, l.topKeys = l.topDurs[:0], nil, 0, 0
	l.probes, l.probeKeys, l.depth, l.fuse, l.depthN = 0, 0, 0, 0, 0
	for m := range l.wall {
		clear(l.wall[m])
		clear(l.n[m])
	}

	runtime.ReadMemStats(&l.mem0)
	l.base, timed = l.read(), true
	l.firstReq = i
	limit := time.Duration(seconds * float64(time.Second))
	for phase := time.Now(); len(l.topDurs) < cap(l.topDurs); {
		if time.Since(phase) >= limit && w.boundary(l.ks, i) {
			break
		}
		if w.epochEnd(l.ks, i) {
			if err := restart(); err != nil {
				return l, err
			}
		}
		next(phase)
	}
	runtime.ReadMemStats(&l.mem1)
	l.acc = l.acc.add(l.read().sub(l.base))

	eps := l.top().fpr()
	for _, c := range []*checker{&warm, &l.chk} {
		if err := c.err(eps); err != nil {
			return l, err
		}
	}
	if l.coreChk.falseNeg > 0 || l.coreChk.badRem > 0 {
		return l, fmt.Errorf("core twin: %w", l.coreChk.err(1))
	}
	return l, nil
}

// step sends request i through every rung, starting at rung i mod rungs.
func (l *ladder) step(req *request, i int, traced bool, base time.Time) {
	segs := req.fill(l.w, l.ks, i)
	nr := len(l.rungs)
	reqSpan := int32(-1)
	if traced && len(l.spans) < cap(l.spans) {
		reqSpan = int32(len(l.spans))
		l.spans = append(l.spans, spanRec{parent: -1, req: int32(i), start: int64(time.Since(base))})
	}
	for k := 0; k < nr; k++ {
		if ri := (i + k) % nr; ri == nr-1 {
			l.runTop(segs, i, traced, reqSpan, base)
		} else {
			l.runRung(ri, segs, i, traced, reqSpan, base)
		}
	}
	if reqSpan >= 0 {
		l.spans[reqSpan].end = int64(time.Since(base))
	}
}

// plain runs up to n requests from request i on the system alone, each
// timed and checked, then replays them untimed on the twins so every rung
// still receives the same operations. It stops where an epoch ends and
// returns the next request number.
func (l *ladder) plain(reqs []*request, i, n int) int {
	held := l.held[:0]
	for k := 0; k < n; k++ {
		if k > 0 && l.w.epochEnd(l.ks, i+k) {
			break
		}
		segs := reqs[k].fill(l.w, l.ks, i+k)
		l.runTop(segs, i+k, false, -1, time.Time{})
		held = append(held, segs)
	}
	for k, segs := range held {
		for ri := 0; ri < len(l.rungs)-1; ri++ {
			l.runRung(ri, segs, i+k, false, -1, time.Time{})
		}
	}
	l.held = held
	return i + len(held)
}

// runTop runs a request's segments on the system, the top rung, and books
// it; on a cascade it also notes whether the structure changed and samples
// the per-level probes.
func (l *ladder) runTop(segs []*segment, i int, traced bool, reqSpan int32, base time.Time) {
	casc, _ := l.top().(cascader)
	var sig, probes uint64
	if casc != nil {
		sig, probes = casc.sig(), casc.probes()
	}
	d := l.runRung(len(l.rungs)-1, segs, i, traced, reqSpan, base)
	changed := false
	if casc != nil {
		changed = casc.sig() != sig
		l.sampleCascade(casc, segs, probes, i)
	}
	l.record(i, traced, d, segs, changed)
}

// runRung runs a request's segments on rung ri and returns the time taken.
// Traced, it books each segment's time in cost and records a span. The
// core twin's answers are checked.
func (l *ladder) runRung(ri int, segs []*segment, i int, traced bool, reqSpan int32, base time.Time) time.Duration {
	t := l.rungs[ri].t
	t0 := time.Now()
	if traced {
		for _, s := range segs {
			ts := int64(time.Since(base))
			apply(t, s)
			te := int64(time.Since(base))
			c := &l.cost[ri][s.op]
			c.ns += te - ts
			c.keys += int64(len(s.keys))
			if reqSpan >= 0 && len(l.spans) < cap(l.spans) {
				l.spans = append(l.spans, spanRec{
					name: uint16(1 + ri*int(numOps) + int(s.op)), parent: reqSpan, req: int32(i), start: ts, end: te,
				})
			}
		}
	} else {
		for _, s := range segs {
			apply(t, s)
		}
	}
	d := time.Since(t0)
	if l.rungs[ri].name == "core" {
		for _, s := range segs {
			l.coreChk.segment(s)
		}
	}
	return d
}

// sampleCascade books the per-level probes of a lookup request and, every
// 16th cycle, the cascade's depth. Both reads happen outside the timed
// window.
func (l *ladder) sampleCascade(casc cascader, segs []*segment, before uint64, i int) {
	if segs[0].op != opContains {
		return
	}
	l.probes += casc.probes() - before
	l.probeKeys += uint64(keysOf(segs))
	if (i/len(l.w.pattern))%16 == 0 && i%len(l.w.pattern) == len(l.w.pattern)-1 {
		for _, lv := range casc.cascade().Levels {
			l.depth++
			if lv.Occupancy.SlotsPerBlock == 0 {
				l.fuse++
			}
		}
		l.depthN++
	}
}

// record books one request on the top rung.
func (l *ladder) record(i int, traced bool, d time.Duration, segs []*segment, changed bool) {
	m := 0
	if traced {
		m = 1
	}
	sh := i % len(l.w.pattern)
	l.wall[m][sh] += int64(d)
	l.n[m][sh]++
	if changed {
		l.changed = append(l.changed, len(l.topDurs))
	}
	l.topDurs = append(l.topDurs, clampNs(d))
	for _, s := range segs {
		if s.err != nil {
			l.errReqs++
			break
		}
	}
	for _, s := range segs {
		l.chk.segment(s)
		l.topKeys += int64(len(s.keys))
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics derives the per-layer metrics. A layer the workload does not
// pass through reports 0.
func (l *ladder) metrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	at := func(name string, o op) float64 {
		if i := l.rungIndex(name); i >= 0 {
			return l.cost[i][o].perKey()
		}
		return 0
	}
	hashPerKey := 0.0
	if i := l.rungIndex("hashing"); i >= 0 {
		var all cost
		for _, c := range l.cost[i] {
			all.ns += c.ns
			all.keys += c.keys
		}
		hashPerKey = all.perKey()
	}
	m["hashing.ns_per_key"] = hashPerKey
	facadeBelow := "core"
	if l.rungIndex("elastic") >= 0 {
		facadeBelow = "elastic"
	}
	for o := op(0); o < numOps; o++ {
		name := opNames[o]
		m["minifilter."+name+"_ns"] = at("minifilter", o)
		m["core."+name+"_ns_per_key"] = at("core", o)
		vqfSelf := at("vqf", o) - at(facadeBelow, o)
		if l.w.rawKeys {
			vqfSelf -= hashPerKey
		}
		m["vqf."+name+"_self_ns"] = vqfSelf
		if l.rungIndex("elastic") >= 0 {
			m["elastic."+name+"_self_ns"] = at("elastic", o) - at("core", o)
		}
	}
	m["core.shortcut_ratio"] = ratio(l.acc.shortcuts, l.acc.inserts)
	m["core.opt_retry_ratio"] = ratio(l.acc.optRetries, l.acc.optAttempts)

	if l.rungIndex("elastic") >= 0 {
		m["elastic.levels"] = ratio(l.depth, l.depthN)
		m["elastic.fuse_levels"] = ratio(l.fuse, l.depthN)
		m["elastic.compactions"] = float64(l.acc.compactions)
		m["elastic.freezes"] = float64(l.acc.freezes)
		m["elastic.thaws"] = float64(l.acc.thaws)
		m["elastic.probes_per_lookup"] = ratio(l.probes, l.probeKeys)
		m["elastic.stall_ms"] = l.stallMs()
	}
	if i := l.rungIndex("service"); i >= 0 && l.traced > 0 {
		var svc, lib int64
		for o := op(0); o < numOps; o++ {
			svc += l.cost[i][o].ns
			lib += l.cost[l.rungIndex("vqf")][o].ns
		}
		m["service.rtt_us"] = float64(svc) / float64(l.traced) / 1e3
		m["service.self_us_per_req"] = float64(svc-lib) / float64(l.traced) / 1e3
		m["service.error_ratio"] = float64(l.errReqs) / float64(len(l.topDurs))
	}

	m["runtime.gc_cycles"] = float64(uint64(l.mem1.NumGC-l.mem0.NumGC) - l.rebuilt.gcs)
	m["runtime.gc_pause_ms"] = float64(l.mem1.PauseTotalNs-l.mem0.PauseTotalNs-l.rebuilt.pauseNs) / 1e6
	m["runtime.alloc_bytes_per_key"] = float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc-l.rebuilt.alloc) / float64(l.topKeys)

	sorted := slices.Clone(l.topDurs)
	slices.Sort(sorted)
	m["driver.req_p99_us"] = quantile(sorted, 0.99) / 1e3
	m["driver.req_count"] = float64(len(sorted))
	m["check.fpr"] = l.chk.fprRatio()
	m["trace.overhead_pct"] = l.overheadPct()
	return m
}

// overheadPct compares the system's time per pattern cycle traced in the
// ladder with its time alone in plain stretches: how much the untraced
// throughput exceeds the traced, in percent.
func (l *ladder) overheadPct() float64 {
	var traced, plain float64
	for sh := range l.wall[0] {
		if l.n[0][sh] == 0 || l.n[1][sh] == 0 {
			return 0
		}
		plain += float64(l.wall[0][sh]) / float64(l.n[0][sh])
		traced += float64(l.wall[1][sh]) / float64(l.n[1][sh])
	}
	return (traced/plain - 1) * 100
}

// stallMs sums, over requests that changed the cascade's structure, the
// time beyond the median request of the same shape.
func (l *ladder) stallMs() float64 {
	np := len(l.w.pattern)
	byShape := make([][]float64, np)
	for j, d := range l.topDurs {
		sh := (l.firstReq + j) % np
		byShape[sh] = append(byShape[sh], float64(d))
	}
	med := make([]float64, np)
	for sh := range byShape {
		if len(byShape[sh]) > 0 {
			med[sh] = median(byShape[sh])
		}
	}
	var stall float64
	for _, j := range l.changed {
		sh := (l.firstReq + j) % np
		stall += max(0, float64(l.topDurs[j])-med[sh])
	}
	return stall / 1e6
}

// writeSpans writes the recorded spans as JSON lines.
func (l *ladder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Req    int32  `json:"req"`
		}{l.names[s.name], s.start, s.end, s.parent, s.req}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
