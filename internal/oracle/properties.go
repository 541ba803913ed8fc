package oracle

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"vqf"
	"vqf/internal/elastic"
)

// A Property is one equivalence check replayed over (subject, trace) pairs.
type Property struct {
	Name string
	// Applies filters the subject set; nil means every subject.
	Applies func(Subject) bool
	Check   func(Subject, Trace) error
}

// Properties returns the oracle's seven equivalence properties.
func Properties() []Property {
	return []Property{
		{Name: "differential", Check: checkDifferential},
		{Name: "batch-equiv", Applies: hasAnyBatch, Check: checkBatchEquivalence},
		{Name: "optimistic-equiv", Applies: func(s Subject) bool { return s.Concurrent }, Check: checkOptimisticEquivalence},
		{Name: "serialize-identity", Applies: func(s Subject) bool { return s.Name == "filter8" }, Check: checkSerializeIdentity},
		{Name: "elastic-equiv", Applies: func(s Subject) bool { return s.Name == "elastic" }, Check: checkElasticEquivalence},
		{Name: "iterate-rebuild", Applies: hasIterate, Check: checkIterateRebuild},
		{Name: "freeze-equiv", Applies: hasFreeze, Check: checkFreezeEquivalence},
	}
}

// PropertyByName resolves a repro header's property.
func PropertyByName(name string) (Property, error) {
	for _, p := range Properties() {
		if p.Name == name {
			return p, nil
		}
	}
	return Property{}, fmt.Errorf("oracle: unknown property %q", name)
}

func hasAnyBatch(s Subject) bool {
	inst, err := s.New(1024)
	if err != nil {
		return false
	}
	if _, ok := inst.(insertBatcher); ok {
		return true
	}
	if _, ok := inst.(containsBatcher); ok {
		return true
	}
	return false
}

// hashIterator is the fingerprint-iteration surface the core VQF filters
// expose: yield every stored fingerprint as a canonical hash that range-
// reduces back to the same (block, bucket, fingerprint).
type hashIterator interface {
	IterateHashes(yield func(h uint64) bool) bool
}

func hasIterate(s Subject) bool {
	inst, err := s.New(1024)
	if err != nil {
		return false
	}
	_, ok := inst.(hashIterator)
	return ok
}

// checkIterateRebuild replays the trace, then iterates the end-state filter
// and re-inserts every yielded canonical hash into a fresh instance of the
// same subject. The rebuild must accept every hash, hold exactly the same
// count, and answer positive for every key the original held — the
// iterator's contract is that its output is a lossless re-insertable image
// of the stored fingerprints.
func checkIterateRebuild(s Subject, tr Trace) error {
	inst, err := s.New(tr.NSlots)
	if err != nil {
		return fmt.Errorf("constructing %s(%d): %v", s.Name, tr.NSlots, err)
	}
	m := newModel()
	if err := replay(s, inst, m, tr); err != nil {
		return err
	}
	src := inst.(hashIterator)
	dst, err := s.New(tr.NSlots)
	if err != nil {
		return fmt.Errorf("constructing rebuild target: %v", err)
	}
	var insertFail error
	n := uint64(0)
	src.IterateHashes(func(h uint64) bool {
		if !dst.Insert(h) {
			insertFail = fmt.Errorf("rebuild rejected yielded hash %#x at count %d", h, n)
			return false
		}
		n++
		return true
	})
	if insertFail != nil {
		return insertFail
	}
	if dst.Count() != inst.Count() {
		return fmt.Errorf("rebuild holds %d fingerprints, source %d", dst.Count(), inst.Count())
	}
	for _, k := range m.liveKeys() {
		if !dst.Contains(k) {
			return fmt.Errorf("rebuild lost live key %#x", k)
		}
	}
	return nil
}

// freezer is the frozen-tier surface the elastic cascades expose: rebuild
// qualifying retired levels into immutable fuse levels.
type freezer interface {
	FreezeNow() elastic.FreezeResult
}

func hasFreeze(s Subject) bool {
	inst, err := s.New(1024)
	if err != nil {
		return false
	}
	_, ok := inst.(freezer)
	return ok
}

// checkFreezeEquivalence is the frozen tier's ground-truth property: replay
// the trace, force a full freeze pass, and the cascade must still be
// semantically the same filter — no false negative for any live key, the
// exact model count, and fresh-key FPR within the budget allowance. Then
// remove half the live keys (every one must succeed against the now-frozen
// tier, tombstones included, possibly thawing levels back to VQF) and audit
// the surviving half plus the exact count again.
func checkFreezeEquivalence(s Subject, tr Trace) error {
	inst, err := s.New(tr.NSlots)
	if err != nil {
		return fmt.Errorf("constructing %s(%d): %v", s.Name, tr.NSlots, err)
	}
	m := newModel()
	if err := replay(s, inst, m, tr); err != nil {
		return err
	}
	inst.(freezer).FreezeNow()
	live := m.liveKeys()
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, k := range live {
		if !inst.Contains(k) {
			return fmt.Errorf("post-freeze false negative for live key %#x", k)
		}
	}
	if got, want := inst.Count(), uint64(m.count()); got != want {
		return fmt.Errorf("post-freeze Count() = %d, exact model holds %d", got, want)
	}
	if s.FPRBound > 0 {
		hits := 0
		for i := 0; i < fprProbes; i++ {
			if inst.Contains(probeKeyFor(tr.NSlots^0xf0e2, i)) {
				hits++
			}
		}
		if limit := int(4*s.FPRBound*fprProbes) + 10; hits > limit {
			return fmt.Errorf("post-freeze %d/%d fresh-key hits, limit %d (bound %g)",
				hits, fprProbes, limit, s.FPRBound)
		}
	}
	// Remove half the live keys: each must land exactly once (the frozen
	// tier's vault keeps removes exact), and enough of them pushes fuse
	// levels through their tombstone threshold and back to VQF.
	cut := len(live) / 2
	for _, k := range live[:cut] {
		if !inst.Remove(k) {
			return fmt.Errorf("post-freeze remove of live key %#x failed", k)
		}
		m.remove(k)
	}
	if got, want := inst.Count(), uint64(m.count()); got != want {
		return fmt.Errorf("post-thaw Count() = %d, exact model holds %d", got, want)
	}
	for _, k := range live[cut:] {
		if !inst.Contains(k) {
			return fmt.Errorf("post-thaw false negative for live key %#x", k)
		}
	}
	return nil
}

// replay drives one instance and the exact model through the trace,
// enforcing replay closure: removes of non-live keys are skipped on both
// sides, and inserts the filter rejects are left out of the model. Query ops
// assert the no-false-negative guarantee as they go.
func replay(s Subject, inst Instance, m *model, tr Trace) error {
	for i, op := range tr.Ops {
		switch op.Kind {
		case OpInsert:
			if inst.Insert(op.Key) {
				m.insert(op.Key)
			} else if !m.live(op.Key) && m.count() < int(tr.NSlots)/2 {
				// A fresh key failing far below capacity is a bug. A
				// duplicate failing is not: fingerprint filters bound how
				// many identical copies two candidate buckets can hold
				// (cuckoo-family: 2×bucket-cap), so a rejected duplicate is
				// within contract — the model simply doesn't record it.
				return fmt.Errorf("op %d: insert of %#x failed at %d/%d live keys, far below capacity",
					i, op.Key, m.count(), tr.NSlots)
			}
		case OpRemove:
			if s.NoRemove || !m.live(op.Key) {
				continue
			}
			if !inst.Remove(op.Key) {
				return fmt.Errorf("op %d: remove of live key %#x failed", i, op.Key)
			}
			m.remove(op.Key)
		case OpQuery:
			if m.live(op.Key) && !inst.Contains(op.Key) {
				return fmt.Errorf("op %d: false negative for live key %#x", i, op.Key)
			}
		}
	}
	return nil
}

// fprProbes is the fresh-key sample size for the false-positive check.
const fprProbes = 20000

// checkDifferential is the ground-truth property: replay the trace against
// the exact model, then audit the end state — every live key answers
// positive, the stored count matches the model exactly, and the
// false-positive rate over fresh keys stays within 4× the variant's bound
// plus a 10-hit allowance (never flaky, still catches broken hashing).
func checkDifferential(s Subject, tr Trace) error {
	inst, err := s.New(tr.NSlots)
	if err != nil {
		return fmt.Errorf("constructing %s(%d): %v", s.Name, tr.NSlots, err)
	}
	m := newModel()
	if err := replay(s, inst, m, tr); err != nil {
		return err
	}
	for _, k := range m.liveKeys() {
		if !inst.Contains(k) {
			return fmt.Errorf("end state: false negative for live key %#x", k)
		}
	}
	if got, want := inst.Count(), uint64(m.count()); got != want {
		return fmt.Errorf("end state: Count() = %d, exact model holds %d", got, want)
	}
	if s.FPRBound > 0 {
		hits := 0
		for i := 0; i < fprProbes; i++ {
			if inst.Contains(probeKeyFor(tr.NSlots, i)) {
				hits++
			}
		}
		if limit := int(4*s.FPRBound*fprProbes) + 10; hits > limit {
			return fmt.Errorf("end state: %d/%d fresh-key hits, limit %d (bound %g)",
				hits, fprProbes, limit, s.FPRBound)
		}
	}
	return nil
}

// checkBatchEquivalence: batch operations must be semantically equivalent to
// one-at-a-time operations. Two sub-checks: (a) on the very same instance,
// ContainsBatch must agree elementwise with per-key Contains — bit-exact,
// false positives included; (b) a twin instance fed the trace through the
// batch APIs must hold the same key multiset as the one fed per-op: equal
// counts and no false negatives for live keys. Physical placement may differ
// (parallel and sharded batches reorder inserts), so absent-key answers are
// not compared across twins.
func checkBatchEquivalence(s Subject, tr Trace) error {
	single, err := s.New(tr.NSlots)
	if err != nil {
		return err
	}
	batched, err := s.New(tr.NSlots)
	if err != nil {
		return err
	}
	m := newModel()
	if err := replay(s, single, m, tr); err != nil {
		return fmt.Errorf("per-op replay: %w", err)
	}

	bm := newModel()
	ib, canIB := batched.(insertBatcher)
	rb, canRB := batched.(removeBatcher)
	run := make([]uint64, 0, len(tr.Ops))
	flush := func(kind OpKind) error {
		if len(run) == 0 {
			return nil
		}
		defer func() { run = run[:0] }()
		switch kind {
		case OpInsert:
			var n int
			if canIB {
				n = ib.InsertBatch(run)
			} else {
				for _, k := range run {
					if batched.Insert(k) {
						n++
					}
				}
			}
			if n != len(run) {
				return fmt.Errorf("batch insert of %d keys stored %d below capacity", len(run), n)
			}
			for _, k := range run {
				bm.insert(k)
			}
		case OpRemove:
			var n int
			if canRB {
				n = rb.RemoveBatch(run)
			} else {
				for _, k := range run {
					if batched.Remove(k) {
						n++
					}
				}
			}
			if n != len(run) {
				return fmt.Errorf("batch remove of %d live keys removed %d", len(run), n)
			}
			for _, k := range run {
				bm.remove(k)
			}
		}
		return nil
	}
	// Runs of consecutive same-kind ops flush as one batch call. Remove
	// eligibility must account for the un-flushed run: pending inserts make a
	// key removable, pending removes use up its copies.
	var pendingKind OpKind
	pending := make(map[uint64]int)
	for _, op := range tr.Ops {
		kind := op.Kind
		if kind == OpQuery {
			continue // queries are checked against the end state below
		}
		if kind == OpRemove {
			if s.NoRemove {
				continue
			}
			avail := bm.counts[op.Key]
			switch pendingKind {
			case OpInsert:
				avail += pending[op.Key]
			case OpRemove:
				avail -= pending[op.Key]
			}
			if avail <= 0 {
				continue
			}
		}
		if kind != pendingKind {
			if err := flush(pendingKind); err != nil {
				return err
			}
			clear(pending)
			pendingKind = kind
		}
		run = append(run, op.Key)
		pending[op.Key]++
	}
	if err := flush(pendingKind); err != nil {
		return err
	}

	if sc, bc := single.Count(), batched.Count(); sc != bc {
		return fmt.Errorf("per-op count %d != batched count %d", sc, bc)
	}
	live := m.liveKeys()
	for _, k := range live {
		if !batched.Contains(k) {
			return fmt.Errorf("batched twin: false negative for live key %#x", k)
		}
	}
	// Sub-check (a): same instance, batch vs per-key lookup, bit-exact.
	if cb, ok := batched.(containsBatcher); ok {
		probes := append([]uint64(nil), live...)
		for i := 0; i < 1024; i++ {
			probes = append(probes, probeKeyFor(tr.NSlots^0x5a5a, i))
		}
		got := cb.ContainsBatch(probes, nil)
		for i, k := range probes {
			if want := batched.Contains(k); got[i] != want {
				return fmt.Errorf("ContainsBatch[%d] (%#x) = %v, per-key Contains = %v", i, k, got[i], want)
			}
		}
	}
	return nil
}

// checkOptimisticEquivalence: under concurrent churn of disjoint keys, the
// optimistic (seqlock) read path and the locked read path must both uphold
// the no-false-negative guarantee for pinned keys — keys inserted before the
// churn and never removed. A torn or stale optimistic read that slips past
// the version check shows up here as a pinned-key miss.
func checkOptimisticEquivalence(s Subject, tr Trace) error {
	inst, err := s.New(tr.NSlots)
	if err != nil {
		return err
	}
	pinned := make([]uint64, 0, 512)
	seen := make(map[uint64]bool)
	for _, op := range tr.Ops {
		if op.Kind == OpInsert && !seen[op.Key] && len(pinned) < 512 {
			seen[op.Key] = true
			pinned = append(pinned, op.Key)
		}
	}
	for _, k := range pinned {
		if !inst.Insert(k) {
			return fmt.Errorf("pinning insert of %#x failed below capacity", k)
		}
	}
	lr, hasLocked := inst.(lockedReader)

	const churners = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := splitmix64{state: uint64(id)*0x9e3779b97f4a7c15 + 1}
			local := make([]uint64, 0, 64)
			for !stop.Load() {
				if len(local) < 64 && rng.next()%3 != 0 {
					k := probeKeyFor(uint64(id)<<32|0xc0ffee, int(rng.next()%1_000_000))
					if seen[k] {
						continue // never collide with a pinned key
					}
					if inst.Insert(k) {
						local = append(local, k)
					}
				} else if len(local) > 0 {
					inst.Remove(local[len(local)-1])
					local = local[:len(local)-1]
				}
			}
			for _, k := range local {
				inst.Remove(k)
			}
		}(w)
	}
	var failure error
	for round := 0; round < 60 && failure == nil; round++ {
		for _, k := range pinned {
			if !inst.Contains(k) {
				failure = fmt.Errorf("optimistic read lost pinned key %#x during churn", k)
				break
			}
			if hasLocked && !lr.ContainsLocked(k) {
				failure = fmt.Errorf("locked read lost pinned key %#x during churn", k)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if failure != nil {
		return failure
	}
	// Quiesced: both read paths must agree exactly, and pinned keys remain.
	for _, k := range pinned {
		opt := inst.Contains(k)
		if !opt {
			return fmt.Errorf("pinned key %#x missing after churn quiesced", k)
		}
		if hasLocked && lr.ContainsLocked(k) != opt {
			return fmt.Errorf("quiesced read paths disagree on %#x", k)
		}
	}
	return nil
}

// checkSerializeIdentity: serialize→deserialize must be the identity for all
// three envelope kinds (Filter, Map, Elastic). The reloaded instance must
// answer every probe — live, removed and fresh — exactly as the original,
// false positives included, and re-serializing must produce the identical
// byte stream.
func checkSerializeIdentity(_ Subject, tr Trace) error {
	m := newModel()

	filt := vqf.New(tr.NSlots)
	vmap := vqf.NewMap(tr.NSlots)
	el := vqf.NewElastic(vqf.WithInitialCapacity(1024), vqf.WithFalsePositiveRate(1.0/128))
	for _, op := range tr.Ops {
		switch op.Kind {
		case OpInsert:
			if err := filt.AddHash(op.Key); err != nil {
				return fmt.Errorf("filter AddHash: %v", err)
			}
			if err := vmap.PutHash(op.Key, byte(op.Key>>7)); err != nil {
				return fmt.Errorf("map PutHash: %v", err)
			}
			if err := el.AddHash(op.Key); err != nil {
				return fmt.Errorf("elastic AddHash: %v", err)
			}
			m.insert(op.Key)
		case OpRemove:
			if !m.live(op.Key) {
				continue
			}
			filt.RemoveHash(op.Key)
			vmap.DeleteHash(op.Key)
			el.RemoveHash(op.Key)
			m.remove(op.Key)
		}
	}

	probes := m.liveKeys()
	for i := 0; i < 2048; i++ {
		probes = append(probes, probeKeyFor(tr.NSlots^0x7e57, i))
	}

	// Kind 1: Filter.
	var buf bytes.Buffer
	if _, err := filt.WriteTo(&buf); err != nil {
		return fmt.Errorf("filter serialize: %v", err)
	}
	stream := buf.Bytes()
	filt2, err := vqf.Read(bytes.NewReader(stream))
	if err != nil {
		return fmt.Errorf("filter deserialize: %v", err)
	}
	if filt2.Count() != filt.Count() {
		return fmt.Errorf("filter count changed across round-trip: %d -> %d", filt.Count(), filt2.Count())
	}
	for _, k := range probes {
		if filt.ContainsHash(k) != filt2.ContainsHash(k) {
			return fmt.Errorf("filter answers differ for %#x after round-trip", k)
		}
	}
	var buf2 bytes.Buffer
	if _, err := filt2.WriteTo(&buf2); err != nil {
		return fmt.Errorf("filter re-serialize: %v", err)
	}
	if !bytes.Equal(stream, buf2.Bytes()) {
		return fmt.Errorf("filter re-serialization is not byte-identical")
	}

	// Kind 2: Map (membership and stored values).
	buf.Reset()
	if _, err := vmap.WriteTo(&buf); err != nil {
		return fmt.Errorf("map serialize: %v", err)
	}
	vmap2, err := vqf.NewMapFromReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("map deserialize: %v", err)
	}
	for _, k := range probes {
		v1, ok1 := vmap.GetHash(k)
		v2, ok2 := vmap2.GetHash(k)
		if ok1 != ok2 || v1 != v2 {
			return fmt.Errorf("map answers differ for %#x after round-trip: (%d,%v) vs (%d,%v)",
				k, v1, ok1, v2, ok2)
		}
	}

	// Kind 3: Elastic.
	buf.Reset()
	if _, err := el.WriteTo(&buf); err != nil {
		return fmt.Errorf("elastic serialize: %v", err)
	}
	el2, err := vqf.ReadElastic(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("elastic deserialize: %v", err)
	}
	if el2.Count() != el.Count() || el2.Levels() != el.Levels() {
		return fmt.Errorf("elastic shape changed across round-trip: %d keys/%d levels -> %d/%d",
			el.Count(), el.Levels(), el2.Count(), el2.Levels())
	}
	for _, k := range probes {
		if el.ContainsHash(k) != el2.ContainsHash(k) {
			return fmt.Errorf("elastic answers differ for %#x after round-trip", k)
		}
	}
	return nil
}

// checkElasticEquivalence: a cascade that grew through several levels must be
// semantically equivalent to one flat filter holding the same keyset — same
// count, no false negatives — and its false-positive rate must honor the
// configured whole-cascade budget (the per-level budgets εᵢ = ε(1−r)rⁱ sum
// to at most ε), within the same 4× statistical allowance as the
// differential check.
func checkElasticEquivalence(s Subject, tr Trace) error {
	casc, err := s.New(tr.NSlots)
	if err != nil {
		return err
	}
	// The flat reference is a 16-bit core filter sized for the whole trace:
	// its FPR (≈2⁻¹⁵) is far below the cascade budget, so any reference miss
	// is a genuine false negative, not comparator noise.
	flat, err := SubjectByName("filter16")
	if err != nil {
		return err
	}
	ref, err := flat.New(tr.NSlots)
	if err != nil {
		return err
	}
	m := newModel()
	for i, op := range tr.Ops {
		switch op.Kind {
		case OpInsert:
			if !casc.Insert(op.Key) {
				return fmt.Errorf("op %d: cascade insert of %#x failed (growth should absorb it)", i, op.Key)
			}
			if !ref.Insert(op.Key) {
				return fmt.Errorf("op %d: reference insert of %#x failed", i, op.Key)
			}
			m.insert(op.Key)
		case OpRemove:
			if !m.live(op.Key) {
				continue
			}
			if !casc.Remove(op.Key) {
				return fmt.Errorf("op %d: cascade remove of live key %#x failed", i, op.Key)
			}
			ref.Remove(op.Key)
			m.remove(op.Key)
		case OpQuery:
			if m.live(op.Key) && !casc.Contains(op.Key) {
				return fmt.Errorf("op %d: cascade false negative for live key %#x", i, op.Key)
			}
		}
	}
	if cc, rc := casc.Count(), ref.Count(); cc != rc {
		return fmt.Errorf("cascade count %d != flat reference count %d", cc, rc)
	}
	for _, k := range m.liveKeys() {
		if !casc.Contains(k) {
			return fmt.Errorf("cascade false negative for live key %#x", k)
		}
		if !ref.Contains(k) {
			return fmt.Errorf("flat reference false negative for live key %#x", k)
		}
	}
	hits := 0
	for i := 0; i < fprProbes; i++ {
		if casc.Contains(probeKeyFor(tr.NSlots^0xe1a5, i)) {
			hits++
		}
	}
	if limit := int(4*s.FPRBound*fprProbes) + 10; hits > limit {
		return fmt.Errorf("cascade FPR %d/%d exceeds budget limit %d (ε=%g)",
			hits, fprProbes, limit, s.FPRBound)
	}
	return nil
}
