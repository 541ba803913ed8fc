package elastic

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vqf/internal/core"
	"vqf/internal/fuse"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// Frozen tier. A cascade's old levels are read-mostly after churn, yet each
// keeps paying the VQF's ~25% metadata overhead for update support nobody
// uses anymore. Freezing rebuilds a run of frozen VQF levels into ONE
// immutable binary-fuse level (internal/fuse, ~1.08× entropy overhead),
// keyed by the pair-representative canonical hash (core.Geometry.Fold): both
// candidate blocks of a key map to the same representative, so a membership
// probe costs a single 3-segment fuse lookup instead of two VQF block scans.
//
// FPR accounting: the fuse level inherits the SUM of its sources' budgets
// εf = Σ εᵢ, preserving the cascade invariant Σ budgets + reclaimed ≤ ε.
// Its analytic FPR has two independent terms, each held to εf/2 by planning:
//
//   - canonical collisions: a negative key folds onto one of roughly
//     foldBlocks·buckets·2^srcBits/2 representatives, so colliding with one
//     of the D stored representatives happens with probability
//     ≈ 2·D/(foldBlocks·buckets·2^srcBits) — this is exact membership noise
//     the VQF sources had too (it is their fingerprint collision rate);
//   - fuse fingerprint collisions: 2⁻ʷ for width w ∈ {8, 16}; the planner
//     picks the narrowest width that fits.
//
// Remove semantics: the fuse structure is immutable, so removes go to a
// per-key tombstone ledger bounded by the exact key multiset (the "vault", a
// delta-varint-compressed sorted array of packed keys kept alongside the
// fuse filter — ~⌈log₂ keyspace⌉−6 bits/key). The vault makes Remove exact:
// a fuse false positive can never decrement Count or tombstone a ghost key.
// When tombstones reach ¼ of the frozen population the level thaws — it is
// rebuilt into a right-sized live VQF level (or re-fused without the dead
// keys when the survivors no longer fit the VQF geometry under the fold
// bound).
//
// Freezing and thawing run through the same structural-op engine as
// compaction (see restructure): seal the sources and publish the removal
// log, build off-lock, then reconcile the log and swap the level list. The
// fuse level's CountAtBlock/CandidateBlocks are defined so reconcile's
// count-differencing is exact in both directions (freeze: fuse as
// destination; thaw: fuse as source): a key's instances are "located" only
// at its representative block.

// fuseTag offsets a fuse level's on-disk kind tag from its source
// geometry's fingerprint width: fuse levels are tagged 108 and 116, apart
// from the VQF tags 8 and 16, so a reader can tell the tiers apart.
const fuseTag = 100

// thawNum/thawDen: a fuse level thaws once tombstones cover ≥ 1/4 of the
// population it froze with.
const (
	thawNum = 1
	thawDen = 4
)

// FreezeResult summarizes one FreezeNow call.
type FreezeResult struct {
	// LevelsBefore and LevelsAfter are the cascade depths around the call.
	LevelsBefore int
	LevelsAfter  int
	// LevelsFrozen is the number of source VQF levels rebuilt into fuse
	// levels or dropped empty (0 when no run qualified).
	LevelsFrozen int
	// FuseLevels is the number of immutable fuse levels produced.
	FuseLevels int
}

// tombstone tracks removes against one frozen key. base is the instance
// count at freeze time (immutable); removed counts successful removes,
// never exceeding base (CAS-guarded), so a key can only be removed as many
// times as it was frozen — the exactness the mutable VQF levels guarantee
// by physically deleting fingerprints.
type tombstone struct {
	base    uint64
	removed atomic.Uint64
}

// vaultBlock is the vault's delta-compression block size: one absolute
// anchor per vaultBlock keys, varint deltas between.
const vaultBlock = 64

// vault is the exact sorted multiset support of a fuse level: every
// distinct packed key, delta-varint compressed. It exists because the fuse
// filter alone is approximate — Remove and reconciliation need exact
// instance counts, and thaw needs the keys back.
type vault struct {
	n     int
	index []uint64 // anchor (first packed key) of each block
	offs  []uint32 // byte offset of each block's delta stream in data
	data  []byte
}

// buildVault compresses a sorted slice of distinct packed keys.
func buildVault(sorted []uint64) vault {
	v := vault{n: len(sorted)}
	if v.n == 0 {
		return v
	}
	nb := (v.n + vaultBlock - 1) / vaultBlock
	v.index = make([]uint64, 0, nb)
	v.offs = make([]uint32, 0, nb)
	var buf [binary.MaxVarintLen64]byte
	for i, p := range sorted {
		if i%vaultBlock == 0 {
			v.index = append(v.index, p)
			v.offs = append(v.offs, uint32(len(v.data)))
			continue
		}
		n := binary.PutUvarint(buf[:], p-sorted[i-1])
		v.data = append(v.data, buf[:n]...)
	}
	return v
}

// contains reports whether packed key p is in the vault: binary search over
// the block anchors, then a short delta scan within one block.
func (v *vault) contains(p uint64) bool {
	i := sort.Search(len(v.index), func(i int) bool { return v.index[i] > p }) - 1
	if i < 0 {
		return false
	}
	cur := v.index[i]
	if cur == p {
		return true
	}
	hi := (i + 1) * vaultBlock
	if hi > v.n {
		hi = v.n
	}
	data := v.data[v.offs[i]:]
	for j := i*vaultBlock + 1; j < hi; j++ {
		d, n := binary.Uvarint(data)
		data = data[n:]
		cur += d
		if cur >= p {
			return cur == p
		}
	}
	return false
}

// iterate yields every packed key in ascending order; returns false if
// yield stopped early.
func (v *vault) iterate(yield func(p uint64) bool) bool {
	data := v.data
	var cur uint64
	for i := 0; i < v.n; i++ {
		if i%vaultBlock == 0 {
			cur = v.index[i/vaultBlock]
		} else {
			d, n := binary.Uvarint(data)
			data = data[n:]
			cur += d
		}
		if !yield(cur) {
			return false
		}
	}
	return true
}

func (v *vault) sizeBytes() uint64 {
	return uint64(len(v.data)) + 8*uint64(len(v.index)) + 4*uint64(len(v.offs))
}

// fuseLevel is the immutable coreFilter of a frozen cascade level: a binary
// fuse filter over pair-representative canonical keys, the exact vault, a
// duplicate-instance map (a VQF level is a multiset), and the tombstone
// ledger for removes. All structure except the tombstones is immutable
// after construction, so Contains is lock-free by construction.
type fuseLevel struct {
	// src is the source VQF geometry whose canonical key space the fold
	// keys live in.
	src *core.Geometry
	// foldBlocks/foldMask is the fold geometry: the minimum block count of
	// the frozen run (the destination mask must be a suffix of every source
	// mask; see internal/core/iterate.go).
	foldBlocks uint64
	foldMask   uint64

	f *fuse.Filter

	vault vault
	// dupes maps packed keys stored more than once to their extra instance
	// count (instances − 1). Usually empty: duplicates require inserting
	// the same key twice or a source-level fingerprint collision.
	dupes map[uint64]uint32

	// baseTotal is the frozen instance total; live = baseTotal − tombTotal.
	baseTotal uint64
	live      atomic.Uint64
	tombTotal atomic.Uint64
	tombs     sync.Map // packed key → *tombstone

	ops stats.Striped
}

// newFuseLevel builds the immutable structures from the folded canonical
// keys of a frozen run (one per stored instance, duplicates allowed; the
// slice is consumed as scratch).
func newFuseLevel(src *core.Geometry, fpBits uint8, foldBlocks uint64, keys []uint64) (*fuseLevel, error) {
	l := &fuseLevel{
		src:        src,
		foldBlocks: foldBlocks,
		foldMask:   foldBlocks - 1,
		baseTotal:  uint64(len(keys)),
	}
	packed := make([]uint64, len(keys))
	for i, k := range keys {
		packed[i] = l.pack(k)
	}
	sort.Slice(packed, func(i, j int) bool { return packed[i] < packed[j] })
	w := 0
	for _, p := range packed {
		if w > 0 && p == packed[w-1] {
			if l.dupes == nil {
				l.dupes = make(map[uint64]uint32)
			}
			l.dupes[p]++
			continue
		}
		packed[w] = p
		w++
	}
	distinct := packed[:w]
	ck := keys[:0]
	for _, p := range distinct {
		ck = append(ck, l.unpack(p))
	}
	var err error
	if l.f, err = fuse.Build(ck, fpBits); err != nil {
		return nil, err
	}
	l.vault = buildVault(distinct)
	l.live.Store(l.baseTotal)
	return l, nil
}

// key folds a raw hash to its pair-representative canonical key.
func (l *fuseLevel) key(h uint64) uint64 { return l.src.Fold(h, l.foldMask) }

// blockOf extracts a canonical key's (representative) block index.
func (l *fuseLevel) blockOf(k uint64) uint64 { return k >> l.src.BlockShift }

// pack maps a canonical key to a dense integer (core.Geometry.Pack),
// which keeps vault deltas small and freeze-time key streams nearly
// sorted.
func (l *fuseLevel) pack(k uint64) uint64 { return l.src.Pack(k) }

// unpack inverts pack back to the canonical key.
func (l *fuseLevel) unpack(p uint64) uint64 { return l.src.Unpack(p) }

// instances returns how many instances of packed key p were frozen (0 when
// p is not in the vault — exact, immune to fuse false positives).
func (l *fuseLevel) instances(p uint64) uint64 {
	if !l.vault.contains(p) {
		return 0
	}
	n := uint64(1)
	if extra, ok := l.dupes[p]; ok {
		n += uint64(extra)
	}
	return n
}

// netOf returns p's surviving instance count: frozen minus tombstoned.
func (l *fuseLevel) netOf(p uint64) uint64 {
	n := l.instances(p)
	if n == 0 {
		return 0
	}
	if ti, ok := l.tombs.Load(p); ok {
		r := ti.(*tombstone).removed.Load()
		if r >= n {
			return 0
		}
		n -= r
	}
	return n
}

// tombAlive reports whether canonical key k is NOT fully tombstoned. Keys
// absent from the vault (fuse false positives) report alive — they were
// already a false positive within budget, and have no ledger entry.
func (l *fuseLevel) tombAlive(k uint64) bool {
	p := l.pack(k)
	if ti, ok := l.tombs.Load(p); ok {
		t := ti.(*tombstone)
		if t.removed.Load() >= t.base {
			return false
		}
	}
	return true
}

// needsThaw reports whether the tombstone ledger crossed the thaw
// threshold.
func (l *fuseLevel) needsThaw() bool { return l.thawDueAt(l.tombTotal.Load()) }

// thawDueAt is the thaw predicate at tomb tombstones.
func (l *fuseLevel) thawDueAt(tomb uint64) bool {
	return l.baseTotal > 0 && tomb*thawDen >= l.baseTotal*thawNum
}

// Insert always fails: the level is immutable. The cascade never routes
// inserts here (only the newest level takes inserts, and a fuse level is
// never newest), so this is a defensive backstop.
func (l *fuseLevel) Insert(h uint64) bool { return false }

// Contains probes the fuse filter with the folded key — one lookup covers
// both VQF candidate blocks — then consults the tombstone ledger only when
// tombstones exist (the common frozen level skips it with one atomic load).
func (l *fuseLevel) Contains(h uint64) bool {
	k := l.key(h)
	l.ops.Lookup(l.blockOf(k))
	if !l.f.Contains(k) {
		return false
	}
	if l.tombTotal.Load() == 0 {
		return true
	}
	return l.tombAlive(k)
}

// ContainsBatch folds a tile of keys, probes the
// fuse filter's batched path, then rechecks positives against tombstones.
func (l *fuseLevel) ContainsBatch(hs []uint64, dst []bool) []bool {
	if cap(dst) < len(hs) {
		dst = make([]bool, len(hs))
	}
	out := dst[:len(hs)]
	var tile [256]uint64
	tombs := l.tombTotal.Load() > 0
	for base := 0; base < len(hs); base += len(tile) {
		n := len(hs) - base
		if n > len(tile) {
			n = len(tile)
		}
		for i := 0; i < n; i++ {
			tile[i] = l.key(hs[base+i])
		}
		chunk := out[base : base+n]
		l.f.ContainsBatch(tile[:n], chunk)
		if tombs {
			for i := 0; i < n; i++ {
				if chunk[i] {
					chunk[i] = l.tombAlive(tile[i])
				}
			}
		}
	}
	l.ops.Batch(len(hs))
	return out
}

// Remove tombstones one instance of h. The vault lookup makes it exact: a
// fuse false positive (no vault entry) is a miss, and the CAS loop caps
// removes at the frozen instance count, so Count can never drift below the
// true population.
func (l *fuseLevel) Remove(h uint64) bool {
	k := l.key(h)
	sel := l.blockOf(k)
	if !l.f.Contains(k) {
		l.ops.RemoveMiss(sel)
		return false
	}
	p := l.pack(k)
	inst := l.instances(p)
	if inst == 0 {
		l.ops.RemoveMiss(sel)
		return false
	}
	ti, ok := l.tombs.Load(p)
	if !ok {
		ti, _ = l.tombs.LoadOrStore(p, &tombstone{base: inst})
	}
	t := ti.(*tombstone)
	for {
		r := t.removed.Load()
		if r >= t.base {
			l.ops.RemoveMiss(sel)
			return false
		}
		if t.removed.CompareAndSwap(r, r+1) {
			l.tombTotal.Add(1)
			l.live.Add(^uint64(0))
			l.ops.Remove(sel)
			return true
		}
	}
}

// Count returns the surviving (non-tombstoned) instance count.
func (l *fuseLevel) Count() uint64 { return l.live.Load() }

// Capacity is the frozen population: the level is born full and only
// shrinks, so load factor = live/baseTotal ∈ [0, 1].
func (l *fuseLevel) Capacity() uint64 { return l.baseTotal }

// SizeBytes covers the immutable structures (fuse array + vault); the
// tombstone ledger is transient thaw-bounded state.
func (l *fuseLevel) SizeBytes() uint64 { return l.f.SizeBytes() + l.vault.sizeBytes() }

func (l *fuseLevel) Stats() stats.OpCounts { return l.ops.Counts() }

// BlockOccupancies returns nil: a fuse level has no slot geometry.
func (l *fuseLevel) BlockOccupancies() []uint { return nil }

// SlotsPerBlock returns 0: no slot geometry.
func (l *fuseLevel) SlotsPerBlock() uint { return 0 }

// IterateHashes yields each surviving key instance's canonical hash —
// already the pair representative under foldMask, so reinsertion into any
// xor-linked filter with ≤ foldBlocks blocks reproduces membership exactly.
func (l *fuseLevel) IterateHashes(yield func(h uint64) bool) bool {
	ok := true
	l.vault.iterate(func(p uint64) bool {
		n := uint64(1)
		if extra, dup := l.dupes[p]; dup {
			n += uint64(extra)
		}
		if ti, found := l.tombs.Load(p); found {
			r := ti.(*tombstone).removed.Load()
			if r >= n {
				return true
			}
			n -= r
		}
		h := l.unpack(p)
		for ; n > 0; n-- {
			if !yield(h) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// CandidateBlocks returns h's candidate pair under the fold mask. Both
// members are reported (not just the representative) so reconcile's stride
// walk covers every source block that folds onto the pair; CountAtBlock
// then locates instances only at the representative, keeping the
// count-differencing exactly-once.
func (l *fuseLevel) CandidateBlocks(h uint64) (uint64, uint64) {
	return l.src.Candidates(h, l.foldMask)
}

// CountAtBlock counts h's (bucket, fingerprint) instances anchored at block
// b: it synthesizes the canonical hash at b, folds it, and answers only
// when b IS the fold representative — every key instance is counted at
// exactly one block, which is what reconcile's cross-geometry stride sums
// rely on (in both the freeze and thaw directions).
func (l *fuseLevel) CountAtBlock(b, h uint64) uint64 {
	shift := l.src.BlockShift
	k := l.key(h&(1<<shift-1) | b<<shift)
	if l.blockOf(k) != b {
		return 0
	}
	return l.netOf(l.pack(k))
}

// NumBlocks returns the fold geometry's block count.
func (l *fuseLevel) NumBlocks() uint64 { return l.foldBlocks }

// freezePlan holds the parameters of one planned freeze: the fold
// geometry, fuse width and inherited budget — or a drop of an all-empty run
// (its budget moves to reclaimed).
type freezePlan struct {
	drop       bool
	fpBits     uint8
	foldBlocks uint64
	budget     float64
}

// freezeParams checks whether a run holding live items can be frozen within
// its summed budget and returns the plan parameters. Both analytic FPR terms
// are held to budget/2: the canonical-collision term is fixed by the fold
// geometry and live count, the fuse term by the narrowest fingerprint width
// that fits. An all-empty run plans as a drop.
func freezeParams(run []*level, live uint64) (freezePlan, bool) {
	budget, minBlocks := summarize(run)
	if live == 0 {
		return freezePlan{drop: true}, true
	}
	if run[0].geom.CanonicalFPR(live, minBlocks) > budget/2 {
		return freezePlan{}, false
	}
	fpBits, ok := fuse.WidthFor(budget / 2)
	if !ok {
		return freezePlan{}, false
	}
	return freezePlan{fpBits: fpBits, foldBlocks: minBlocks, budget: budget}, true
}

// shrinkFreeze drops the oldest (smallest, most mask-constraining) levels
// from the run until it satisfies freezeParams; ok is false when not even a
// single level fits.
func shrinkFreeze(run []*level) (sub []*level, p freezePlan, ok bool) {
	for len(run) >= 1 {
		if p, ok = freezeParams(run, sumCounts(run)); ok {
			return run, p, true
		}
		run = run[1:]
	}
	return nil, freezePlan{}, false
}

// planFreezes partitions every gated run into freezable segments, newest
// first, mirroring planRun's splice discipline: plans come out in
// descending hi order with disjoint segments.
func planFreezes(ls []*level, gate func(*level) bool) []splice {
	var plans []splice
	// Unlike compaction a single level is a worthwhile freeze unit — the win
	// is the representation, not the merge.
	runs := vqfRuns(ls, gate)
	for i := len(runs) - 1; i >= 0; i-- {
		hi := runs[i].hi
		for hi > runs[i].lo {
			sub, p, ok := shrinkFreeze(ls[runs[i].lo:hi])
			if !ok {
				break
			}
			sp := splice{hi: hi, sub: sub}
			if !p.drop {
				sp.build = func(*cascadeState) *level { return buildFuseLevel(sub, p) }
			}
			plans = append(plans, sp)
			hi -= len(sub)
		}
	}
	return plans
}

// buildFuseLevel folds every source instance's canonical hash to its pair
// representative and builds the immutable level, carrying the summed budget
// and the analytic FPR as its geomFPR. nil means peeling failed (vanishingly
// rare) and the sources stay as they are.
func buildFuseLevel(sub []*level, p freezePlan) *level {
	g := sub[0].geom
	foldMask := p.foldBlocks - 1
	keys := make([]uint64, 0, sumCounts(sub))
	for _, src := range sub {
		src.filter.IterateHashes(func(h uint64) bool {
			keys = append(keys, g.Fold(h, foldMask))
			return true
		})
	}
	return newFuseTier(g, p.fpBits, p.foldBlocks, p.budget, keys)
}

// newFuseTier builds a fuse level from folded canonical keys and wraps it
// as a cascade level; nil means peeling failed.
func newFuseTier(src *core.Geometry, fpBits uint8, foldBlocks uint64, budget float64, keys []uint64) *level {
	fl, err := newFuseLevel(src, fpBits, foldBlocks, keys)
	if err != nil {
		return nil
	}
	return fl.asLevel(budget)
}

// asLevel wraps the fuse level as a cascade level with the given budget.
// Its geomFPR is the analytic FPR: canonical collisions at the frozen
// population plus the fuse fingerprint's 2⁻ʷ.
func (l *fuseLevel) asLevel(budget float64) *level {
	return &level{
		filter:  l,
		geom:    l.src,
		budget:  budget,
		geomFPR: l.src.CanonicalFPR(l.baseTotal, l.foldBlocks) + l.f.FPR(),
	}
}

// autoFreezeGate builds the WithAutoFreeze eligibility predicate at the
// current time; see freezeGate.
func autoFreezeGate(cfg Config) func(*level) bool {
	now := time.Now().UnixNano()
	return func(l *level) bool { return freezeGate(cfg, l, now) }
}

// freezeGate reports whether level l is eligible for auto-freeze at time
// now: frozen (out of the insert path) for at least FreezeMinAge, and
// loaded at or below FreezeMaxLoad.
func freezeGate(cfg Config, l *level, now int64) bool {
	return freezeAged(cfg, l, now) && freezeLoadOK(cfg, l.filter.Count(), l.filter.Capacity())
}

// freezeAged is the time half of the auto-freeze gate. A zero frozenAt
// stamp (deserialized cascades) counts as old.
func freezeAged(cfg Config, l *level, now int64) bool {
	fa := l.frozenAt.Load()
	return fa == 0 || now-fa >= cfg.FreezeMinAge.Nanoseconds()
}

// freezeLoadOK is the load half of the auto-freeze gate.
func freezeLoadOK(cfg Config, count, capacity uint64) bool {
	return capacity == 0 || float64(count) <= cfg.FreezeMaxLoad*float64(capacity)
}

// freezeEvents are freezing's telemetry names.
var freezeEvents = opEvents{"vqf.elastic.freeze", telemetry.EvFreezeStart, telemetry.EvFreezeFinish}

// FreezeNow rebuilds every qualifying run of frozen VQF levels into
// immutable fuse levels, synchronously, through the structural-op engine
// (see restructure). Runs that cannot meet their budget in the fuse
// representation stay as they are; all-empty runs are dropped and their
// budgets retired into the reclaimed pool.
func (s *cascadeState) FreezeNow() FreezeResult { return s.freeze(nil) }

// freeze is FreezeNow restricted to the levels gate accepts (nil accepts
// every level).
func (s *cascadeState) freeze(gate func(*level) bool) FreezeResult {
	r := s.restructure(freezeEvents, &s.freezes, func(ls []*level) []splice {
		return planFreezes(ls, gate)
	})
	return FreezeResult{LevelsBefore: r.before, LevelsAfter: r.after, LevelsFrozen: r.spliced, FuseLevels: r.built}
}

// thawNow rebuilds every fuse level past the thaw threshold into live form
// through the structural-op engine, each as a one-level splice: the fuse
// level is the source, so racing removes log themselves and reconcile
// replays them against the rebuilt level. A fully tombstoned level is
// dropped (no remove can hit it again) and its budget reclaimed. Thaws
// record no ring events.
func (s *cascadeState) thawNow() {
	s.restructure(opEvents{task: "vqf.elastic.thaw"}, &s.thaws, func(ls []*level) []splice {
		var plans []splice
		for i := len(ls) - 1; i >= 0; i-- {
			fl, ok := ls[i].filter.(*fuseLevel)
			if !ok || !fl.needsThaw() {
				continue
			}
			sp := splice{hi: i + 1, sub: ls[i : i+1]}
			if fl.Count() > 0 {
				sp.build = func(s *cascadeState) *level { return s.thawedLevel(ls[i]) }
			}
			plans = append(plans, sp)
		}
		return plans
	})
}

// thawedLevel rebuilds a tombstone-laden fuse level into live form: a
// right-sized VQF level when the survivors fit under the fold's cross-mask
// bound, else a fresh fuse level without the dead keys. nil means the
// rebuild failed and the caller keeps the original.
func (s *cascadeState) thawedLevel(lvl *level) *level {
	fl := lvl.filter.(*fuseLevel)
	live := fl.Count()
	nblocks := blocksNeeded(s.cfg, fl.src, live, lvl.budget)
	if nl := s.rebuild([]*level{lvl}, fl.src, nblocks, fl.foldBlocks, lvl.budget); nl != nil {
		return nl
	}
	// Survivors need more blocks than the fold bound allows back into VQF
	// geometry: re-fuse without the tombstoned keys instead.
	keys := make([]uint64, 0, live)
	fl.IterateHashes(func(h uint64) bool {
		keys = append(keys, h)
		return true
	})
	return newFuseTier(fl.src, fl.f.Bits(), fl.foldBlocks, lvl.budget, keys)
}

// FreezeNow freezes every shard, summing the per-shard results.
func (f *Sharded) FreezeNow() FreezeResult {
	var res FreezeResult
	for _, s := range f.shards {
		r := s.FreezeNow()
		res.LevelsBefore += r.LevelsBefore
		res.LevelsAfter += r.LevelsAfter
		res.LevelsFrozen += r.LevelsFrozen
		res.FuseLevels += r.FuseLevels
	}
	return res
}

// stampFrozen records when a level left the insert path (creation for
// merged/fuse/thawed levels, growth time for a superseded newest level).
func stampFrozen(l *level) { l.frozenAt.Store(time.Now().UnixNano()) }
