package elastic

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vqf/internal/core"
	"vqf/internal/fuse"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// Frozen tier. A cascade's old levels are read-mostly after churn, yet each
// keeps paying the VQF's ~25% metadata overhead for update support nobody
// uses anymore. Freezing rebuilds a run of frozen VQF levels into ONE
// immutable binary-fuse level (internal/fuse, ~1.08× entropy overhead),
// keyed by the pair-representative canonical hash (core.FoldHash8/16): both
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
// Concurrency reuses the compaction protocol verbatim (see compact.go):
// plan under growMu, publish the frozen set through a removeMu barrier so
// racing removes log themselves, build off-lock from per-block snapshots,
// then reconcile the log and swap the level list atomically. The fuse
// level's CountAtBlock/CandidateBlocks are defined so reconcile's
// count-differencing is exact in both directions (freeze: fuse as
// destination; thaw: fuse as source): a key's instances are "located" only
// at its representative block.

// Level kinds of the frozen tier, distinct from the VQF fingerprint widths
// 8/16 used as level kinds so serialization and run planning can tell the
// tiers apart. The value encodes the SOURCE geometry the fold keys carry.
const (
	kindFuse8  uint8 = 108
	kindFuse16 uint8 = 116
)

// vqfKind reports whether a level kind is a live VQF geometry (as opposed
// to a frozen fuse level).
func vqfKind(k uint8) bool { return k == 8 || k == 16 }

// fuseKind reports whether a level kind is a frozen fuse tier.
func fuseKind(k uint8) bool { return k == kindFuse8 || k == kindFuse16 }

func fuseKindFor(srcKind uint8) uint8 {
	if srcKind == 8 {
		return kindFuse8
	}
	return kindFuse16
}

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
	// srcKind is the source VQF geometry (8 or 16) whose canonical key
	// space the fold keys live in; fpBits is the fuse fingerprint width.
	srcKind uint8
	fpBits  uint8
	// foldBlocks/foldMask is the fold geometry: the minimum block count of
	// the frozen run (the destination mask must be a suffix of every source
	// mask; see internal/core/iterate.go).
	foldBlocks uint64
	foldMask   uint64

	f8  *fuse.Filter8
	f16 *fuse.Filter16

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
func newFuseLevel(srcKind, fpBits uint8, foldBlocks uint64, keys []uint64) (*fuseLevel, error) {
	l := &fuseLevel{
		srcKind:    srcKind,
		fpBits:     fpBits,
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
	if fpBits == 8 {
		l.f8, err = fuse.Build8(ck)
	} else {
		l.f16, err = fuse.Build16(ck)
	}
	if err != nil {
		return nil, err
	}
	l.vault = buildVault(distinct)
	l.live.Store(l.baseTotal)
	return l, nil
}

// key folds a raw hash to its pair-representative canonical key.
func (l *fuseLevel) key(h uint64) uint64 {
	if l.srcKind == 8 {
		return core.FoldHash8(h, l.foldMask)
	}
	return core.FoldHash16(h, l.foldMask)
}

// blockOf extracts a canonical key's (representative) block index.
func (l *fuseLevel) blockOf(k uint64) uint64 {
	if l.srcKind == 8 {
		return k >> 24
	}
	return k >> 32
}

// pack maps a canonical key to a dense integer — (block·2^srcBits +
// fingerprint)·buckets + bucket — monotone in (block, fp, bucket), which
// keeps vault deltas small and freeze-time key streams nearly sorted.
func (l *fuseLevel) pack(k uint64) uint64 {
	if l.srcKind == 8 {
		return (k>>16)*minifilter.B8Buckets + (k&0xffff)*minifilter.B8Buckets>>16
	}
	return (k>>16)*minifilter.B16Buckets + (k&0xffff)*minifilter.B16Buckets>>16
}

// unpack inverts pack back to the canonical key.
func (l *fuseLevel) unpack(p uint64) uint64 {
	if l.srcKind == 8 {
		rest, bucket := p/minifilter.B8Buckets, p%minifilter.B8Buckets
		return core.CanonicalHash8(rest>>8, uint(bucket), byte(rest))
	}
	rest, bucket := p/minifilter.B16Buckets, p%minifilter.B16Buckets
	return core.CanonicalHash16(rest>>16, uint(bucket), uint16(rest))
}

func (l *fuseLevel) fuseContains(k uint64) bool {
	if l.fpBits == 8 {
		return l.f8.Contains(k)
	}
	return l.f16.Contains(k)
}

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
	if !l.fuseContains(k) {
		return false
	}
	if l.tombTotal.Load() == 0 {
		return true
	}
	return l.tombAlive(k)
}

// ContainsBatch implements batchProber: folds a tile of keys, probes the
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
		if l.fpBits == 8 {
			l.f8.ContainsBatch(tile[:n], chunk)
		} else {
			l.f16.ContainsBatch(tile[:n], chunk)
		}
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
	if !l.fuseContains(k) {
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
func (l *fuseLevel) SizeBytes() uint64 {
	var fb uint64
	if l.fpBits == 8 {
		fb = l.f8.SizeBytes()
	} else {
		fb = l.f16.SizeBytes()
	}
	return fb + l.vault.sizeBytes()
}

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
	if l.srcKind == 8 {
		return core.CandidatePair8(h, l.foldMask)
	}
	return core.CandidatePair16(h, l.foldMask)
}

// CountAtBlock counts h's (bucket, fingerprint) instances anchored at block
// b: it synthesizes the canonical hash at b, folds it, and answers only
// when b IS the fold representative — every key instance is counted at
// exactly one block, which is what reconcile's cross-geometry stride sums
// rely on (in both the freeze and thaw directions).
func (l *fuseLevel) CountAtBlock(b, h uint64) uint64 {
	var k uint64
	if l.srcKind == 8 {
		k = core.FoldHash8(h&0xffffff|b<<24, l.foldMask)
	} else {
		k = core.FoldHash16(h&0xffffffff|b<<32, l.foldMask)
	}
	if l.blockOf(k) != b {
		return 0
	}
	return l.netOf(l.pack(k))
}

// NumBlocks returns the fold geometry's block count.
func (l *fuseLevel) NumBlocks() uint64 { return l.foldBlocks }

// freezePlan is one planned freeze: the contiguous sub-run ending at level
// index hi (exclusive), the fold geometry, fuse width and inherited budget
// — or a drop of an all-empty run (budget moves to reclaimed).
type freezePlan struct {
	hi         int
	sub        []*level
	drop       bool
	fpBits     uint8
	foldBlocks uint64
	budget     float64
	geomFPR    float64
}

// freezeRuns returns the maximal runs of ≥1 contiguous same-kind VQF levels
// among the frozen levels ls[:len(ls)-1] that pass the gate (nil gate
// accepts everything). Unlike compaction a single level is a worthwhile
// freeze unit — the win is the representation, not the merge.
func freezeRuns(ls []*level, gate func(*level) bool) []compactRun {
	var runs []compactRun
	frozen := len(ls) - 1
	for lo := 0; lo < frozen; {
		if !vqfKind(ls[lo].kind) || (gate != nil && !gate(ls[lo])) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < frozen && ls[hi].kind == ls[lo].kind && (gate == nil || gate(ls[hi])) {
			hi++
		}
		runs = append(runs, compactRun{lo, hi})
		lo = hi
	}
	return runs
}

// freezeParams checks whether a run holding live items can be frozen within
// its summed budget and returns the plan parameters. Both analytic FPR terms
// are held to budget/2: the canonical-collision term is fixed by the fold
// geometry and live count, the fuse term by the narrowest fingerprint width
// that fits. An all-empty run plans as a drop.
func freezeParams(run []*level, live uint64) (freezePlan, bool) {
	var budget float64
	minBlocks := run[0].filter.NumBlocks()
	for _, l := range run {
		budget += l.budget
		if nb := l.filter.NumBlocks(); nb < minBlocks {
			minBlocks = nb
		}
	}
	if live == 0 {
		return freezePlan{drop: true, budget: budget}, true
	}
	buckets, fpSpace := float64(minifilter.B8Buckets), 256.0
	if run[0].kind == 16 {
		buckets, fpSpace = float64(minifilter.B16Buckets), 65536.0
	}
	canonFPR := 2 * float64(live) / (float64(minBlocks) * buckets * fpSpace)
	if canonFPR > budget/2 {
		return freezePlan{}, false
	}
	var fpBits uint8
	switch {
	case 1.0/256 <= budget/2:
		fpBits = 8
	case 1.0/65536 <= budget/2:
		fpBits = 16
	default:
		return freezePlan{}, false
	}
	return freezePlan{
		fpBits:     fpBits,
		foldBlocks: minBlocks,
		budget:     budget,
		geomFPR:    canonFPR + math.Pow(2, -float64(fpBits)),
	}, true
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
func planFreezes(ls []*level, gate func(*level) bool) []freezePlan {
	var plans []freezePlan
	runs := freezeRuns(ls, gate)
	for i := len(runs) - 1; i >= 0; i-- {
		hi := runs[i].hi
		for hi > runs[i].lo {
			sub, p, ok := shrinkFreeze(ls[runs[i].lo:hi])
			if !ok {
				break
			}
			p.hi = hi
			p.sub = sub
			plans = append(plans, p)
			hi -= len(sub)
		}
	}
	return plans
}

// buildFuseLevel folds every source instance's canonical hash to its pair
// representative and builds the immutable level. The returned level carries
// the summed budget and the analytic FPR as its geomFPR.
func buildFuseLevel(p freezePlan) (*level, error) {
	srcKind := p.sub[0].kind
	foldMask := p.foldBlocks - 1
	keys := make([]uint64, 0, sumCounts(p.sub))
	for _, src := range p.sub {
		if srcKind == 8 {
			src.filter.IterateHashes(func(h uint64) bool {
				keys = append(keys, core.FoldHash8(h, foldMask))
				return true
			})
		} else {
			src.filter.IterateHashes(func(h uint64) bool {
				keys = append(keys, core.FoldHash16(h, foldMask))
				return true
			})
		}
	}
	fl, err := newFuseLevel(srcKind, p.fpBits, p.foldBlocks, keys)
	if err != nil {
		return nil, err
	}
	lvl := &level{filter: fl, kind: fuseKindFor(srcKind), budget: p.budget, geomFPR: p.geomFPR}
	stampFrozen(lvl)
	return lvl, nil
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

// FreezeNow rebuilds every qualifying run of frozen VQF levels into
// immutable fuse levels, synchronously. Runs that cannot meet their budget
// in the fuse representation stay as they are; all-empty runs are dropped
// and their budgets retired into the reclaimed pool.
func (f *Filter) FreezeNow() FreezeResult {
	res := f.freeze(nil)
	f.rearm()
	return res
}

func (f *Filter) freeze(gate func(*level) bool) FreezeResult {
	res := FreezeResult{LevelsBefore: len(f.levels), LevelsAfter: len(f.levels)}
	plans := planFreezes(f.levels, gate)
	if len(plans) == 0 {
		return res
	}
	var runLive uint64
	for _, p := range plans {
		runLive += sumCounts(p.sub)
	}
	f.ring.Record(telemetry.EvFreezeStart, uint64(len(f.levels)), runLive, 0)
	end := telemetry.Task("vqf.elastic.freeze")
	start := time.Now()
	// Plans arrive in descending hi order; splicing forward keeps earlier
	// indices valid.
	for _, p := range plans {
		lo := p.hi - len(p.sub)
		if p.drop {
			f.reclaimed += p.budget
			f.levels = append(f.levels[:lo], f.levels[p.hi:]...)
			res.LevelsFrozen += len(p.sub)
			continue
		}
		lvl, err := buildFuseLevel(p)
		if err != nil {
			continue // peeling failed (vanishingly rare); sources stay as-is
		}
		f.levels = append(f.levels[:lo+1], f.levels[p.hi:]...)
		f.levels[lo] = lvl
		res.LevelsFrozen += len(p.sub)
		res.FuseLevels++
	}
	end()
	res.LevelsAfter = len(f.levels)
	if res.LevelsFrozen > 0 {
		f.freezes++
		f.freezeLevels += uint64(res.LevelsFrozen)
	}
	f.ring.Record(telemetry.EvFreezeFinish,
		uint64(res.LevelsFrozen), uint64(res.LevelsAfter), uint64(time.Since(start)))
	return res
}

// maybeFreeze runs an auto-gated freeze when the config enables it.
func (f *Filter) maybeFreeze() {
	if !f.cfg.AutoFreeze {
		return
	}
	f.freeze(autoFreezeGate(f.cfg))
}

// maybeThaw thaws any fuse level whose tombstone ledger crossed the
// threshold (inline; the sequential filter has no background goroutines).
func (f *Filter) maybeThaw() {
	for i := 0; i < len(f.levels); i++ {
		if fl, ok := f.levels[i].filter.(*fuseLevel); ok && fl.needsThaw() {
			f.thawAt(i)
		}
	}
}

// thawAt rebuilds the fuse level at index i into live form; a fully
// tombstoned level is dropped and its budget reclaimed.
func (f *Filter) thawAt(i int) {
	lvl := f.levels[i]
	fl := lvl.filter.(*fuseLevel)
	if fl.Count() == 0 {
		f.reclaimed += lvl.budget
		f.levels = append(f.levels[:i], f.levels[i+1:]...)
		f.thaws++
		return
	}
	nlvl := thawedLevel(f.cfg, lvl)
	if nlvl == nil {
		return
	}
	setLevelRing(nlvl, f.ring)
	f.levels[i] = nlvl
	f.thaws++
}

// thawedLevel rebuilds a tombstone-laden fuse level into live form: a
// right-sized VQF level when the survivors fit under the fold's cross-mask
// bound, else a fresh fuse level without the dead keys. nil means the
// rebuild failed and the caller keeps the original.
func thawedLevel(cfg Config, lvl *level) *level {
	fl := lvl.filter.(*fuseLevel)
	live := fl.Count()
	srcKind := fl.srcKind
	spb, geom := uint64(minifilter.B8Slots), FPR8Full
	if srcKind == 16 {
		spb, geom = minifilter.B16Slots, FPR16Full
	}
	need := float64(live) / cfg.FillThreshold
	if byFPR := float64(live) * geom / lvl.budget; byFPR > need {
		need = byFPR
	}
	for nblocks := core.BlocksFor(uint64(need), spb); nblocks <= fl.foldBlocks; nblocks *= 2 {
		dst := newMergedLevel(cfg, srcKind, nblocks, lvl.budget)
		ok := true
		fl.IterateHashes(func(h uint64) bool {
			if !dst.filter.Insert(h) {
				ok = false
				return false
			}
			return true
		})
		if ok {
			stampFrozen(dst)
			return dst
		}
	}
	// Survivors need more blocks than the fold bound allows back into VQF
	// geometry: re-fuse without the tombstoned keys instead.
	keys := make([]uint64, 0, live)
	fl.IterateHashes(func(h uint64) bool {
		keys = append(keys, h)
		return true
	})
	buckets, fpSpace := float64(minifilter.B8Buckets), 256.0
	if srcKind == 16 {
		buckets, fpSpace = float64(minifilter.B16Buckets), 65536.0
	}
	nfl, err := newFuseLevel(srcKind, fl.fpBits, fl.foldBlocks, keys)
	if err != nil {
		return nil
	}
	canonFPR := 2 * float64(nfl.baseTotal) / (float64(fl.foldBlocks) * buckets * fpSpace)
	nl := &level{
		filter:  nfl,
		kind:    lvl.kind,
		budget:  lvl.budget,
		geomFPR: canonFPR + math.Pow(2, -float64(fl.fpBits)),
	}
	stampFrozen(nl)
	return nl
}

// FreezeNow rebuilds every qualifying run of frozen VQF levels into
// immutable fuse levels while readers stay lock-free and writers keep
// writing, reusing the compaction protocol (see CFilter.CompactNow): plan
// under growMu, removeMu barrier to publish the frozen set, off-lock build
// from per-block snapshots, second barrier to reconcile the remove log and
// swap the level list.
func (f *CFilter) FreezeNow() FreezeResult { return f.freeze(nil) }

func (f *CFilter) freeze(gate func(*level) bool) FreezeResult {
	f.growMu.Lock()
	defer f.growMu.Unlock()
	ls := *f.levels.Load()
	res := FreezeResult{LevelsBefore: len(ls), LevelsAfter: len(ls)}
	plans := planFreezes(ls, gate)
	if len(plans) == 0 {
		return res
	}
	st := &compactState{frozen: map[*level]struct{}{}}
	var runLive uint64
	for _, p := range plans {
		runLive += sumCounts(p.sub)
		for _, l := range p.sub {
			st.frozen[l] = struct{}{}
		}
	}
	f.ring.Record(telemetry.EvFreezeStart, uint64(len(ls)), runLive, 0)
	end := telemetry.Task("vqf.elastic.freeze")
	start := time.Now()

	f.removeMu.Lock()
	// Seal the sources inside the barrier so a stale inserter can never land
	// in a run the fuse build has already iterated; see CFilter.insertLevel.
	for l := range st.frozen {
		l.sealed.Store(true)
	}
	f.compact.Store(st)
	f.removeMu.Unlock()

	built := make([]*level, len(plans))
	for i, p := range plans {
		if p.drop {
			continue
		}
		if lvl, err := buildFuseLevel(p); err == nil {
			built[i] = lvl
		}
	}

	f.removeMu.Lock()
	next := append([]*level(nil), ls...)
	for i, p := range plans {
		lo := p.hi - len(p.sub)
		if p.drop {
			// Empty at plan time stays empty: removes cannot hit a level
			// with no surviving fingerprints, so no reconcile is needed.
			f.addReclaimed(p.budget)
			next = append(next[:lo], next[p.hi:]...)
			res.LevelsFrozen += len(p.sub)
			continue
		}
		if built[i] == nil {
			continue
		}
		reconcile(built[i], p.sub, st.log)
		next = append(next[:lo+1], next[p.hi:]...)
		next[lo] = built[i]
		res.LevelsFrozen += len(p.sub)
		res.FuseLevels++
	}
	if res.LevelsFrozen > 0 {
		f.levels.Store(&next)
		f.freezes.Add(1)
		f.freezeLevels.Add(uint64(res.LevelsFrozen))
	}
	f.compact.Store(nil)
	f.removeMu.Unlock()
	f.rearmLocked()
	end()
	res.LevelsAfter = len(next)
	f.ring.Record(telemetry.EvFreezeFinish,
		uint64(res.LevelsFrozen), uint64(res.LevelsAfter), uint64(time.Since(start)))
	return res
}

// maybeFreeze fires a background auto-gated freeze. The freezing gate keeps
// freeze and thaw goroutines from stacking; explicit FreezeNow calls
// serialize on growMu independently.
func (f *CFilter) maybeFreeze() {
	if !freezeDue(f.cfg, *f.levels.Load()) {
		return
	}
	if !f.freezing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer f.freezing.Store(false)
		f.freeze(autoFreezeGate(f.cfg))
	}()
}

// maybeThaw fires a background thaw pass when some fuse level crossed the
// tombstone threshold.
func (f *CFilter) maybeThaw() {
	if !thawDue(*f.levels.Load()) || !f.freezing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer f.freezing.Store(false)
		f.thawNow()
	}()
}

// thawNow rebuilds every fuse level past the thaw threshold, one at a time
// under the compaction protocol (the fuse level is the single "frozen"
// source; racing removes log themselves and reconcile replays them against
// the rebuilt level).
func (f *CFilter) thawNow() {
	for {
		f.growMu.Lock()
		ls := *f.levels.Load()
		idx := -1
		for i, lvl := range ls {
			if fl, ok := lvl.filter.(*fuseLevel); ok && fl.needsThaw() {
				idx = i
				break
			}
		}
		if idx < 0 {
			f.growMu.Unlock()
			return
		}
		lvl := ls[idx]
		fl := lvl.filter.(*fuseLevel)

		if fl.Count() == 0 {
			// Fully tombstoned: no remove can hit it again (every key's
			// ledger is saturated), so it can be spliced out directly.
			f.removeMu.Lock()
			next := append([]*level(nil), ls...)
			next = append(next[:idx], next[idx+1:]...)
			f.addReclaimed(lvl.budget)
			f.levels.Store(&next)
			f.thaws.Add(1)
			f.removeMu.Unlock()
			f.rearmLocked()
			f.growMu.Unlock()
			continue
		}

		st := &compactState{frozen: map[*level]struct{}{lvl: {}}}
		f.removeMu.Lock()
		f.compact.Store(st)
		f.removeMu.Unlock()

		nlvl := thawedLevel(f.cfg, lvl)
		if nlvl != nil {
			setLevelRing(nlvl, f.ring)
		}

		f.removeMu.Lock()
		if nlvl != nil {
			reconcile(nlvl, []*level{lvl}, st.log)
			next := append([]*level(nil), ls...)
			next[idx] = nlvl
			f.levels.Store(&next)
			f.thaws.Add(1)
		}
		f.compact.Store(nil)
		f.removeMu.Unlock()
		if nlvl != nil {
			f.rearmLocked()
		}
		f.growMu.Unlock()
		if nlvl == nil {
			return // rebuild failed; retrying immediately would spin
		}
	}
}

// addReclaimed retires budget into the reclaimed pool. Called only under
// growMu; stored as float bits so readers can load it without the lock.
func (f *CFilter) addReclaimed(b float64) {
	f.reclaimed.Store(math.Float64bits(math.Float64frombits(f.reclaimed.Load()) + b))
}

// Reclaimed returns the budget retired from dropped levels; see
// Filter.Reclaimed.
func (f *CFilter) Reclaimed() float64 {
	return math.Float64frombits(f.reclaimed.Load())
}

// Reclaimed returns the total FPR budget retired from dropped (emptied)
// levels. The cascade invariant is
//
//	Σ live level budgets + Reclaimed + ε·rˢᶜʰᵉᵈ = ε
//
// — budgets move between the three pools (future schedule → live levels at
// growth, live → reclaimed at empty-drop) but are never created or reused.
func (f *Filter) Reclaimed() float64 { return f.reclaimed }

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
