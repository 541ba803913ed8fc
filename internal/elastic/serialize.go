package elastic

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"time"

	"vqf/internal/core"
	"vqf/internal/fuse"
)

// Cascade serialization: a header carrying the Config (everything needed to
// regrow the cascade deterministically) followed by each level's stream,
// oldest first.
//
// Version 1 cascades were pure growth products: per-level budgets, triggers
// and geometries were pure functions of (Config, level index) and were
// recomputed on read. Compaction broke that purity — a merged level's
// budget is the sum of the budgets it replaced and its size is chosen from
// its live count, neither derivable from an index — so version 2 prefixes
// each level's core stream with a small record carrying the level's kind,
// block count, budget and trigger, plus the cascade's next schedule index
// in the header (the schedule keeps advancing while compaction keeps the
// level list short, so the level count no longer implies it). Version 3
// adds the frozen tier: the header grows an 8-byte reclaimed-budget field
// (dropping an emptied level retires its εᵢ; without it a reloaded cascade
// would violate the budget invariant), and level records may carry the fuse
// kinds 108 and 116 (fuseTag plus the source width) whose streams are fuse
// levels — see fuseLevel.WriteTo. Version 4 appends the auto-trigger policy
// (CompactMinLevels, CompactMaxLoad, FreezeMinAge, FreezeMaxLoad, and
// AutoFreeze as a header flag), so a reloaded cascade keeps compacting and
// freezing on its own. Versions 1–3 are still read, with the policy off.
//
// Only sequential cascades serialize, matching the core filters.

const (
	magicElastic   = 0x45465156 // "VQFE"
	elasticVersion = 4
	// elasticHeaderBytes: magic(4) version(2) levels(2) flags(2) sched(2)
	// pad(4) targetFPR(8) growth(8) tighten(8) fill(8) initialSlots(8).
	// Version 1 wrote zeros over the sched field (it was padding).
	// Version 3 appends reclaimed(8); version 4 then appends
	// compactMinLevels(8) compactMaxLoad(8) freezeMinAge(8)
	// freezeMaxLoad(8) — elasticHeaderV4Bytes in total.
	elasticHeaderBytes   = 4 + 2 + 2 + 2 + 2 + 4 + 8 + 8 + 8 + 8 + 8
	elasticHeaderV4Bytes = elasticHeaderBytes + 8 + 4*8

	// levelRecordBytes: kind(1) blocksLog2(1) pad(6) budget(8) trigger(8).
	levelRecordBytes = 1 + 1 + 6 + 8 + 8

	// fuseLevelHeaderBytes: srcKind(1) fpBits(1) pad(6) baseTotal(8)
	// vaultN(8) dupeN(8) tombN(8); see fuseLevel.WriteTo.
	fuseLevelHeaderBytes = 1 + 1 + 6 + 8 + 8 + 8 + 8

	eflagNoShortcut = 1 << 0
	eflagAutoFreeze = 1 << 1 // version 4 and later
)

// WriteTo serializes the cascade. It implements io.WriterTo.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	ls := f.list()
	var hdr [elasticHeaderV4Bytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicElastic)
	binary.LittleEndian.PutUint16(hdr[4:], elasticVersion)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(len(ls)))
	var flags uint16
	if f.cfg.NoShortcut {
		flags |= eflagNoShortcut
	}
	if f.cfg.AutoFreeze {
		flags |= eflagAutoFreeze
	}
	binary.LittleEndian.PutUint16(hdr[8:], flags)
	binary.LittleEndian.PutUint16(hdr[10:], uint16(f.sched))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(f.cfg.TargetFPR))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(f.cfg.GrowthFactor))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(f.cfg.TightenRatio))
	binary.LittleEndian.PutUint64(hdr[40:], math.Float64bits(f.cfg.FillThreshold))
	binary.LittleEndian.PutUint64(hdr[48:], f.cfg.InitialSlots)
	binary.LittleEndian.PutUint64(hdr[56:], math.Float64bits(f.Reclaimed()))
	binary.LittleEndian.PutUint64(hdr[64:], uint64(f.cfg.CompactMinLevels))
	binary.LittleEndian.PutUint64(hdr[72:], math.Float64bits(f.cfg.CompactMaxLoad))
	binary.LittleEndian.PutUint64(hdr[80:], uint64(f.cfg.FreezeMinAge))
	binary.LittleEndian.PutUint64(hdr[88:], math.Float64bits(f.cfg.FreezeMaxLoad))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n := int64(len(hdr))
	for _, lvl := range ls {
		var rec [levelRecordBytes]byte
		rec[0] = lvl.kind()
		rec[1] = byte(bits.TrailingZeros64(lvl.filter.NumBlocks()))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(lvl.budget))
		binary.LittleEndian.PutUint64(rec[16:], lvl.trigger)
		if _, err := w.Write(rec[:]); err != nil {
			return n, err
		}
		n += int64(len(rec))
		wt, ok := lvl.filter.(io.WriterTo)
		if !ok {
			return n, fmt.Errorf("elastic: level filter %T does not serialize", lvl.filter)
		}
		m, err := wt.WriteTo(w)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readLevelStream reads one core filter stream of geometry g, checking it
// against the expected slot count, and wraps it in a level.
func readLevelStream(r io.Reader, g *core.Geometry, slots uint64, budget float64, trigger uint64) (*level, error) {
	lvl := &level{geom: g, budget: budget, trigger: trigger, geomFPR: g.FPR}
	if g == core.Geom8 {
		impl, err := core.ReadFilter8Sized(r, slots)
		if err != nil {
			return nil, err
		}
		lvl.filter = impl
	} else {
		impl, err := core.ReadFilter16Sized(r, slots)
		if err != nil {
			return nil, err
		}
		lvl.filter = impl
	}
	return lvl, nil
}

// Read deserializes a cascade written by WriteTo (any version). The
// header's config — including a version-4 stream's auto-trigger policy — is
// validated with the same rules as New, the level count is capped at
// MaxLevels, and every level stream passes through the core readers'
// structural audits, so adversarial input fails cleanly instead of
// allocating absurd amounts or corrupting later operations. Version 2 and
// later additionally audit the per-level records: budgets must be positive
// and sum to at most the configured ε, triggers must fit the level, and the
// schedule index must cover every level ever built.
func Read(r io.Reader) (*Filter, error) {
	var hdr [elasticHeaderV4Bytes]byte
	if _, err := io.ReadFull(r, hdr[:elasticHeaderBytes]); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicElastic {
		return nil, fmt.Errorf("%w: bad cascade magic", core.ErrBadFormat)
	}
	version := binary.LittleEndian.Uint16(hdr[4:])
	if version < 1 || version > elasticVersion {
		return nil, fmt.Errorf("%w: unsupported cascade version %d", core.ErrBadFormat, version)
	}
	ext := hdr[elasticHeaderBytes:elasticHeaderBytes]
	switch {
	case version >= 4:
		ext = hdr[elasticHeaderBytes:]
	case version == 3:
		ext = hdr[elasticHeaderBytes : elasticHeaderBytes+8]
	}
	if _, err := io.ReadFull(r, ext); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadFormat, err)
	}
	nlevels := int(binary.LittleEndian.Uint16(hdr[6:]))
	flags := binary.LittleEndian.Uint16(hdr[8:])
	sched := int(binary.LittleEndian.Uint16(hdr[10:]))
	cfg := Config{
		TargetFPR:     math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:])),
		GrowthFactor:  math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:])),
		TightenRatio:  math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:])),
		FillThreshold: math.Float64frombits(binary.LittleEndian.Uint64(hdr[40:])),
		InitialSlots:  binary.LittleEndian.Uint64(hdr[48:]),
		NoShortcut:    flags&eflagNoShortcut != 0,
	}
	if version >= 4 {
		cfg.CompactMinLevels = int(binary.LittleEndian.Uint64(hdr[64:]))
		cfg.CompactMaxLoad = math.Float64frombits(binary.LittleEndian.Uint64(hdr[72:]))
		cfg.FreezeMinAge = time.Duration(binary.LittleEndian.Uint64(hdr[80:]))
		cfg.FreezeMaxLoad = math.Float64frombits(binary.LittleEndian.Uint64(hdr[88:]))
		cfg.AutoFreeze = flags&eflagAutoFreeze != 0
	}
	if nlevels < 1 || nlevels > MaxLevels {
		return nil, fmt.Errorf("%w: cascade level count %d outside [1, %d]", core.ErrBadFormat, nlevels, MaxLevels)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadFormat, err)
	}
	reclaimed := math.Float64frombits(binary.LittleEndian.Uint64(hdr[56:])) // zero before version 3
	if !(reclaimed >= 0 && reclaimed < cfg.TargetFPR) {
		return nil, fmt.Errorf("%w: reclaimed budget %g outside [0, ε)", core.ErrBadFormat, reclaimed)
	}
	f := newFilter(cfg)
	f.addReclaimed(reclaimed)
	ls := make([]*level, 0, nlevels)

	if version == 1 {
		// Pure growth product: rebuild every level's parameters from its
		// index; the next schedule index is the level count.
		f.sched = nlevels
		for i := 0; i < nlevels; i++ {
			_, trigger, allocSlots := levelSizing(cfg, i)
			lvl, err := readLevelStream(r, levelGeometry(cfg, i), allocSlots, levelBudget(cfg, i), trigger)
			if err != nil {
				return nil, fmt.Errorf("level %d: %w", i, err)
			}
			ls = append(ls, lvl)
		}
		f.levels.Store(&ls)
		return f, nil
	}

	if sched < nlevels || sched > schedCap {
		return nil, fmt.Errorf("%w: cascade schedule index %d outside [%d, %d]", core.ErrBadFormat, sched, nlevels, schedCap)
	}
	f.sched = sched
	var budgetSum float64
	for i := 0; i < nlevels; i++ {
		var rec [levelRecordBytes]byte
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("level %d: %w: %v", i, core.ErrBadFormat, err)
		}
		kind := rec[0]
		blocksLog2 := rec[1]
		budget := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		trigger := binary.LittleEndian.Uint64(rec[16:])
		fused := version >= 3 && kind > fuseTag
		bits := kind
		if fused {
			bits -= fuseTag
		}
		g := core.GeometryOfBits(uint(bits))
		if g == nil {
			return nil, fmt.Errorf("%w: level %d fingerprint kind %d", core.ErrBadFormat, i, kind)
		}
		if blocksLog2 > 40 {
			return nil, fmt.Errorf("%w: level %d block count 2^%d", core.ErrBadFormat, i, blocksLog2)
		}
		if !(budget > 0 && budget < 1) {
			return nil, fmt.Errorf("%w: level %d budget %g outside (0, 1)", core.ErrBadFormat, i, budget)
		}
		budgetSum += budget
		if fused {
			if trigger != 0 {
				return nil, fmt.Errorf("%w: level %d fuse trigger %d nonzero", core.ErrBadFormat, i, trigger)
			}
			lvl, err := readFuseLevel(r, g, uint64(1)<<blocksLog2, budget)
			if err != nil {
				return nil, fmt.Errorf("level %d: %w", i, err)
			}
			ls = append(ls, lvl)
			continue
		}
		slots := (uint64(1) << blocksLog2) * g.Slots
		if trigger < 1 || trigger > slots {
			return nil, fmt.Errorf("%w: level %d trigger %d outside [1, %d]", core.ErrBadFormat, i, trigger, slots)
		}
		lvl, err := readLevelStream(r, g, slots, budget, trigger)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i, err)
		}
		ls = append(ls, lvl)
	}
	// Budgets (plus the retired reclaimed pool) must not overspend the
	// cascade's ε; the tiny slack absorbs float summation error (merges and
	// freezes store exact sums of schedule terms).
	if budgetSum+reclaimed > cfg.TargetFPR*(1+1e-9) {
		return nil, fmt.Errorf("%w: level budgets sum to %g, exceeding target FPR %g", core.ErrBadFormat, budgetSum+reclaimed, cfg.TargetFPR)
	}
	f.levels.Store(&ls)
	return f, nil
}

// Fuse level stream: the 40-byte header (srcKind, fpBits, instance total and
// the three ledger cardinalities), the fuse filter's own self-delimiting
// stream, then one length-prefixed varint blob carrying the vault's packed
// keys, the duplicate-instance map and the tombstone ledger — each a sorted
// delta-coded sequence (first value absolute, then deltas ≥ 1), so the blob
// compresses like the in-memory vault and the reader gets monotonicity as a
// free structural audit.

// packedEntry pairs a packed vault key with an associated count (duplicate
// extras or tombstoned removes).
type packedEntry struct {
	p, v uint64
}

func appendUvarint(b []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(b, buf[:binary.PutUvarint(buf[:], v)]...)
}

// appendEntries delta-codes a sorted (packed, count) sequence.
func appendEntries(b []byte, es []packedEntry) []byte {
	var prev uint64
	for i, e := range es {
		if i == 0 {
			b = appendUvarint(b, e.p)
		} else {
			b = appendUvarint(b, e.p-prev)
		}
		prev = e.p
		b = appendUvarint(b, e.v)
	}
	return b
}

// WriteTo serializes the fuse level's immutable structures and its current
// tombstone ledger. Concurrent removes during serialization can make the
// ledger a sampling snapshot (tombstones are monotone, so every written
// entry is valid; a racing remove may simply be missed) — callers wanting an
// exact image serialize a quiesced filter, same as the core filters.
func (l *fuseLevel) WriteTo(w io.Writer) (int64, error) {
	var tombs []packedEntry
	l.tombs.Range(func(key, val any) bool {
		if r := val.(*tombstone).removed.Load(); r > 0 {
			tombs = append(tombs, packedEntry{key.(uint64), r})
		}
		return true
	})
	sort.Slice(tombs, func(i, j int) bool { return tombs[i].p < tombs[j].p })
	dupes := make([]packedEntry, 0, len(l.dupes))
	for p, extra := range l.dupes {
		dupes = append(dupes, packedEntry{p, uint64(extra)})
	}
	sort.Slice(dupes, func(i, j int) bool { return dupes[i].p < dupes[j].p })

	var hdr [fuseLevelHeaderBytes]byte
	hdr[0] = uint8(l.src.FPBits)
	hdr[1] = l.f.Bits()
	binary.LittleEndian.PutUint64(hdr[8:], l.baseTotal)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(l.vault.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(dupes)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(tombs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n := int64(len(hdr))

	m, err := l.f.WriteTo(w)
	n += m
	if err != nil {
		return n, err
	}

	blob := make([]byte, 0, 2*l.vault.n+16)
	var prev uint64
	first := true
	l.vault.iterate(func(p uint64) bool {
		if first {
			blob = appendUvarint(blob, p)
			first = false
		} else {
			blob = appendUvarint(blob, p-prev)
		}
		prev = p
		return true
	})
	blob = appendEntries(blob, dupes)
	blob = appendEntries(blob, tombs)

	var lenbuf [8]byte
	binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(blob)))
	if _, err := w.Write(lenbuf[:]); err != nil {
		return n, err
	}
	n += 8
	if _, err := w.Write(blob); err != nil {
		return n, err
	}
	return n + int64(len(blob)), nil
}

// blobUvarint decodes one uvarint from blob, erroring on truncation instead
// of panicking.
func blobUvarint(blob []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(blob)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated fuse level varint stream", core.ErrBadFormat)
	}
	return v, blob[n:], nil
}

// readEntries decodes a delta-coded (packed, count) sequence, enforcing
// strictly increasing keys below bound and counts of at least one.
func readEntries(blob []byte, n, bound uint64, what string) ([]packedEntry, []byte, error) {
	es := make([]packedEntry, 0, n)
	var prev uint64
	var err error
	for i := uint64(0); i < n; i++ {
		var d, v uint64
		if d, blob, err = blobUvarint(blob); err != nil {
			return nil, nil, err
		}
		if i == 0 {
			prev = d
		} else {
			if d == 0 {
				return nil, nil, fmt.Errorf("%w: fuse level %s keys not strictly increasing", core.ErrBadFormat, what)
			}
			prev += d
		}
		if prev >= bound {
			return nil, nil, fmt.Errorf("%w: fuse level %s key %d beyond key space %d", core.ErrBadFormat, what, prev, bound)
		}
		if v, blob, err = blobUvarint(blob); err != nil {
			return nil, nil, err
		}
		if v == 0 {
			return nil, nil, fmt.Errorf("%w: fuse level %s count zero", core.ErrBadFormat, what)
		}
		es = append(es, packedEntry{prev, v})
	}
	return es, blob, nil
}

// readFuseLevel reads one frozen fuse level stream, rebuilding the exact
// in-memory structures and auditing every cross-constraint: the cardinality
// fields must be mutually consistent (vault + duplicate extras = instance
// total, tombstones never exceed what they remove from), every ledger key
// must exist in the vault, and the fuse filter must cover exactly the
// vault's distinct keys.
func readFuseLevel(r io.Reader, g *core.Geometry, foldBlocks uint64, budget float64) (*level, error) {
	var hdr [fuseLevelHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadFormat, err)
	}
	srcBits := hdr[0]
	fpBits := hdr[1]
	if uint(srcBits) != g.FPBits {
		return nil, fmt.Errorf("%w: fuse level source kind %d under level kind %d", core.ErrBadFormat, srcBits, fuseTag+g.FPBits)
	}
	if fpBits != 8 && fpBits != 16 {
		return nil, fmt.Errorf("%w: fuse fingerprint width %d", core.ErrBadFormat, fpBits)
	}
	baseTotal := binary.LittleEndian.Uint64(hdr[8:])
	vaultN := binary.LittleEndian.Uint64(hdr[16:])
	dupeN := binary.LittleEndian.Uint64(hdr[24:])
	tombN := binary.LittleEndian.Uint64(hdr[32:])
	bound := (foldBlocks << g.FPBits) * g.Buckets
	if vaultN < 1 || vaultN > bound || vaultN > baseTotal {
		return nil, fmt.Errorf("%w: fuse level vault size %d outside [1, min(%d, %d)]", core.ErrBadFormat, vaultN, bound, baseTotal)
	}
	if dupeN > vaultN || tombN > vaultN {
		return nil, fmt.Errorf("%w: fuse level ledger sizes %d/%d exceed vault %d", core.ErrBadFormat, dupeN, tombN, vaultN)
	}

	l := &fuseLevel{
		src:        g,
		foldBlocks: foldBlocks,
		foldMask:   foldBlocks - 1,
		baseTotal:  baseTotal,
	}
	var err error
	if l.f, err = fuse.Read(r, fpBits); err != nil {
		return nil, err
	}
	if l.f.Keys() != vaultN {
		return nil, fmt.Errorf("%w: fuse filter holds %d keys, vault %d", core.ErrBadFormat, l.f.Keys(), vaultN)
	}

	var lenbuf [8]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadFormat, err)
	}
	blobLen := binary.LittleEndian.Uint64(lenbuf[:])
	if max := binary.MaxVarintLen64 * (vaultN + 2*dupeN + 2*tombN); blobLen > max {
		return nil, fmt.Errorf("%w: fuse level blob length %d exceeds bound %d", core.ErrBadFormat, blobLen, max)
	}
	blob := make([]byte, blobLen)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadFormat, err)
	}

	keys := make([]uint64, vaultN)
	var prev uint64
	for i := range keys {
		var d uint64
		if d, blob, err = blobUvarint(blob); err != nil {
			return nil, err
		}
		if i == 0 {
			prev = d
		} else {
			if d == 0 {
				return nil, fmt.Errorf("%w: fuse level vault keys not strictly increasing", core.ErrBadFormat)
			}
			prev += d
		}
		if prev >= bound {
			return nil, fmt.Errorf("%w: fuse level vault key %d beyond key space %d", core.ErrBadFormat, prev, bound)
		}
		keys[i] = prev
	}
	l.vault = buildVault(keys)

	dupes, blob, err := readEntries(blob, dupeN, bound, "duplicate")
	if err != nil {
		return nil, err
	}
	var extraSum uint64
	for _, e := range dupes {
		if !l.vault.contains(e.p) {
			return nil, fmt.Errorf("%w: fuse level duplicate key %d not in vault", core.ErrBadFormat, e.p)
		}
		if e.v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: fuse level duplicate count %d overflows", core.ErrBadFormat, e.v)
		}
		if l.dupes == nil {
			l.dupes = make(map[uint64]uint32, len(dupes))
		}
		l.dupes[e.p] = uint32(e.v)
		extraSum += e.v
	}
	if vaultN+extraSum != baseTotal {
		return nil, fmt.Errorf("%w: fuse level instances %d+%d != total %d", core.ErrBadFormat, vaultN, extraSum, baseTotal)
	}

	tombs, blob, err := readEntries(blob, tombN, bound, "tombstone")
	if err != nil {
		return nil, err
	}
	var removedSum uint64
	for _, e := range tombs {
		inst := l.instances(e.p)
		if inst == 0 {
			return nil, fmt.Errorf("%w: fuse level tombstone key %d not in vault", core.ErrBadFormat, e.p)
		}
		if e.v > inst {
			return nil, fmt.Errorf("%w: fuse level tombstone removes %d of %d instances", core.ErrBadFormat, e.v, inst)
		}
		t := &tombstone{base: inst}
		t.removed.Store(e.v)
		l.tombs.Store(e.p, t)
		removedSum += e.v
	}
	if len(blob) != 0 {
		return nil, fmt.Errorf("%w: fuse level blob has %d trailing bytes", core.ErrBadFormat, len(blob))
	}
	l.tombTotal.Store(removedSum)
	l.live.Store(baseTotal - removedSum)
	return l.asLevel(budget), nil
}
