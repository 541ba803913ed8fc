// Package stats is the filter-wide metrics substrate: hot-path operation
// counters for every filter variant, on-demand structural snapshots
// (per-block occupancy histograms, load factor, space efficiency), and a
// Prometheus text-format writer, all stdlib-only.
//
// Two counter carriers are provided, matching the two threading models of
// internal/core:
//
//   - Local: plain (non-atomic) counters for the single-threaded filters.
//     Increments cost one add on memory the owner already holds; the filters
//     embedding a Local are not safe for concurrent use, and neither are
//     these counters — exactly the host filter's own contract.
//
//   - Striped: cache-line-padded striped atomic counters for the concurrent
//     filters. Callers pass a stripe selector (the operation's primary block
//     index) so concurrent operations on different blocks usually land on
//     different cache lines; reading sums the stripes with atomic loads and
//     never blocks writers.
//
// Reads of either carrier produce an OpCounts value. A Striped read is not a
// consistent cut across counters — each counter is individually exact and
// monotone, but a snapshot taken mid-operation can, for example, show a
// lookup's optimistic attempt before the lookup itself is counted. Deltas
// computed between two snapshots of a quiesced filter are exact.
package stats

import "sync/atomic"

// Counter indices. OpCounts is the exported mirror; keep the two in sync
// (asserted by TestOpCountsMirrorsIndices).
const (
	opInserts = iota
	opInsertFailures
	opShortcutInserts
	opLookups
	opRemoves
	opRemoveMisses
	opOptAttempts
	opOptRetries
	opOptFallbacks
	opBatchOps
	opBatchKeys
	numOps
)

// OpCounts is a point-in-time reading of a filter's operation counters.
// All fields are totals since filter creation.
type OpCounts struct {
	// Inserts counts successful single-key insertions (including those that
	// arrived through a batch).
	Inserts uint64 `json:"inserts"`
	// InsertFailures counts insertions rejected because both candidate
	// blocks were full.
	InsertFailures uint64 `json:"insert_failures"`
	// ShortcutInserts counts the subset of Inserts that took the §6.2
	// single-block shortcut path (primary block below the threshold).
	ShortcutInserts uint64 `json:"shortcut_inserts"`
	// Lookups counts membership queries (Contains/Get calls, each counted
	// once regardless of how many blocks were probed).
	Lookups uint64 `json:"lookups"`
	// Removes counts successful deletions; RemoveMisses counts deletions
	// that found no matching fingerprint.
	Removes      uint64 `json:"removes"`
	RemoveMisses uint64 `json:"remove_misses"`
	// OptAttempts counts optimistic (seqlock) block reads started;
	// OptRetries counts conflicted attempts that had to re-run; and
	// OptFallbacks counts reads that exhausted their retry budget and fell
	// back to the block lock. Always zero on the single-threaded filters.
	OptAttempts  uint64 `json:"optimistic_attempts"`
	OptRetries   uint64 `json:"optimistic_retries"`
	OptFallbacks uint64 `json:"optimistic_fallbacks"`
	// BatchOps counts batch API calls; BatchKeys counts the keys they
	// carried (the per-key outcomes are folded into the counters above).
	BatchOps  uint64 `json:"batch_ops"`
	BatchKeys uint64 `json:"batch_keys"`
}

// fromArray converts the internal counter array to the exported struct.
func fromArray(c *[numOps]uint64) OpCounts {
	return OpCounts{
		Inserts:         c[opInserts],
		InsertFailures:  c[opInsertFailures],
		ShortcutInserts: c[opShortcutInserts],
		Lookups:         c[opLookups],
		Removes:         c[opRemoves],
		RemoveMisses:    c[opRemoveMisses],
		OptAttempts:     c[opOptAttempts],
		OptRetries:      c[opOptRetries],
		OptFallbacks:    c[opOptFallbacks],
		BatchOps:        c[opBatchOps],
		BatchKeys:       c[opBatchKeys],
	}
}

// Add returns the per-counter sum o + other, for aggregating counters
// across the members of a composite filter (e.g. the levels of an elastic
// cascade).
func (o OpCounts) Add(other OpCounts) OpCounts {
	return OpCounts{
		Inserts:         o.Inserts + other.Inserts,
		InsertFailures:  o.InsertFailures + other.InsertFailures,
		ShortcutInserts: o.ShortcutInserts + other.ShortcutInserts,
		Lookups:         o.Lookups + other.Lookups,
		Removes:         o.Removes + other.Removes,
		RemoveMisses:    o.RemoveMisses + other.RemoveMisses,
		OptAttempts:     o.OptAttempts + other.OptAttempts,
		OptRetries:      o.OptRetries + other.OptRetries,
		OptFallbacks:    o.OptFallbacks + other.OptFallbacks,
		BatchOps:        o.BatchOps + other.BatchOps,
		BatchKeys:       o.BatchKeys + other.BatchKeys,
	}
}

// Sub returns the per-counter difference o − prev: the operations that
// happened between two readings.
func (o OpCounts) Sub(prev OpCounts) OpCounts {
	return OpCounts{
		Inserts:         o.Inserts - prev.Inserts,
		InsertFailures:  o.InsertFailures - prev.InsertFailures,
		ShortcutInserts: o.ShortcutInserts - prev.ShortcutInserts,
		Lookups:         o.Lookups - prev.Lookups,
		Removes:         o.Removes - prev.Removes,
		RemoveMisses:    o.RemoveMisses - prev.RemoveMisses,
		OptAttempts:     o.OptAttempts - prev.OptAttempts,
		OptRetries:      o.OptRetries - prev.OptRetries,
		OptFallbacks:    o.OptFallbacks - prev.OptFallbacks,
		BatchOps:        o.BatchOps - prev.BatchOps,
		BatchKeys:       o.BatchKeys - prev.BatchKeys,
	}
}

// Local is the counter carrier for single-threaded filters: plain adds, no
// atomics. It shares its owner's threading contract (one goroutine at a
// time) and its zero value is ready to use.
type Local struct {
	c [numOps]uint64
}

// Insert counts a successful two-choice insertion.
func (l *Local) Insert() { l.c[opInserts]++ }

// ShortcutInsert counts a successful insertion via the §6.2 shortcut path.
func (l *Local) ShortcutInsert() { l.c[opInserts]++; l.c[opShortcutInserts]++ }

// InsertFailure counts an insertion rejected with both blocks full.
func (l *Local) InsertFailure() { l.c[opInsertFailures]++ }

// Lookup counts one membership query.
func (l *Local) Lookup() { l.c[opLookups]++ }

// Lookups counts n membership queries answered together by a batch kernel.
func (l *Local) Lookups(n int) { l.c[opLookups] += uint64(n) }

// Remove counts a successful deletion.
func (l *Local) Remove() { l.c[opRemoves]++ }

// RemoveMiss counts a deletion that found nothing.
func (l *Local) RemoveMiss() { l.c[opRemoveMisses]++ }

// Batch counts one batch call carrying n keys.
func (l *Local) Batch(n int) { l.c[opBatchOps]++; l.c[opBatchKeys] += uint64(n) }

// Counts returns the current totals.
func (l *Local) Counts() OpCounts { return fromArray(&l.c) }

// Striped configuration. 32 stripes of two cache lines each (2 KiB per
// filter) keeps concurrent goroutines operating on different blocks from
// bouncing a shared counter line; the selector is the operation's primary
// block index, so stripe collisions track block collisions.
const (
	stripeCount = 32
	stripeMask  = stripeCount - 1
)

// stripe is one padded counter bank. numOps atomic words are padded to a
// multiple of 128 bytes (two cache lines, covering the adjacent-line
// prefetcher) so neighboring stripes never share a line.
type stripe struct {
	c [numOps]atomic.Uint64
	_ [(128 - (numOps*8)%128) % 128]byte
}

// Striped is the counter carrier for concurrent filters: per-stripe atomic
// counters, selected by the operation's primary block index. The zero value
// is ready to use. All methods are safe for concurrent use.
type Striped struct {
	s [stripeCount]stripe
}

func (t *Striped) at(sel uint64) *stripe { return &t.s[sel&stripeMask] }

// Insert counts a successful two-choice insertion on stripe sel.
func (t *Striped) Insert(sel uint64) { t.at(sel).c[opInserts].Add(1) }

// ShortcutInsert counts a successful shortcut-path insertion on stripe sel.
func (t *Striped) ShortcutInsert(sel uint64) {
	s := t.at(sel)
	s.c[opInserts].Add(1)
	s.c[opShortcutInserts].Add(1)
}

// InsertFailure counts a rejected insertion on stripe sel.
func (t *Striped) InsertFailure(sel uint64) { t.at(sel).c[opInsertFailures].Add(1) }

// Lookup counts one membership query on stripe sel.
func (t *Striped) Lookup(sel uint64) { t.at(sel).c[opLookups].Add(1) }

// Remove counts a successful deletion on stripe sel.
func (t *Striped) Remove(sel uint64) { t.at(sel).c[opRemoves].Add(1) }

// RemoveMiss counts a missed deletion on stripe sel.
func (t *Striped) RemoveMiss(sel uint64) { t.at(sel).c[opRemoveMisses].Add(1) }

// Optimistic records one optimistic block read on stripe sel: retries is the
// number of conflicted attempts before it resolved, and fellBack reports
// whether it gave up and took the block lock.
func (t *Striped) Optimistic(sel uint64, retries uint, fellBack bool) {
	s := t.at(sel)
	s.c[opOptAttempts].Add(1)
	if retries > 0 {
		s.c[opOptRetries].Add(uint64(retries))
	}
	if fellBack {
		s.c[opOptFallbacks].Add(1)
	}
}

// Probed counts, on stripe sel, n lookups a validated batch kernel
// answered, each one optimistic attempt on both candidate blocks, and
// conflicts keys it handed back to the per-key path, one retry each; that
// path counts those keys' lookups and attempts itself. Zero counts add
// nothing.
func (t *Striped) Probed(sel uint64, n, conflicts int) {
	s := t.at(sel)
	if n > 0 {
		s.c[opLookups].Add(uint64(n))
		s.c[opOptAttempts].Add(2 * uint64(n))
	}
	if conflicts > 0 {
		s.c[opOptRetries].Add(uint64(conflicts))
	}
}

// Batch counts one batch call carrying n keys.
func (t *Striped) Batch(n int) {
	s := t.at(0)
	s.c[opBatchOps].Add(1)
	s.c[opBatchKeys].Add(uint64(n))
}

// Counts sums the stripes with atomic loads. It never blocks writers; each
// counter in the result is exact and monotone across successive calls, but
// the counters are not a single consistent cut (see the package comment).
func (t *Striped) Counts() OpCounts {
	var sum [numOps]uint64
	for i := range t.s {
		for j := 0; j < numOps; j++ {
			sum[j] += t.s[i].c[j].Load()
		}
	}
	return fromArray(&sum)
}
