package core

import (
	"io"
	"sync/atomic"
	"unsafe"

	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// The width-independent shell of every filter type, written once and
// generic over the block type. Nothing here calls a block method on a
// per-key path: those calls are static in the width-specific files, where
// the embedded shell's blocks field is a concrete slice. The block methods
// the shell does call go through the generic dictionary, once per block
// or per batch.

// blockPtr is the block-method surface the shell uses.
type blockPtr[B any] interface {
	*B
	Reset()
	Occupancy() uint
	OccupancySnapshot(seq *atomic.Uint64) uint
}

// Both block types are exactly eight uint64 words (see words).
var (
	_ = [1]struct{}{}[unsafe.Sizeof(minifilter.Block8{})-64]
	_ = [1]struct{}{}[unsafe.Sizeof(minifilter.Block16{})-64]
)

// words views a block array as its raw words, eight per block: the
// metadata words, then the fingerprint words, in field order — the order
// they serialize in.
func words[B any](blocks []B) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(blocks))), len(blocks)*8)
}

// newBlocks returns k empty blocks.
func newBlocks[B any, P blockPtr[B]](k uint64) []B {
	blocks := make([]B, k)
	for i := range blocks {
		P(&blocks[i]).Reset()
	}
	return blocks
}

// filter is the shell of the single-threaded Filter8 and Filter16.
type filter[B any, P blockPtr[B]] struct {
	blocks []B
	mask   uint64
	count  uint64
	opts   Options
	thresh uint
	geo    *Geometry
	st     stats.Local
}

func (f *filter[B, P]) init(g *Geometry, blocks []B, count uint64, opts Options) {
	f.blocks, f.mask, f.count = blocks, uint64(len(blocks))-1, count
	f.opts, f.thresh, f.geo = opts, opts.threshold(g), g
}

// Capacity returns the total number of fingerprint slots.
func (f *filter[B, P]) Capacity() uint64 { return uint64(len(f.blocks)) * f.geo.Slots }

// Count returns the number of fingerprints currently stored.
func (f *filter[B, P]) Count() uint64 { return f.count }

// LoadFactor returns Count divided by Capacity.
func (f *filter[B, P]) LoadFactor() float64 { return float64(f.count) / float64(f.Capacity()) }

// NumBlocks returns the number of mini-filter blocks.
func (f *filter[B, P]) NumBlocks() uint64 { return uint64(len(f.blocks)) }

// SizeBytes returns the memory footprint of the block array.
func (f *filter[B, P]) SizeBytes() uint64 { return uint64(len(f.blocks)) * 64 }

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *filter[B, P]) SlotsPerBlock() uint { return uint(f.geo.Slots) }

// Geometry returns the filter's block geometry.
func (f *filter[B, P]) Geometry() *Geometry { return f.geo }

// Stats returns the filter's operation counters. Like every other method of
// the single-threaded filter, it must not race with mutations.
func (f *filter[B, P]) Stats() stats.OpCounts { return f.st.Counts() }

// BlockOccupancies returns the occupancy of every block; the harness uses it
// to measure placement variance for the power-of-two-choices experiments.
func (f *filter[B, P]) BlockOccupancies() []uint {
	out := make([]uint, len(f.blocks))
	for i := range f.blocks {
		out[i] = P(&f.blocks[i]).Occupancy()
	}
	return out
}

// CandidateBlocks returns the two block indices the pre-hashed key h may
// occupy (equal when the xor trick maps a tag back onto its primary block).
func (f *filter[B, P]) CandidateBlocks(h uint64) (uint64, uint64) {
	return f.geo.Candidates(h, f.mask)
}

// CheckInvariants verifies the filter's structural invariants: every block's
// metadata holds exactly its geometry's number of terminator bits, and block
// occupancies sum to Count. It returns a descriptive error for the first
// violation found; the test suite uses it for corruption (failure-injection)
// testing and long-churn audits.
func (f *filter[B, P]) CheckInvariants() error { return checkBlocks(words(f.blocks), f.geo, f.count) }

// Blocks exposes the block array for white-box corruption tests.
func (f *filter[B, P]) Blocks() []B { return f.blocks }

// WriteTo serializes the filter. It implements io.WriterTo.
func (f *filter[B, P]) WriteTo(w io.Writer) (int64, error) {
	return writeStream(w, f.geo.magic, f.geo, words(f.blocks), nil, f.count, f.opts, false)
}

// read loads a plain-form filter stream into f; wantBlocks != 0
// pins the block count (see ReadFilter8Sized).
func (f *filter[B, P]) read(r io.Reader, g *Geometry, wantBlocks uint64) error {
	blocks, _, count, opts, err := readStream[B](r, g.magic, g, wantBlocks, 0)
	if err != nil {
		return err
	}
	f.init(g, blocks, count, opts)
	return nil
}

// seqStripesMax is the number of seqlock version counters a concurrent
// filter keeps at most. Blocks share stripes by low index bits; a shared
// stripe can cause a spurious reader retry when an unrelated block on the
// same stripe is written, but never a missed conflict. The cap keeps the
// side array at 32 KiB regardless of filter size.
const seqStripesMax = 1 << 12

// lockState is the part of the concurrent shell the width-specific hot
// paths use besides the blocks: the seqlock version stripes and the
// rare-event ring. It is not generic, so those calls stay plain static
// calls.
type lockState struct {
	seqs    []atomic.Uint64
	seqMask uint64
	ring    *telemetry.Ring
}

// seq returns the version stripe for block index b.
func (s *lockState) seq(b uint64) *atomic.Uint64 { return &s.seqs[b&s.seqMask] }

// fallbackEvent records a seqlock retry-exhaustion fallback on block b.
func (s *lockState) fallbackEvent(b uint64, retries uint) {
	if s.ring != nil {
		s.ring.Record(telemetry.EvSeqlockFallback, b, uint64(retries), 0)
	}
}

// keyOps is a concrete filter's per-key path, which the shell's batch
// operations call: the writes for every key of a batch, the lookup only
// for keys the batch kernel hands back (or all of them where it is
// unavailable).
//
// The writes report their outcome and leave the operation counters and
// the count to their caller: Insert and Remove record one key at once
// (recordInsert, recordRemove), a batch range records its totals when it
// ends (writeKeys, sweep). The lookup counts on the stats stripe sel.
type keyOps interface {
	insert(h uint64) writeOutcome
	remove(h uint64) writeOutcome
	contains(h, sel uint64) bool
}

// writeOutcome is what one key's insert or remove did.
type writeOutcome uint8

const (
	writeMissed   writeOutcome = iota // insert refused (both blocks full), or remove found nothing
	writeDone                         // two-choice insert, or remove
	writeShortcut                     // insert through the single-block shortcut
)

// outcome maps a write's success to writeDone or writeMissed.
func outcome(ok bool) writeOutcome {
	if ok {
		return writeDone
	}
	return writeMissed
}

// cfilter is the shell of the thread-safe CFilter8 and CFilter16.
type cfilter[B minifilter.Block8 | minifilter.Block16, P blockPtr[B]] struct {
	blocks []B
	lockState
	mask   uint64
	count  atomic.Uint64
	opts   Options
	thresh uint
	geo    *Geometry
	st     stats.Striped
	ops    keyOps // the embedding filter itself

	// tab is the filter as the one-entry table the validated batch kernel
	// reads; sorts parks the batch writers' radix-sort buffer.
	tab   [1]minifilter.LockedArray
	sorts sortBuf
}

func (f *cfilter[B, P]) init(g *Geometry, blocks []B, count uint64, opts Options, ops keyOps) {
	nstripes := min(uint64(len(blocks)), seqStripesMax) // both powers of two
	f.blocks, f.mask = blocks, uint64(len(blocks))-1
	f.seqs, f.seqMask = make([]atomic.Uint64, nstripes), nstripes-1
	f.count.Store(count)
	f.opts, f.thresh, f.geo, f.ops = opts, opts.threshold(g), g, ops
	f.tab[0] = minifilter.NewLockedArray(f.blocks, f.seqs)
}

// sortBuf parks one radix-sort buffer between a filter's batch writes, so
// steady-state writes allocate nothing. A writer takes the parked buffer,
// or makes one when none is parked (another writer holds it) or it is too
// short, and parks it again when done.
type sortBuf struct{ p atomic.Pointer[[]uint64] }

// take returns a buffer of at least n keys, owned by the caller until park.
func (b *sortBuf) take(n int) *[]uint64 {
	if p := b.p.Swap(nil); p != nil && cap(*p) >= n {
		return p
	}
	s := make([]uint64, n)
	return &s
}

// park hands p back for the next writer.
func (b *sortBuf) park(p *[]uint64) { b.p.Store(p) }

// Capacity returns the total number of fingerprint slots.
func (f *cfilter[B, P]) Capacity() uint64 { return uint64(len(f.blocks)) * f.geo.Slots }

// Count returns the number of fingerprints currently stored.
func (f *cfilter[B, P]) Count() uint64 { return f.count.Load() }

// LoadFactor returns Count divided by Capacity.
func (f *cfilter[B, P]) LoadFactor() float64 { return float64(f.Count()) / float64(f.Capacity()) }

// NumBlocks returns the number of mini-filter blocks.
func (f *cfilter[B, P]) NumBlocks() uint64 { return uint64(len(f.blocks)) }

// SizeBytes returns the memory footprint of the block array and the seqlock
// version stripes.
func (f *cfilter[B, P]) SizeBytes() uint64 {
	return uint64(len(f.blocks))*64 + uint64(len(f.seqs))*8
}

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *cfilter[B, P]) SlotsPerBlock() uint { return uint(f.geo.Slots) }

// Stats returns the filter's operation counters. Safe for concurrent use:
// stripes are summed with atomic loads and writers are never blocked. Each
// counter is individually exact and monotone across calls, but a snapshot
// taken while operations are in flight is not a consistent cut (see
// internal/stats).
func (f *cfilter[B, P]) Stats() stats.OpCounts { return f.st.Counts() }

// SetEventRing attaches r as the filter's rare-event sink. The ring pointer
// is plain (not atomic): attach it right after construction, before the
// filter is shared across goroutines. A nil ring (the default) costs one
// predicted branch on the rare paths that would record.
func (f *cfilter[B, P]) SetEventRing(r *telemetry.Ring) { f.ring = r }

// BlockOccupancies returns a point-in-time occupancy of every block. Safe
// for concurrent use; each block is read from one Snapshot (falling back to
// a brief single-block lock on repeated conflicts), so writers are never
// blocked for more than one block's critical section. Blocks are sampled
// one at a time: the vector is exact per block but not a consistent cut of
// the whole filter. Snapshot reads are not recorded in the operation
// counters.
func (f *cfilter[B, P]) BlockOccupancies() []uint {
	out := make([]uint, len(f.blocks))
	for i := range f.blocks {
		out[i] = P(&f.blocks[i]).OccupancySnapshot(f.seq(uint64(i)))
	}
	return out
}

// CandidateBlocks returns the two candidate block indices for h.
func (f *cfilter[B, P]) CandidateBlocks(h uint64) (uint64, uint64) {
	return f.geo.Candidates(h, f.mask)
}

// ContainsBatch reports membership for every key of hs in input order:
// result[i] corresponds to hs[i]. Lookups run lock-free through the
// validated batch kernel, in parallel over contiguous chunks of hs when the
// batch is large enough. The result reuses dst if it has sufficient
// capacity (dst may be nil). Safe for concurrent use.
func (f *cfilter[B, P]) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	return lookupBatch(f, hs, dst)
}

// containsRange answers out[i] = Contains(hs[i]) in caller order: through
// the validated batch kernel (see probeLocked), and through the per-key
// contains for each key the kernel hands back and for every key where it
// is unavailable. It counts every key on the stats stripe of the range's
// first key rather than of each key's own block: a batch worker's counter
// lines then stay in its core's cache instead of bouncing between the cores
// of parallel workers, while concurrent ranges still spread over the
// stripes. The kernel's keys are counted with one Probed call.
func (f *cfilter[B, P]) containsRange(hs []uint64, out []bool) {
	sel := hs[0]
	i, conflicts := probeLocked(f.geo, f.tab[:], hs, out, func(i int) { out[i] = f.ops.contains(hs[i], sel) })
	f.st.Probed(sel, i-conflicts, conflicts)
	for ; i < len(hs); i++ {
		out[i] = f.ops.contains(hs[i], sel)
	}
}

// counters returns the filter's striped operation counters, for the
// sharded shell's batch lookups.
func (f *cfilter[B, P]) counters() *stats.Striped { return &f.st }

// lockedArray returns the filter as an entry of the validated batch
// kernel's table.
func (f *cfilter[B, P]) lockedArray() minifilter.LockedArray { return f.tab[0] }

// InsertBatch inserts the keys of hs, in parallel when the batch is large
// enough, returning the number successfully inserted. Every key is
// attempted (the result is a success count, not a prefix length — see
// Filter8.InsertBatch). One worker inserts in caller order; parallel
// workers in an unspecified order. Safe for concurrent use alongside any
// other operations.
func (f *cfilter[B, P]) InsertBatch(hs []uint64) int {
	return f.sweep(hs, batchWorkers(len(hs), batchShards), false)
}

// RemoveBatch removes one previously inserted instance of each key of hs,
// in parallel when the batch is large enough, returning the number found
// and removed. Safe for concurrent use.
func (f *cfilter[B, P]) RemoveBatch(hs []uint64) int {
	return f.sweep(hs, batchWorkers(len(hs), batchShards), true)
}

// recordInsert counts one key's insert outcome o on stats stripe sel and,
// when it succeeded, in the count, and reports whether it did.
func (f *cfilter[B, P]) recordInsert(sel uint64, o writeOutcome) bool {
	switch o {
	case writeShortcut:
		f.st.ShortcutInsert(sel)
	case writeDone:
		f.st.Insert(sel)
	default:
		f.st.InsertFailure(sel)
		return false
	}
	f.count.Add(1)
	return true
}

// recordRemove is recordInsert for a remove.
func (f *cfilter[B, P]) recordRemove(sel uint64, o writeOutcome) bool {
	if o == writeMissed {
		f.st.RemoveMiss(sel)
		return false
	}
	f.st.Remove(sel)
	f.count.Add(^uint64(0))
	return true
}

// sweep counts hs as one batch and inserts every key, or removes it when
// remove is set, on w workers, and returns the number of successes. One
// worker writes hs in caller order; w ≥ 2 workers claim the buckets of a
// radix sort by primary block, so no two write the same primary block. The
// bookkeeping is per range, not per key: each worker's range adds its
// outcome totals to one stats stripe, and the count moves once, by the
// batch's total, at the end. Per-key adds from every worker to the one
// count word, and to stripes picked by each key's block, bounced those
// cache lines between the workers' cores on nearly every write, which made
// a two-worker batch slower than the same keys written one at a time. The
// sort buffer is the parked one, and only the parallel path sorts or
// builds a closure, so one worker allocates nothing.
func (f *cfilter[B, P]) sweep(hs []uint64, w int, remove bool) int {
	f.st.Batch(len(hs))
	n := f.writeSorted(hs, w, remove)
	if remove {
		f.count.Add(-uint64(n))
	} else {
		f.count.Add(uint64(n))
	}
	return n
}

// writeSorted is sweep without the batch and count bookkeeping.
func (f *cfilter[B, P]) writeSorted(hs []uint64, w int, remove bool) int {
	if w == 1 {
		return f.writeKeys(hs, remove)
	}
	buf := f.sorts.take(len(hs))
	defer f.sorts.park(buf)
	sorted, bounds := radixSort(hs, *buf, blockDigit(f.mask, f.geo.BlockShift))
	n, _ := claim(w, bounds[:], func(lo, hi, _ int) int { return f.writeKeys(sorted[lo:hi], remove) })
	return n
}

// writeKeys inserts every key of hs, or removes it when remove is set,
// returns the number of successes, and adds the outcomes to the operation
// counters on the stats stripe of hs's first key, as a batch lookup range
// does (see containsRange). The count is the caller's.
func (f *cfilter[B, P]) writeKeys(hs []uint64, remove bool) int {
	if len(hs) == 0 {
		return 0
	}
	var tally [3]int // by writeOutcome
	if remove {
		for _, h := range hs {
			tally[f.ops.remove(h)]++
		}
		f.st.Removed(hs[0], tally[writeDone], tally[writeMissed])
	} else {
		for _, h := range hs {
			tally[f.ops.insert(h)]++
		}
		f.st.Inserted(hs[0], tally[writeDone]+tally[writeShortcut], tally[writeShortcut], tally[writeMissed])
	}
	return tally[writeDone] + tally[writeShortcut]
}

// Geometry returns the filter's block geometry.
func (f *cfilter[B, P]) Geometry() *Geometry { return f.geo }

// WriteTo serializes the filter in the sequential stream format of its
// width; it implements io.WriterTo. The filter must be quiescent (see
// serialize.go).
func (f *cfilter[B, P]) WriteTo(w io.Writer) (int64, error) {
	return writeStream(w, f.geo.magic, f.geo, words(f.blocks), nil, f.count.Load(), f.opts, true)
}

// read loads a stream of either the sequential or the concurrent writer
// into f, converting each block to the locked-mode form.
func (f *cfilter[B, P]) read(r io.Reader, g *Geometry, ops keyOps) error {
	blocks, _, count, opts, err := readStream[B](r, g.magic, g, 0, 0)
	if err != nil {
		return err
	}
	ws := words(blocks)
	for i := g.metaWords - 1; i < len(ws); i += 8 {
		ws[i] &^= minifilter.LockBit // plain full-bit -> locked stored form
	}
	f.init(g, blocks, count, opts, ops)
	return nil
}
