package stats

import (
	"sync"
	"testing"
	"unsafe"
)

// TestOpCountsMirrorsIndices locks the counter-array ↔ struct mapping: every
// index must land in its own struct field.
func TestOpCountsMirrorsIndices(t *testing.T) {
	var c [numOps]uint64
	for i := range c {
		c[i] = uint64(i) + 1
	}
	o := fromArray(&c)
	want := OpCounts{
		Inserts:         opInserts + 1,
		InsertFailures:  opInsertFailures + 1,
		ShortcutInserts: opShortcutInserts + 1,
		Lookups:         opLookups + 1,
		Removes:         opRemoves + 1,
		RemoveMisses:    opRemoveMisses + 1,
		OptAttempts:     opOptAttempts + 1,
		OptRetries:      opOptRetries + 1,
		OptFallbacks:    opOptFallbacks + 1,
		BatchOps:        opBatchOps + 1,
		BatchKeys:       opBatchKeys + 1,
	}
	if o != want {
		t.Fatalf("fromArray mapping mismatch: got %+v want %+v", o, want)
	}
	if n := unsafe.Sizeof(o) / 8; n != numOps {
		t.Fatalf("OpCounts has %d fields, counter array has %d", n, numOps)
	}
}

func TestLocalCounts(t *testing.T) {
	var l Local
	l.Insert()
	l.Insert()
	l.ShortcutInsert()
	l.InsertFailure()
	l.Lookup()
	l.Lookup()
	l.Lookup()
	l.Remove()
	l.RemoveMiss()
	l.Batch(7)
	l.Batch(3)
	got := l.Counts()
	want := OpCounts{
		Inserts: 3, ShortcutInserts: 1, InsertFailures: 1,
		Lookups: 3, Removes: 1, RemoveMisses: 1,
		BatchOps: 2, BatchKeys: 10,
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestStripePadding(t *testing.T) {
	var s [2]stripe
	if sz := unsafe.Sizeof(s[0]); sz%128 != 0 {
		t.Fatalf("stripe size %d is not a multiple of 128", sz)
	}
	if d := uintptr(unsafe.Pointer(&s[1])) - uintptr(unsafe.Pointer(&s[0])); d%128 != 0 {
		t.Fatalf("adjacent stripes are %d bytes apart; want a multiple of 128", d)
	}
}

// TestStripedCounts exercises every Striped method across all stripes from
// several goroutines and checks the summed totals are exact.
func TestStripedCounts(t *testing.T) {
	var st Striped
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sel := uint64(w*perWorker + i) // walks all stripes
				st.Insert(sel)
				st.ShortcutInsert(sel)
				st.InsertFailure(sel)
				st.Lookup(sel)
				st.Remove(sel)
				st.RemoveMiss(sel)
				st.Optimistic(sel, 0, false)
				st.Optimistic(sel, 2, true)
				st.Inserted(sel, 3, 1, 2)
				st.Removed(sel, 2, 1)
				st.Inserted(sel, 0, 0, 0)
				st.Removed(sel, 0, 0)
			}
			st.Batch(perWorker)
		}(w)
	}
	wg.Wait()
	const n = workers * perWorker
	got := st.Counts()
	want := OpCounts{
		Inserts: 5 * n, ShortcutInserts: 2 * n, InsertFailures: 3 * n,
		Lookups: n, Removes: 3 * n, RemoveMisses: 2 * n,
		OptAttempts: 2 * n, OptRetries: 2 * n, OptFallbacks: n,
		BatchOps: workers, BatchKeys: n,
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestOpCountsSub(t *testing.T) {
	a := OpCounts{Inserts: 10, Lookups: 20, BatchKeys: 5}
	b := OpCounts{Inserts: 4, Lookups: 20, BatchKeys: 1}
	d := a.Sub(b)
	if d != (OpCounts{Inserts: 6, Lookups: 0, BatchKeys: 4}) {
		t.Fatalf("Sub: got %+v", d)
	}
}

func TestBuildOccupancy(t *testing.T) {
	occs := []uint{0, 3, 3, 5, 48, 48, 50} // 50 exceeds slotsPerBlock: clamped
	o := BuildOccupancy(occs, 48)
	if o.Blocks != 7 || o.SlotsPerBlock != 48 {
		t.Fatalf("blocks/slots: %+v", o)
	}
	if len(o.Histogram) != 49 {
		t.Fatalf("histogram length %d", len(o.Histogram))
	}
	if o.Histogram[0] != 1 || o.Histogram[3] != 2 || o.Histogram[5] != 1 || o.Histogram[48] != 3 {
		t.Fatalf("histogram %v", o.Histogram)
	}
	if o.Min != 0 || o.Max != 48 || o.FullBlocks != 3 {
		t.Fatalf("min/max/full: %+v", o)
	}
	// Mean/stddev computed over the clamped values.
	wantMean := float64(0+3+3+5+48+48+48) / 7
	if diff := o.Mean - wantMean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean %v want %v", o.Mean, wantMean)
	}
	if o.Stddev <= 0 {
		t.Fatalf("stddev %v", o.Stddev)
	}

	var total uint64
	for _, b := range o.Histogram {
		total += b
	}
	if total != o.Blocks {
		t.Fatalf("histogram sums to %d blocks, want %d", total, o.Blocks)
	}

	empty := BuildOccupancy(nil, 48)
	if empty.Blocks != 0 || empty.Min != 0 || empty.Max != 0 || empty.Mean != 0 {
		t.Fatalf("empty occupancy: %+v", empty)
	}
}

func TestBuildSnapshot(t *testing.T) {
	ops := OpCounts{Inserts: 90, Lookups: 10}
	s := BuildSnapshot(90, 100, 6400, 0.004, []uint{45, 45}, 48, ops)
	if s.LoadFactor != 0.9 {
		t.Fatalf("load factor %v", s.LoadFactor)
	}
	if s.BitsPerItem != 6400*8.0/90 {
		t.Fatalf("bits/item %v", s.BitsPerItem)
	}
	if s.FPREstimate != 0.004*s.LoadFactor {
		t.Fatalf("fpr estimate %v", s.FPREstimate)
	}
	if s.Ops != ops {
		t.Fatalf("ops %+v", s.Ops)
	}

	zero := BuildSnapshot(0, 0, 0, 0.004, nil, 48, OpCounts{})
	if zero.LoadFactor != 0 || zero.BitsPerItem != 0 {
		t.Fatalf("zero snapshot: %+v", zero)
	}
}
