package core

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"vqf/internal/minifilter"
	"vqf/internal/stats"
)

// TestContainsBatchInputOrder pins the ContainsBatch contract on every
// filter with one: out[i] answers hs[i], into a dirty, oversized dst that
// is reused.
// Membership is deterministic for a fixed filter, so batch answers must
// equal per-key Contains exactly (false positives included), and an empty
// batch answers nothing. The concurrent and sharded rows run at GOMAXPROCS 4 with a batch that is cut
// into caller-order chunks, and repeat one key on both sides of every
// chunk edge.
func TestContainsBatchInputOrder(t *testing.T) {
	type lookupFilter interface {
		InsertBatch([]uint64) int
		Contains(uint64) bool
		ContainsBatch([]uint64, []bool) []bool
	}
	for _, c := range []struct {
		name    string
		chunked bool
		f       lookupFilter
	}{
		{"8", false, NewFilter8(1<<13, Options{})},
		{"16", false, NewFilter16(1<<13, Options{})},
		{"CFilter8", true, NewCFilter8(1<<13, Options{})},
		{"CFilter16", true, NewCFilter16(1<<13, Options{})},
		{"Sharded8x1", true, NewSharded8(1<<13, 1, Options{})},
		{"Sharded8x4", true, NewSharded8(1<<13, 4, Options{})},
		{"Sharded16x1", true, NewSharded16(1<<13, 1, Options{})},
		{"Sharded16x4", true, NewSharded16(1<<13, 4, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			present := make([]uint64, minParallelBatch)
			for i := range present {
				present[i] = rng.Uint64()
			}
			c.f.InsertBatch(present)
			// Interleave present and absent keys so hits and misses
			// alternate: 2*minParallelBatch+1 keys.
			hs := make([]uint64, 0, 2*len(present)+1)
			for _, h := range present {
				hs = append(hs, h, rng.Uint64())
			}
			hs = append(hs, rng.Uint64())
			if c.chunked {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				w := batchWorkers(len(hs), len(hs))
				if w < 2 {
					t.Fatalf("scenario too weak: a %d-key batch runs on %d worker", len(hs), w)
				}
				for k := 1; k < w; k++ {
					edge := k * len(hs) / w
					hs[edge-1], hs[edge] = present[k], present[k]
				}
			}
			dst := make([]bool, len(hs)+100)
			for i := range dst {
				dst[i] = true
			}
			got := c.f.ContainsBatch(hs, dst)
			if len(got) != len(hs) {
				t.Fatalf("result length %d != %d", len(got), len(hs))
			}
			if &got[0] != &dst[0] {
				t.Fatal("oversized dst was not reused")
			}
			for i, h := range hs {
				if got[i] != c.f.Contains(h) {
					t.Fatalf("out[%d] = %v, Contains(hs[%d]) = %v", i, got[i], i, c.f.Contains(h))
				}
			}
			if out := c.f.ContainsBatch(nil, dst); len(out) != 0 {
				t.Fatalf("empty batch returned %d results", len(out))
			}
		})
	}
}

// TestContainsBatchReusesDst checks that a dirty, oversized dst is reused
// and every position rewritten: stale true values must not leak through for
// misses.
func TestContainsBatchReusesDst(t *testing.T) {
	f := NewFilter8(1<<12, Options{})
	rng := rand.New(rand.NewSource(12))
	hs := make([]uint64, 1000) // all absent: filter is empty
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	dst := make([]bool, 2000)
	for i := range dst {
		dst[i] = true
	}
	out := f.ContainsBatch(hs, dst)
	if len(out) != len(hs) {
		t.Fatalf("result length %d != %d", len(out), len(hs))
	}
	if &out[0] != &dst[0] {
		t.Fatal("oversized dst was not reused")
	}
	for i, v := range out {
		if v {
			t.Fatalf("stale true leaked at %d on an empty filter", i)
		}
	}
}

// TestBatchEmptyAndTiny: zero-length and single-key batches insert, answer
// and remove like the per-key calls.
func TestBatchEmptyAndTiny(t *testing.T) {
	f := NewFilter8(1<<10, Options{})
	if got := f.InsertBatch(nil); got != 0 {
		t.Fatalf("InsertBatch(nil) = %d", got)
	}
	if out := f.ContainsBatch(nil, nil); len(out) != 0 {
		t.Fatalf("ContainsBatch(nil) returned %d results", len(out))
	}
	if got := f.RemoveBatch(nil); got != 0 {
		t.Fatalf("RemoveBatch(nil) = %d", got)
	}
	if got := f.InsertBatch([]uint64{42}); got != 1 {
		t.Fatalf("single-key InsertBatch = %d", got)
	}
	// Raw small integers can collide into false positives; compare the absent
	// key against Contains instead of assuming false.
	if out := f.ContainsBatch([]uint64{42, 43}, nil); !out[0] || out[1] != f.Contains(43) {
		t.Fatalf("tiny ContainsBatch = %v, Contains(43) = %v", out, f.Contains(43))
	}
	if got := f.RemoveBatch([]uint64{42}); got != 1 {
		t.Fatalf("single-key RemoveBatch = %d", got)
	}
	if f.Count() != 0 {
		t.Fatalf("count %d after symmetric insert/remove", f.Count())
	}
}

// TestInsertBatchAllDuplicates: a batch of one repeated key lands entirely
// on one block pair; successes must match repeated per-key Insert on an
// identical filter (both candidate blocks fill, the rest fail).
func TestInsertBatchAllDuplicates(t *testing.T) {
	const n = 1024 // >> two blocks' 96 slots
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = 0xdeadbeefcafef00d
	}
	f := NewFilter8(1<<12, Options{})
	model := NewFilter8(1<<12, Options{})
	want := 0
	for range hs {
		if model.Insert(hs[0]) {
			want++
		}
	}
	got := f.InsertBatch(hs)
	if got != want {
		t.Fatalf("duplicate batch inserted %d, per-key reference %d", got, want)
	}
	if got >= n {
		t.Fatal("scenario too weak: every duplicate fit")
	}
	if f.Count() != uint64(got) {
		t.Fatalf("Count %d != returned %d", f.Count(), got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after duplicate overflow: %v", err)
	}
	// Removing the duplicates back out must find exactly the stored copies.
	if removed := f.RemoveBatch(hs); removed != got {
		t.Fatalf("RemoveBatch removed %d of %d stored duplicates", removed, got)
	}
	if f.Count() != 0 {
		t.Fatalf("count %d after removing all duplicates", f.Count())
	}
}

// TestRemoveBatchMatchesPerKey: batch removal of a present/absent mix agrees
// with per-key Remove fed the same keys in caller order.
func TestRemoveBatchMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	present := make([]uint64, 4096)
	for i := range present {
		present[i] = rng.Uint64()
	}
	f := NewFilter16(1<<13, Options{})
	model := NewFilter16(1<<13, Options{})
	f.InsertBatch(present)
	model.InsertBatch(present)
	// Remove every other present key plus noise that was never inserted.
	victims := make([]uint64, 0, len(present))
	for i := 0; i < len(present); i += 2 {
		victims = append(victims, present[i], rng.Uint64())
	}
	want := 0
	for _, h := range victims {
		if model.Remove(h) {
			want++
		}
	}
	got := f.RemoveBatch(victims)
	if got != want {
		t.Fatalf("RemoveBatch = %d, per-key reference = %d", got, want)
	}
	if f.Count() != model.Count() {
		t.Fatalf("counts differ after batch removal: %d vs %d", f.Count(), model.Count())
	}
}

// TestBatchZeroAlloc guards the pipeline's allocation-free steady state:
// after a warm-up call grows the scratch buffers, batch calls (and the
// single-key hot paths they are built from) must not allocate at all.
func TestBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	hs := make([]uint64, 4096)
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	dst := make([]bool, len(hs))

	t.Run("Filter8", func(t *testing.T) {
		f := NewFilter8(1<<16, Options{})
		f.InsertBatch(hs) // warm up scratch
		checkAllocs(t, "ContainsBatch", func() { f.ContainsBatch(hs, dst) })
		checkAllocs(t, "RemoveBatch", func() { f.RemoveBatch(hs) })
		checkAllocs(t, "InsertBatch", func() { f.InsertBatch(hs[:512]) })
		k := rng.Uint64()
		checkAllocs(t, "Insert", func() { f.Insert(k) })
		checkAllocs(t, "Contains", func() { f.Contains(k) })
		checkAllocs(t, "Remove", func() { f.Remove(k) })
	})
	t.Run("Filter16", func(t *testing.T) {
		f := NewFilter16(1<<16, Options{})
		f.InsertBatch(hs)
		checkAllocs(t, "ContainsBatch", func() { f.ContainsBatch(hs, dst) })
		checkAllocs(t, "RemoveBatch", func() { f.RemoveBatch(hs) })
		checkAllocs(t, "InsertBatch", func() { f.InsertBatch(hs[:512]) })
		k := rng.Uint64()
		checkAllocs(t, "Insert", func() { f.Insert(k) })
		checkAllocs(t, "Contains", func() { f.Contains(k) })
		checkAllocs(t, "Remove", func() { f.Remove(k) })
	})
	// The concurrent and sharded lookups answer in caller order with no
	// partition, and their writes sort into a parked buffer, so on one
	// worker they allocate nothing either.
	for _, c := range []struct {
		name string
		f    interface {
			InsertBatch([]uint64) int
			RemoveBatch([]uint64) int
			ContainsBatch([]uint64, []bool) []bool
		}
	}{
		{"CFilter8", NewCFilter8(1<<16, Options{})},
		{"CFilter16", NewCFilter16(1<<16, Options{})},
		{"Sharded8", NewSharded8(1<<16, 4, Options{})},
		{"Sharded16", NewSharded16(1<<16, 4, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			c.f.InsertBatch(hs) // warm up the parked sort buffers
			checkAllocs(t, "ContainsBatch", func() { c.f.ContainsBatch(hs, dst) })
			checkAllocs(t, "RemoveBatch", func() { c.f.RemoveBatch(hs) })
			checkAllocs(t, "InsertBatch", func() { c.f.InsertBatch(hs[:512]) })
		})
	}
}

func checkAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(20, fn); avg != 0 {
		t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
	}
}

// withAsm runs fn once with the assembly kernels on and once with them off,
// so both ContainsBatch paths — the batch kernel and the per-key fallback —
// see the same checks.
func withAsm(t *testing.T, fn func(t *testing.T)) {
	defer minifilter.SetAsmKernels(true)
	for _, asm := range []bool{true, false} {
		minifilter.SetAsmKernels(asm)
		name := "generic"
		if minifilter.AsmEnabled() {
			name = "kernel"
		}
		t.Run(name, fn)
	}
}

// TestContainsBatchCountsLookups: a batch counts one lookup per key, on the
// batch kernel's bulk path as on the per-key fallback.
func TestContainsBatchCountsLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	hs := make([]uint64, 3000)
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	withAsm(t, func(t *testing.T) {
		f8 := NewFilter8(1<<12, Options{})
		f16 := NewFilter16(1<<12, Options{})
		for _, f := range []interface {
			InsertBatch([]uint64) int
			ContainsBatch([]uint64, []bool) []bool
			Stats() stats.OpCounts
		}{f8, f16} {
			f.InsertBatch(hs[:1000])
			before := f.Stats()
			f.ContainsBatch(hs, nil)
			d := f.Stats().Sub(before)
			if d.Lookups != uint64(len(hs)) || d.BatchKeys != uint64(len(hs)) || d.BatchOps != 1 {
				t.Fatalf("%T: ContainsBatch of %d keys counted %d lookups, %d batch keys, %d batch ops",
					f, len(hs), d.Lookups, d.BatchKeys, d.BatchOps)
			}
		}
	})
}

// TestContainsBatchExactCounters: with no writer running, the validated
// kernel answers every key of a concurrent or sharded batch itself, so a
// batch of n keys counts exactly n lookups and 2n optimistic attempts (both
// candidates of every key), and no retry or fallback.
func TestContainsBatchExactCounters(t *testing.T) {
	if !minifilter.AsmEnabled() {
		t.Skip("batch kernel not in use")
	}
	rng := rand.New(rand.NewSource(18))
	hs := make([]uint64, 3000)
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	for _, c := range []struct {
		name string
		f    interface {
			InsertBatch([]uint64) int
			ContainsBatch([]uint64, []bool) []bool
			Stats() stats.OpCounts
		}
	}{
		{"CFilter8", NewCFilter8(1<<14, Options{})},
		{"CFilter16", NewCFilter16(1<<14, Options{})},
		{"Sharded8", NewSharded8(1<<14, 4, Options{})},
		{"Sharded16", NewSharded16(1<<14, 4, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			c.f.InsertBatch(hs[:1500])
			before := c.f.Stats()
			out := c.f.ContainsBatch(hs, nil)
			d := c.f.Stats().Sub(before)
			n := uint64(len(hs))
			if d.Lookups != n || d.OptAttempts != 2*n || d.OptRetries != 0 || d.OptFallbacks != 0 || d.BatchKeys != n {
				t.Fatalf("batch of %d keys counted %d lookups, %d attempts, %d retries, %d fallbacks, %d batch keys",
					n, d.Lookups, d.OptAttempts, d.OptRetries, d.OptFallbacks, d.BatchKeys)
			}
			for i, h := range hs[:1500] {
				if !out[i] {
					t.Fatalf("inserted key %d (%#x) not found", i, h)
				}
			}
		})
	}
}

// TestContainsBatchSplit pins the batch kernel's key split to split8 and
// split16: a fingerprint planted at the key's bucket in either block that
// CandidateBlocks names must be found, and one planted in any other block,
// any other bucket or as any other fingerprint must not (each key is probed
// alone against an otherwise empty filter, so nothing else can answer).
func TestContainsBatchSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	hs := make([]uint64, 300)
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	probe := func(t *testing.T, h uint64, contains func([]uint64, []bool) []bool, want bool, what string) {
		t.Helper()
		if got := contains([]uint64{h}, nil)[0]; got != want {
			t.Fatalf("key %#x planted %s: ContainsBatch = %v, want %v", h, what, got, want)
		}
	}
	t.Run("Filter8", func(t *testing.T) {
		withAsm(t, func(t *testing.T) {
			f := NewFilter8(1<<12, Options{})
			blocks := f.Blocks()
			for _, h := range hs {
				b1, b2 := f.CandidateBlocks(h)
				_, bucket, fp, _ := split8(h, f.mask)
				other := (b1 + 1) & f.mask
				if other == b2 {
					other = (other + 1) & f.mask
				}
				for _, c := range []struct {
					blk    uint64
					bucket uint
					fp     byte
					want   bool
					what   string
				}{
					{b1, bucket, fp, true, "in the primary block"},
					{b2, bucket, fp, true, "in the partner block"},
					{other, bucket, fp, false, "in another block"},
					{b1, (bucket + 1) % 80, fp, false, "in another bucket"},
					{b2, bucket, fp + 1, false, "as another fingerprint"},
				} {
					blocks[c.blk].Insert(c.bucket, c.fp)
					probe(t, h, f.ContainsBatch, c.want, c.what)
					blocks[c.blk].Remove(c.bucket, c.fp)
				}
			}
		})
	})
	t.Run("Filter16", func(t *testing.T) {
		withAsm(t, func(t *testing.T) {
			f := NewFilter16(1<<12, Options{})
			blocks := f.Blocks()
			for _, h := range hs {
				b1, b2 := f.CandidateBlocks(h)
				_, bucket, fp, _ := split16(h, f.mask)
				other := (b1 + 1) & f.mask
				if other == b2 {
					other = (other + 1) & f.mask
				}
				for _, c := range []struct {
					blk    uint64
					bucket uint
					fp     uint16
					want   bool
					what   string
				}{
					{b1, bucket, fp, true, "in the primary block"},
					{b2, bucket, fp, true, "in the partner block"},
					{other, bucket, fp, false, "in another block"},
					{b1, (bucket + 1) % 36, fp, false, "in another bucket"},
					{b2, bucket, fp + 1, false, "as another fingerprint"},
				} {
					blocks[c.blk].Insert(c.bucket, c.fp)
					probe(t, h, f.ContainsBatch, c.want, c.what)
					blocks[c.blk].Remove(c.bucket, c.fp)
				}
			}
		})
	})
}

// TestBatchWritesMatchCallerOrder pins the order of a batch write that runs
// on one worker: on the sequential filters and on one-worker concurrent
// filters filled close to full, InsertBatch and RemoveBatch return the same
// counts as a caller-order loop of Insert and Remove, and leave a
// byte-identical stream. Near full, placement depends on insertion order
// (a key goes to the emptier of its two blocks, or fails when both are
// full), so a batch that reordered its keys would store them elsewhere.
func TestBatchWritesMatchCallerOrder(t *testing.T) {
	type writer interface {
		Insert(uint64) bool
		Remove(uint64) bool
		InsertBatch([]uint64) int
		RemoveBatch([]uint64) int
		Count() uint64
		Capacity() uint64
		WriteTo(io.Writer) (int64, error)
	}
	const nslots = 1 << 13
	for _, c := range []struct {
		name          string
		batch, perKey writer
	}{
		{"Filter8", NewFilter8(nslots, Options{}), NewFilter8(nslots, Options{})},
		{"Filter16", NewFilter16(nslots, Options{}), NewFilter16(nslots, Options{})},
		{"CFilter8", NewCFilter8(nslots, Options{}), NewCFilter8(nslots, Options{})},
		{"CFilter16", NewCFilter16(nslots, Options{}), NewCFilter16(nslots, Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			stream := func(f writer) []byte {
				var buf bytes.Buffer
				if _, err := f.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			check := func(op string, i, got, want int) {
				t.Helper()
				if got != want {
					t.Fatalf("%s batch %d: %d successes, caller-order loop %d", op, i, got, want)
				}
				if c.batch.Count() != c.perKey.Count() {
					t.Fatalf("%s batch %d: count %d, caller-order loop %d", op, i, c.batch.Count(), c.perKey.Count())
				}
				if !bytes.Equal(stream(c.batch), stream(c.perKey)) {
					t.Fatalf("%s batch %d: stream differs from the caller-order loop's", op, i)
				}
			}
			rng := rand.New(rand.NewSource(19))
			var offered []uint64
			failed := false
			// Offer 5% more keys than there are slots, in 1024-key
			// batches, so the last batches run into full block pairs.
			for i := 0; uint64(len(offered)) < c.batch.Capacity()*21/20; i++ {
				hs := make([]uint64, 1024)
				for j := range hs {
					hs[j] = rng.Uint64()
				}
				want := 0
				for _, h := range hs {
					if c.perKey.Insert(h) {
						want++
					}
				}
				got := c.batch.InsertBatch(hs)
				failed = failed || got < len(hs)
				check("insert", i, got, want)
				offered = append(offered, hs...)
			}
			if !failed {
				t.Fatal("scenario too weak: no insert failed")
			}
			// Remove every other offered key, offered or refused, mixed
			// with keys never offered.
			for i := 0; i*2048 < len(offered); i++ {
				hs := make([]uint64, 0, 1024)
				for j := i * 2048; j < min((i+1)*2048, len(offered)); j += 4 {
					hs = append(hs, offered[j], rng.Uint64())
				}
				want := 0
				for _, h := range hs {
					if c.perKey.Remove(h) {
						want++
					}
				}
				check("remove", i, c.batch.RemoveBatch(hs), want)
			}
		})
	}
}
