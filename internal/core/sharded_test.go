package core

import (
	"bytes"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vqf/internal/workload"
)

// TestRadixSort checks the one counting sort behind every batch write, for
// block-prefix and shard digits: the output is a stable permutation of the
// input and every key lies inside its bucket's bounds, where its bucket is
// the top bits of its block index or its shard.
func TestRadixSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	// blockPrefix is a key's primary block index cut to its top 8 bits.
	blockPrefix := func(mask uint64, shift uint) func(uint64) uint64 {
		drop := uint(max(bits.Len64(mask)-batchRadixBits, 0))
		return func(h uint64) uint64 { return (h >> shift & mask) >> drop }
	}
	shard := func(sb uint) func(uint64) uint64 { return func(h uint64) uint64 { return ShardOf(h, sb) } }
	for _, c := range []struct {
		name   string
		d      digit
		bucket func(uint64) uint64
		n      int
	}{
		{"shard/0bits", shardDigit(0), shard(0), len(keys)},
		{"shard/1bit", shardDigit(1), shard(1), len(keys)},
		{"shard/8bits", shardDigit(8), shard(8), len(keys)},
		{"block/0bits", blockDigit(0, blockShift8), blockPrefix(0, blockShift8), len(keys)},
		{"block/1bit", blockDigit(1, blockShift8), blockPrefix(1, blockShift8), len(keys)},
		{"block/8bits", blockDigit(1<<8-1, blockShift16), blockPrefix(1<<8-1, blockShift16), len(keys)},
		{"block/prefix", blockDigit(1<<20-1, blockShift8), blockPrefix(1<<20-1, blockShift8), len(keys)},
		{"shard/empty", shardDigit(8), shard(8), 0},
		{"block/empty", blockDigit(1<<20-1, blockShift8), blockPrefix(1<<20-1, blockShift8), 0},
		{"shard/one", shardDigit(8), shard(8), 1},
		{"block/one", blockDigit(1<<20-1, blockShift16), blockPrefix(1<<20-1, blockShift16), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := keys[:c.n]
			pos := make(map[uint64]int, len(hs)) // keys are distinct
			for i, h := range hs {
				pos[h] = i
			}
			sorted, bounds := radixSort(hs, make([]uint64, len(hs)+3), c.d)
			if len(sorted) != len(hs) || bounds[0] != 0 || bounds[batchShards] != len(hs) {
				t.Fatalf("shape: %d keys out of %d, bounds %d..%d", len(sorted), len(hs), bounds[0], bounds[batchShards])
			}
			for b := 0; b < batchShards; b++ {
				if bounds[b] > bounds[b+1] {
					t.Fatalf("bounds decrease at bucket %d", b)
				}
				last := -1
				for _, h := range sorted[bounds[b]:bounds[b+1]] {
					if got := c.bucket(h); got != uint64(b) {
						t.Fatalf("key %#x (bucket %d) filed under bucket %d", h, got, b)
					}
					i, ok := pos[h]
					if !ok || i <= last {
						t.Fatalf("bucket %d: key %#x out of input order or not an input key", b, h)
					}
					last = i
					delete(pos, h)
				}
			}
			if len(pos) != 0 {
				t.Fatalf("%d input keys missing from the output", len(pos))
			}
		})
	}
}

// TestShardedBasic runs single-key operations through several shard counts
// and checks the aggregate gauges against the per-shard ones.
func TestShardedBasic(t *testing.T) {
	for _, nshards := range []int{1, 4, 5, 8} {
		f := NewSharded8(1<<13, nshards, Options{})
		want := 1 << ShardBitsFor(nshards)
		if f.NumShards() != want {
			t.Fatalf("nshards %d: got %d shards, want %d", nshards, f.NumShards(), want)
		}
		if f.Capacity() < 1<<13 {
			t.Fatalf("nshards %d: capacity %d below requested", nshards, f.Capacity())
		}
		keys := workload.NewStream(uint64(7 + nshards)).Keys(4000)
		for _, h := range keys {
			if !f.Insert(h) {
				t.Fatalf("nshards %d: insert failed at low load", nshards)
			}
		}
		for _, h := range keys {
			if !f.Contains(h) {
				t.Fatalf("nshards %d: false negative", nshards)
			}
		}
		if f.Count() != uint64(len(keys)) {
			t.Fatalf("nshards %d: count %d, want %d", nshards, f.Count(), len(keys))
		}
		var sum uint64
		for _, c := range f.ShardCounts() {
			sum += c
		}
		if sum != f.Count() {
			t.Fatalf("nshards %d: shard counts sum %d != count %d", nshards, sum, f.Count())
		}
		if occs := f.BlockOccupancies(); uint64(len(occs))*uint64(f.SlotsPerBlock()) != f.Capacity() {
			t.Fatalf("nshards %d: occupancy vector does not cover capacity", nshards)
		}
		for _, h := range keys[:100] {
			if !f.Remove(h) {
				t.Fatalf("nshards %d: remove failed", nshards)
			}
		}
		if f.Count() != uint64(len(keys)-100) {
			t.Fatalf("nshards %d: count after removes %d", nshards, f.Count())
		}
	}
}

// TestShardedBalance checks that top-bit shard selection spreads uniform
// keys evenly: no shard more than 2x the mean.
func TestShardedBalance(t *testing.T) {
	f := NewSharded16(1<<14, 8, Options{})
	keys := workload.NewStream(42).Keys(8000)
	for _, h := range keys {
		f.Insert(h)
	}
	mean := float64(len(keys)) / float64(f.NumShards())
	for s, c := range f.ShardCounts() {
		if float64(c) > 2*mean || float64(c) < mean/2 {
			t.Fatalf("shard %d holds %d of %d keys (mean %.0f)", s, c, len(keys), mean)
		}
	}
}

// shardedBatchRun drives the batch API against a single-key reference on the
// same key set and checks the results agree. gomax > 0 temporarily raises
// GOMAXPROCS so the shard-disjoint worker pool engages even on small hosts.
func shardedBatchRun(t *testing.T, nshards, nkeys, gomax int) {
	t.Helper()
	if gomax > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomax))
	}
	f := NewSharded8(uint64(nkeys)*2, nshards, Options{})
	ref := NewSharded8(uint64(nkeys)*2, nshards, Options{})
	keys := workload.NewStream(uint64(1000 + nkeys)).Keys(nkeys)
	ins := f.InsertBatch(keys)
	refIns := 0
	for _, h := range keys {
		if ref.Insert(h) {
			refIns++
		}
	}
	if ins != refIns {
		t.Fatalf("InsertBatch inserted %d, reference %d", ins, refIns)
	}
	if f.Count() != ref.Count() {
		t.Fatalf("count %d after batch, reference %d", f.Count(), ref.Count())
	}
	// Mix present and absent keys, verify order-preserving scatter.
	probe := append(append([]uint64{}, keys...), workload.NewStream(77).Keys(nkeys)...)
	got := f.ContainsBatch(probe, nil)
	for i, h := range probe {
		if got[i] != ref.Contains(h) {
			t.Fatalf("ContainsBatch[%d] = %v, reference %v", i, got[i], !got[i])
		}
	}
	rem := f.RemoveBatch(keys)
	refRem := 0
	for _, h := range keys {
		if ref.Remove(h) {
			refRem++
		}
	}
	if rem != refRem {
		t.Fatalf("RemoveBatch removed %d, reference %d", rem, refRem)
	}
	if f.Count() != ref.Count() {
		t.Fatalf("count %d after batch removes, reference %d", f.Count(), ref.Count())
	}
}

func TestShardedBatchSmall(t *testing.T)    { shardedBatchRun(t, 4, 1000, 0) }               // w==1 path
func TestShardedBatchParallel(t *testing.T) { shardedBatchRun(t, 4, 4*minParallelBatch, 4) } // pool path
func TestShardedBatchOneShard(t *testing.T) { shardedBatchRun(t, 1, 2000, 0) }               // delegation path

// TestSharded16Batch covers the 16-bit mirror of the batch plumbing.
func TestSharded16Batch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := 2 * minParallelBatch
	f := NewSharded16(uint64(n)*2, 4, Options{})
	keys := workload.NewStream(5).Keys(n)
	if ins := f.InsertBatch(keys); ins != n {
		t.Fatalf("InsertBatch inserted %d of %d at low load", ins, n)
	}
	out := f.ContainsBatch(keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatalf("false negative at %d after batch insert", i)
		}
	}
	if rem := f.RemoveBatch(keys); rem != n {
		t.Fatalf("RemoveBatch removed %d of %d", rem, n)
	}
	if f.Count() != 0 {
		t.Fatalf("count %d after removing everything", f.Count())
	}
}

// TestShardedStatsAggregation checks that Stats sums the shard-private
// counters: inserts, lookups, and batch totals must equal the operations
// issued regardless of which shard served them.
func TestShardedStatsAggregation(t *testing.T) {
	f := NewSharded8(1<<12, 8, Options{})
	keys := workload.NewStream(9).Keys(1000)
	for _, h := range keys[:500] {
		f.Insert(h)
	}
	f.InsertBatch(keys[500:])
	for _, h := range keys[:200] {
		f.Contains(h)
	}
	f.ContainsBatch(keys, nil)
	for _, h := range keys[:50] {
		f.Remove(h)
	}
	st := f.Stats()
	if st.Inserts != 1000 {
		t.Fatalf("Inserts = %d, want 1000", st.Inserts)
	}
	if st.Lookups != 200+1000 {
		t.Fatalf("Lookups = %d, want 1200", st.Lookups)
	}
	if st.Removes != 50 {
		t.Fatalf("Removes = %d, want 50", st.Removes)
	}
	if st.BatchKeys != 500+1000 {
		t.Fatalf("BatchKeys = %d, want 1500", st.BatchKeys)
	}
	if st.BatchOps == 0 {
		t.Fatal("BatchOps not counted")
	}
}

// TestCFilterSerializeRoundTrip round-trips the concurrent filters through
// the sequential stream format, including cross-form loads in both
// directions (locked <-> plain metadata conversion).
func TestCFilterSerializeRoundTrip(t *testing.T) {
	f := NewCFilter8(1<<12, Options{})
	keys := workload.NewStream(21).Keys(3000)
	for _, h := range keys {
		if !f.Insert(h) {
			t.Fatal("insert failed at low load")
		}
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	raw := append([]byte{}, buf.Bytes()...)

	g, err := ReadCFilter8(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() {
		t.Fatalf("count mismatch: %d vs %d", g.Count(), f.Count())
	}
	for _, h := range keys {
		if !g.Contains(h) {
			t.Fatal("false negative after concurrent round trip")
		}
	}
	if !g.Remove(keys[0]) || !g.Insert(keys[0]) {
		t.Fatal("deserialized concurrent filter not operational")
	}

	// Cross-form: the same stream loads as a sequential filter...
	sf, err := ReadFilter8(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range keys {
		if !sf.Contains(h) {
			t.Fatal("false negative loading concurrent stream as sequential")
		}
	}
	// ...and a sequential writer's stream loads as a concurrent filter.
	var sbuf bytes.Buffer
	if _, err := sf.WriteTo(&sbuf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadCFilter8(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range keys {
		if !g2.Contains(h) {
			t.Fatal("false negative loading sequential stream as concurrent")
		}
	}
}

// TestCFilterSerializeFullBlock serializes filters holding completely full
// blocks, exercising the implicit-terminator top-bit conversion (79 stored
// terminators for Block8, 35 for Block16) in both directions.
func TestCFilterSerializeFullBlock(t *testing.T) {
	fullBlocks := func(t *testing.T, occs []uint, slots uint) {
		t.Helper()
		for _, occ := range occs {
			if occ == slots {
				return
			}
		}
		t.Fatalf("no full block after insert-to-failure (occupancies %v)", occs)
	}
	t.Run("cfilter8", func(t *testing.T) {
		f := NewCFilter8(48, Options{}) // smallest filter: insert until a block fills
		rng := rand.New(rand.NewSource(31))
		var keys []uint64
		for {
			h := rng.Uint64()
			if !f.Insert(h) {
				break
			}
			keys = append(keys, h)
		}
		fullBlocks(t, f.BlockOccupancies(), 48)
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := ReadCFilter8(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.Count() != f.Count() {
			t.Fatalf("count mismatch: %d vs %d", g.Count(), f.Count())
		}
		for _, h := range keys {
			if !g.Contains(h) {
				t.Fatal("false negative on full-block round trip")
			}
		}
		if !g.Remove(keys[len(keys)-1]) {
			t.Fatal("remove failed on deserialized full block")
		}
	})
	t.Run("cfilter16", func(t *testing.T) {
		f := NewCFilter16(28, Options{})
		rng := rand.New(rand.NewSource(32))
		var keys []uint64
		for {
			h := rng.Uint64()
			if !f.Insert(h) {
				break
			}
			keys = append(keys, h)
		}
		fullBlocks(t, f.BlockOccupancies(), 28)
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := ReadCFilter16(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range keys {
			if !g.Contains(h) {
				t.Fatal("false negative on full-block round trip")
			}
		}
	})
}

// TestCFilterSerializeLockedError checks that WriteTo refuses a filter with
// a held block lock instead of persisting a torn stream.
func TestCFilterSerializeLockedError(t *testing.T) {
	f := NewCFilter8(1<<10, Options{})
	f.Insert(12345)
	f.blocks[0].Lock()
	defer f.blocks[0].Unlock()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo succeeded on a filter with a held lock")
	}
}

// TestShardedSerializeRoundTrip round-trips both sharded geometries through
// the VQSH sub-header format.
func TestShardedSerializeRoundTrip(t *testing.T) {
	f8 := NewSharded8(1<<13, 4, Options{})
	keys := workload.NewStream(51).Keys(4000)
	for _, h := range keys {
		f8.Insert(h)
	}
	var buf bytes.Buffer
	n, err := f8.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	g8, g16, err := ReadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g16 != nil || g8 == nil {
		t.Fatal("ReadSharded dispatched to the wrong geometry")
	}
	if g8.NumShards() != f8.NumShards() || g8.Count() != f8.Count() {
		t.Fatalf("shape mismatch: %d/%d shards, %d/%d keys",
			g8.NumShards(), f8.NumShards(), g8.Count(), f8.Count())
	}
	for _, h := range keys {
		if !g8.Contains(h) {
			t.Fatal("false negative after sharded round trip")
		}
	}
	if !g8.Remove(keys[0]) || !g8.Insert(keys[0]) {
		t.Fatal("deserialized sharded filter not operational")
	}

	f16 := NewSharded16(1<<12, 8, Options{})
	for _, h := range keys[:2000] {
		f16.Insert(h)
	}
	buf.Reset()
	if _, err := f16.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h8, h16, err := ReadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h8 != nil || h16 == nil {
		t.Fatal("ReadSharded dispatched to the wrong geometry")
	}
	for _, h := range keys[:2000] {
		if !h16.Contains(h) {
			t.Fatal("false negative after sharded16 round trip")
		}
	}
}

// TestShardedSerializeBadHeader checks sub-header validation failures.
func TestShardedSerializeBadHeader(t *testing.T) {
	f := NewSharded8(1<<10, 2, Options{})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, mut := range map[string]func(b []byte){
		"magic":    func(b []byte) { b[0] ^= 0xff },
		"version":  func(b []byte) { b[4] = 99 },
		"geometry": func(b []byte) { b[6] = 7 },
		"shards":   func(b []byte) { b[8] = 3 }, // not a power of two
	} {
		bad := append([]byte{}, good...)
		mut(bad)
		if _, _, err := ReadSharded(bytes.NewReader(bad)); err == nil {
			t.Fatalf("ReadSharded accepted a corrupted %s field", name)
		}
	}
}

// TestShardedChurnRace is the sharded -race churn check: writers insert and
// remove churn keys (each writer biased to a distinct shard's key range by
// construction of its stream), while readers run cross-shard single-key and
// batch lookups over a resident set that is never removed.
func TestShardedChurnRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := NewSharded8(1<<12, 4, Options{})
	const residents = 800
	const writers = 4
	const churnOps = 1500
	res := workload.NewStream(61).Keys(residents)
	for _, h := range res {
		if !f.Insert(h) {
			t.Fatal("resident insert failed at low load")
		}
	}
	errs := make(chan string, writers+2)
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(id int) {
			defer writersWG.Done()
			// Bias this writer's keys to one shard: force the top two hash
			// bits so the writer churns mostly inside "its" shard.
			churn := workload.NewStream(uint64(71 + id)).Keys(churnOps)
			top := uint64(id) << 62
			for _, h := range churn {
				h = (h &^ (uint64(3) << 62)) | top
				if f.Insert(h) {
					f.Remove(h)
				}
			}
		}(w)
	}
	readersWG.Add(2)
	go func() {
		defer readersWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, h := range res {
				if !f.Contains(h) {
					errs <- "resident lost under sharded churn"
					return
				}
			}
		}
	}()
	go func() {
		defer readersWG.Done()
		dst := make([]bool, residents)
		for {
			select {
			case <-done:
				return
			default:
			}
			out := f.ContainsBatch(res, dst)
			for i := range out {
				if !out[i] {
					errs <- "resident lost in sharded batch lookup"
					return
				}
			}
		}
	}()
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	for _, h := range res {
		if !f.Contains(h) {
			t.Fatal("resident lost after churn settled")
		}
	}
}
