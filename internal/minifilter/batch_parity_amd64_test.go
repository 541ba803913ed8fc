//go:build amd64 && !purego

package minifilter

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"

	"vqf/internal/hashing"
)

// Differential parity gate for the batch contains kernels: over block arrays
// built through the real insert path, every key's batch answer must equal
// the per-key lookup — split, xor partner, two block probes — that
// internal/core's Contains performs, computed once with the fused probes and
// once with the generic ones. The validated kernels for locked-mode arrays
// (ProbeLocked8/16) answer the same keys over locked twins of the same
// arrays, rebuilt through InsertUnlock and RemoveUnlock.

// contains8 is the per-key reference: internal/core's split8 plus the two
// Block8 probes of Filter8.Contains.
func contains8(blocks []Block8, h uint64) bool {
	mask := uint64(len(blocks) - 1)
	bucket := uint(uint32(h&0xffff) * B8Buckets >> 16)
	fp := byte(h >> 16)
	b1 := h >> 24 & mask
	b2 := hashing.AltIndex(b1, uint64(bucket)<<8|uint64(fp), mask)
	return blocks[b1].Contains(bucket, fp) || blocks[b2].Contains(bucket, fp)
}

// contains16 is contains8 for split16 and Block16.
func contains16(blocks []Block16, h uint64) bool {
	mask := uint64(len(blocks) - 1)
	bucket := uint(uint32(h&0xffff) * B16Buckets >> 16)
	fp := uint16(h >> 16)
	b1 := h >> 32 & mask
	b2 := hashing.AltIndex(b1, uint64(bucket)<<16|uint64(fp), mask)
	return blocks[b1].Contains(bucket, fp) || blocks[b2].Contains(bucket, fp)
}

// key8 builds the key hash that split8 decomposes into (block, bucket, fp):
// the smallest low half-word whose range reduction lands on bucket.
func key8(block uint64, bucket uint, fp byte) uint64 {
	return block<<24 | uint64(fp)<<16 | (uint64(bucket)<<16+B8Buckets-1)/B8Buckets
}

// key16 is key8 for split16.
func key16(block uint64, bucket uint, fp uint16) uint64 {
	return block<<32 | uint64(fp)<<16 | (uint64(bucket)<<16+B16Buckets-1)/B16Buckets
}

func newBlocks8(n int) []Block8 {
	bs := make([]Block8, n)
	for i := range bs {
		bs[i].Reset()
	}
	return bs
}

func newBlocks16(n int) []Block16 {
	bs := make([]Block16, n)
	for i := range bs {
		bs[i].Reset()
	}
	return bs
}

// fillTwoChoice8 inserts random keys the way Filter8.Insert places them (the
// emptier candidate block) until the array reaches load, returning the keys
// stored.
func fillTwoChoice8(r *rand.Rand, blocks []Block8, load float64) []uint64 {
	mask := uint64(len(blocks) - 1)
	var keys []uint64
	for want := int(load * float64(len(blocks)*B8Slots)); len(keys) < want; {
		h := r.Uint64()
		bucket := uint(uint32(h&0xffff) * B8Buckets >> 16)
		fp := byte(h >> 16)
		b1 := h >> 24 & mask
		b2 := hashing.AltIndex(b1, uint64(bucket)<<8|uint64(fp), mask)
		if blocks[b2].Occupancy() < blocks[b1].Occupancy() {
			b1 = b2
		}
		if !blocks[b1].Insert(bucket, fp) {
			continue
		}
		keys = append(keys, h)
	}
	return keys
}

// fillTwoChoice16 is fillTwoChoice8 for Block16 arrays.
func fillTwoChoice16(r *rand.Rand, blocks []Block16, load float64) []uint64 {
	mask := uint64(len(blocks) - 1)
	var keys []uint64
	for want := int(load * float64(len(blocks)*B16Slots)); len(keys) < want; {
		h := r.Uint64()
		bucket := uint(uint32(h&0xffff) * B16Buckets >> 16)
		fp := uint16(h >> 16)
		b1 := h >> 32 & mask
		b2 := hashing.AltIndex(b1, uint64(bucket)<<16|uint64(fp), mask)
		if blocks[b2].Occupancy() < blocks[b1].Occupancy() {
			b1 = b2
		}
		if !blocks[b1].Insert(bucket, fp) {
			continue
		}
		keys = append(keys, h)
	}
	return keys
}

// batchCase is one block array plus a pool of query keys, at one width.
type batchCase struct {
	name     string
	blocks8  []Block8
	blocks16 []Block16
	keys     []uint64
}

// mixKeys pads stored with random and per-bucket keys to at least n, so
// every batch interleaves hits and misses.
func mixKeys(r *rand.Rand, stored []uint64, extra func(i int) uint64, n int) []uint64 {
	keys := append([]uint64(nil), stored...)
	for i := 0; len(keys) < n; i++ {
		if i%2 == 0 {
			keys = append(keys, r.Uint64())
		} else {
			keys = append(keys, extra(i))
		}
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func batchCases(r *rand.Rand) []batchCase {
	const pool = 5000
	var cases []batchCase
	for _, load := range []float64{0, 0.25, 0.5, 0.75, 0.85, 0.93} {
		b8 := newBlocks8(64)
		k8 := fillTwoChoice8(r, b8, load)
		b16 := newBlocks16(64)
		k16 := fillTwoChoice16(r, b16, load)
		cases = append(cases,
			batchCase{name: fmt.Sprintf("random8/load%.2f", load), blocks8: b8,
				keys: mixKeys(r, k8, func(int) uint64 { return r.Uint64() }, pool)},
			batchCase{name: fmt.Sprintf("random16/load%.2f", load), blocks16: b16,
				keys: mixKeys(r, k16, func(int) uint64 { return r.Uint64() }, pool)})
	}

	// Full blocks: the last terminator sits at metadata bit 127 (Block8) or
	// 63 (Block16). Queries aim at every bucket, with stored and random
	// fingerprints.
	full8 := newBlocks8(8)
	var stored8 []uint64
	for i := range full8 {
		for !full8[i].Full() {
			bucket, fp := uint(r.Intn(B8Buckets)), byte(r.Uint32())
			full8[i].Insert(bucket, fp)
			stored8 = append(stored8, key8(uint64(i), bucket, fp))
		}
	}
	full16 := newBlocks16(8)
	var stored16 []uint64
	for i := range full16 {
		for !full16[i].Full() {
			bucket, fp := uint(r.Intn(B16Buckets)), uint16(r.Uint32())
			full16[i].Insert(bucket, fp)
			stored16 = append(stored16, key16(uint64(i), bucket, fp))
		}
	}
	cases = append(cases,
		batchCase{name: "full8", blocks8: full8, keys: mixKeys(r, stored8, func(i int) uint64 {
			return key8(uint64(r.Intn(8)), uint(i%B8Buckets), byte(r.Uint32()))
		}, pool)},
		batchCase{name: "full16", blocks16: full16, keys: mixKeys(r, stored16, func(i int) uint64 {
			return key16(uint64(r.Intn(8)), uint(i%B16Buckets), uint16(r.Uint32()))
		}, pool)})

	// Crowded and empty buckets: block i holds every slot in one bucket —
	// bucket 0, the last bucket, or one in between — so its neighbours on
	// both sides are empty. One and two blocks make the partner equal to the
	// primary for every key (mask 0) or for every even tag (mask 1).
	for _, nblocks := range []int{1, 2, 4} {
		crowd8 := newBlocks8(nblocks)
		crowd16 := newBlocks16(nblocks)
		var s8, s16 []uint64
		for i := 0; i < nblocks; i++ {
			b8 := []uint{0, B8Buckets - 1, B8Buckets / 2, 1}[i]
			b16 := []uint{0, B16Buckets - 1, B16Buckets / 2, 1}[i]
			for !crowd8[i].Full() {
				fp := byte(r.Uint32())
				crowd8[i].Insert(b8, fp)
				s8 = append(s8, key8(uint64(i), b8, fp))
			}
			for !crowd16[i].Full() {
				fp := uint16(r.Uint32())
				crowd16[i].Insert(b16, fp)
				s16 = append(s16, key16(uint64(i), b16, fp))
			}
		}
		cases = append(cases,
			batchCase{name: fmt.Sprintf("crowded8/blocks%d", nblocks), blocks8: crowd8,
				keys: mixKeys(r, s8, func(i int) uint64 {
					return key8(uint64(r.Intn(nblocks)), uint(i%B8Buckets), byte(i))
				}, pool)},
			batchCase{name: fmt.Sprintf("crowded16/blocks%d", nblocks), blocks16: crowd16,
				keys: mixKeys(r, s16, func(i int) uint64 {
					return key16(uint64(r.Intn(nblocks)), uint(i%B16Buckets), uint16(i))
				}, pool)})
	}
	// Candidate-dense arrays: every lane of every block holds the
	// fingerprint all their queries carry, so both blocks of every key hold
	// a candidate and the batch makes two records a key. The blocks are
	// full (fingerprint 0xa5), or half full at fingerprint 0, which their
	// empty lanes hold too. Buckets are random, so a key's primary block
	// can answer yes while its partner answers no. One and two blocks make
	// the partner the primary for every key or every even tag.
	for _, nblocks := range []int{1, 2, 64} {
		for _, full := range []bool{true, false} {
			fp8, fp16 := byte(0xa5), uint16(0xa5a5)
			if !full {
				fp8, fp16 = 0, 0
			}
			dense8, dense16 := newBlocks8(nblocks), newBlocks16(nblocks)
			var s8, s16 []uint64
			for i := 0; i < nblocks; i++ {
				for dense8[i].Occupancy() < B8Slots && (full || dense8[i].Occupancy() < B8Slots/2) {
					bucket := uint(r.Intn(B8Buckets))
					dense8[i].Insert(bucket, fp8)
					s8 = append(s8, key8(uint64(i), bucket, fp8))
				}
				for dense16[i].Occupancy() < B16Slots && (full || dense16[i].Occupancy() < B16Slots/2) {
					bucket := uint(r.Intn(B16Buckets))
					dense16[i].Insert(bucket, fp16)
					s16 = append(s16, key16(uint64(i), bucket, fp16))
				}
			}
			name := fmt.Sprintf("blocks%d/full%v", nblocks, full)
			cases = append(cases,
				batchCase{name: "dense8/" + name, blocks8: dense8, keys: mixKeys(r, s8, func(int) uint64 {
					return key8(uint64(r.Intn(nblocks)), uint(r.Intn(B8Buckets)), fp8)
				}, pool)},
				batchCase{name: "dense16/" + name, blocks16: dense16, keys: mixKeys(r, s16, func(int) uint64 {
					return key16(uint64(r.Intn(nblocks)), uint(r.Intn(B16Buckets)), fp16)
				}, pool)})
		}
	}

	// Candidate-free batches: full blocks of fingerprints with the top bit
	// clear, probed only with fingerprints that have it set, so no lane of
	// either block matches any key and every answer is no.
	free8, free16 := newBlocks8(64), newBlocks16(64)
	for i := range free8 {
		for !free8[i].Full() {
			free8[i].Insert(uint(r.Intn(B8Buckets)), byte(1+r.Intn(0x7f)))
		}
		for !free16[i].Full() {
			free16[i].Insert(uint(r.Intn(B16Buckets)), uint16(1+r.Intn(0x7fff)))
		}
	}
	free := make([]uint64, pool)
	for i := range free {
		free[i] = r.Uint64() | 0x80<<16 | 0x8000<<16
	}
	cases = append(cases,
		batchCase{name: "free8", blocks8: free8, keys: free},
		batchCase{name: "free16", blocks16: free16, keys: free})
	return cases
}

// checkBatchParity runs the kernel over hs and compares every answer with
// the per-key reference under the current kernel selection, once into each
// of two complementary dirty out buffers, which catch positions the kernel
// skips or ORs into without clearing.
func checkBatchParity(t *testing.T, c batchCase, hs []uint64) {
	t.Helper()
	for _, dirty := range []bool{true, false} {
		checkBatchParityInto(t, c, hs, dirty)
	}
}

func checkBatchParityInto(t *testing.T, c batchCase, hs []uint64, dirty bool) {
	t.Helper()
	out := make([]bool, len(hs)+1)
	for i := range out {
		out[i] = (i%3 == 0) == dirty
	}
	fast := AsmEnabled()
	var ran bool
	if c.blocks8 != nil {
		ran = ProbeBatch8(c.blocks8, hs, out)
		if !fast && len(hs) > 0 {
			probeBatch8Asm(&c.blocks8[0], uint64(len(c.blocks8)-1), &hs[0], &out[0], len(hs))
		}
	} else {
		ran = ProbeBatch16(c.blocks16, hs, out)
		if !fast && len(hs) > 0 {
			probeBatch16Asm(&c.blocks16[0], uint64(len(c.blocks16)-1), &hs[0], &out[0], len(hs))
		}
	}
	if ran != fast {
		t.Fatalf("%s: batch kernel ran = %v with fused probes enabled = %v", c.name, ran, fast)
	}
	for i, h := range hs {
		var want bool
		if c.blocks8 != nil {
			want = contains8(c.blocks8, h)
		} else {
			want = contains16(c.blocks16, h)
		}
		if out[i] != want {
			t.Fatalf("%s len %d: out[%d] = %v, per-key Contains(%#x) = %v (fused probes %v)",
				c.name, len(hs), i, out[i], h, want, fast)
		}
	}
	if out[len(hs)] != ((len(hs)%3 == 0) == dirty) {
		t.Fatalf("%s len %d: kernel wrote past the batch", c.name, len(hs))
	}
}

// candidates returns key h's two blocks in an array of nblocks blocks, split
// as internal/core's split8 (wide false) or split16 (wide true) splits it.
func candidates(h uint64, nblocks int, wide bool) (uint64, uint64) {
	mask := uint64(nblocks - 1)
	if wide {
		bucket := uint64(uint32(h&0xffff) * B16Buckets >> 16)
		b1 := h >> 32 & mask
		return b1, hashing.AltIndex(b1, bucket<<16|h>>16&0xffff, mask)
	}
	bucket := uint64(uint32(h&0xffff) * B8Buckets >> 16)
	b1 := h >> 24 & mask
	return b1, hashing.AltIndex(b1, bucket<<8|h>>16&0xff, mask)
}

// lockedTwin8 rebuilds blocks in locked mode through the writers' path:
// each block's fingerprints are re-inserted under the lock with
// InsertUnlock, and every eighth step first inserts and removes a decoy
// (InsertUnlock, RemoveUnlock), so the twin holds the same fingerprints per
// bucket. A full twin's last terminator is the forced top bit. Block i
// bumps stripe i & (len(seqs)-1) on every write.
func lockedTwin8(blocks []Block8, seqs []atomic.Uint64) []Block8 {
	twin := newBlocks8(len(blocks))
	for i := range blocks {
		b, seq, step := &twin[i], &seqs[i&(len(seqs)-1)], 0
		blocks[i].Iterate(func(bucket uint, fp byte) bool {
			if step%8 == 7 {
				b.Lock()
				b.InsertUnlock(bucket, ^fp, seq)
				b.Lock()
				b.RemoveUnlock(bucket, ^fp, seq)
			}
			b.Lock()
			b.InsertUnlock(bucket, fp, seq)
			step++
			return true
		})
	}
	return twin
}

// lockedTwin16 is lockedTwin8 for Block16 arrays.
func lockedTwin16(blocks []Block16, seqs []atomic.Uint64) []Block16 {
	twin := newBlocks16(len(blocks))
	for i := range blocks {
		b, seq, step := &twin[i], &seqs[i&(len(seqs)-1)], 0
		blocks[i].Iterate(func(bucket uint, fp uint16) bool {
			if step%8 == 7 {
				b.Lock()
				b.InsertUnlock(bucket, ^fp, seq)
				b.Lock()
				b.RemoveUnlock(bucket, ^fp, seq)
			}
			b.Lock()
			b.InsertUnlock(bucket, fp, seq)
			step++
			return true
		})
	}
	return twin
}

// lockedTable builds the kernel table of the locked twins of shards (all of
// one width), each with two version stripes so that blocks share them.
func lockedTable(shards []batchCase) []LockedArray {
	tab := make([]LockedArray, len(shards))
	for s, c := range shards {
		seqs := make([]atomic.Uint64, 2)
		if c.blocks8 != nil {
			tab[s] = NewLockedArray(lockedTwin8(c.blocks8, seqs), seqs)
		} else {
			tab[s] = NewLockedArray(lockedTwin16(c.blocks16, seqs), seqs)
		}
	}
	return tab
}

// lockedWant is the per-key reference for a locked table over shards: the
// plain-array lookup of the key's shard, selected by its top bits.
func lockedWant(shards []batchCase, h uint64) bool {
	c := shards[h>>56>>(8-bits.TrailingZeros(uint(len(shards))))]
	if c.blocks8 != nil {
		return contains8(c.blocks8, h)
	}
	return contains16(c.blocks16, h)
}

// staggered returns a copy of hs whose keys are re-aimed at a table of
// nshards arrays so that key i goes to array (i/8) % nshards: with two or
// more arrays, key i+8 — the key whose blocks a validated kernel prefetches
// while it probes key i — is answered by another array than key i.
func staggered(hs []uint64, nshards int) []uint64 {
	top := 64 - bits.TrailingZeros(uint(nshards))
	out := make([]uint64, len(hs))
	for i, h := range hs {
		out[i] = h&^(^uint64(0)<<top) | uint64(i/8%nshards)<<top
	}
	return out
}

// runLocked runs the validated kernel of tab's width over hs until the
// first conflict: through ProbeLocked8/16 when the fused kernels are
// selected, else straight through the assembly, so the generic reference
// still has an assembly answer to check.
func runLocked(t *testing.T, wide bool, tab []LockedArray, hs []uint64, out []bool) int {
	t.Helper()
	probe, kernel := ProbeLocked8, probeLocked8Asm
	if wide {
		probe, kernel = ProbeLocked16, probeLocked16Asm
	}
	n, ran := probe(tab, hs, out)
	if ran != AsmEnabled() {
		t.Fatalf("locked kernel ran = %v with fused probes enabled = %v", ran, AsmEnabled())
	}
	if !ran && len(hs) > 0 {
		n = kernel(&tab[0], uint(8-bits.TrailingZeros(uint(len(tab)))), &hs[0], &out[0], len(hs))
	}
	return n
}

// checkLockedParity answers hs over the locked twins of shards and compares
// every answer with the plain per-key reference. No writer runs, so no key
// may conflict.
func checkLockedParity(t *testing.T, name string, shards []batchCase, hs []uint64) {
	t.Helper()
	tab := lockedTable(shards)
	out := make([]bool, len(hs)+1)
	for i := range out {
		out[i] = i%3 == 0
	}
	if n := runLocked(t, shards[0].blocks8 == nil, tab, hs, out); n != len(hs) {
		t.Fatalf("%s len %d: key %d conflicted with no writer running", name, len(hs), n)
	}
	for i, h := range hs {
		if want := lockedWant(shards, h); out[i] != want {
			t.Fatalf("%s len %d: locked out[%d] = %v, per-key Contains(%#x) = %v (fused probes %v)",
				name, len(hs), i, out[i], h, want, AsmEnabled())
		}
	}
	if out[len(hs)] != (len(hs)%3 == 0) {
		t.Fatalf("%s len %d: locked kernel wrote past the batch", name, len(hs))
	}
}

// TestProbeBatchParity checks the batch kernels against per-key Contains on
// random arrays at loads 0–93%, full blocks, crowded and empty buckets
// (bucket 0 and the last bucket included), partners equal to their
// primaries, candidate-dense arrays and candidate-free batches, at batch
// lengths around the 8-bit kernel's 256-key chunk and the wrapper's
// 1024-key chunk. The
// validated kernels answer the same keys over the arrays' locked twins, as
// a one-array table and as 2- and 4-array tables whose other entries are
// the next cases of the same width (other sizes, so other masks).
func TestProbeBatchParity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	defer SetAsmKernels(true)
	r := rand.New(rand.NewSource(17))
	cases := batchCases(r)
	for _, asm := range []bool{true, false} {
		SetAsmKernels(asm)
		for ci, c := range cases {
			for _, n := range []int{0, 1, 255, 256, 257, 1023, 1024, 1025, 5000} {
				checkBatchParity(t, c, c.keys[:n])
			}
			for _, nshards := range []int{1, 2, 4} {
				shards := make([]batchCase, nshards)
				for s := range shards {
					shards[s] = cases[(ci+2*s)%len(cases)] // cases alternate 8/16 bits
				}
				for _, n := range []int{0, 1, 1025, 5000} {
					checkLockedParity(t, fmt.Sprintf("%s/locked%d", c.name, nshards), shards, c.keys[:n])
				}
			}
		}
	}
}

// TestProbeLockedConflicts: a key whose candidate block has its lock bit
// set is never answered by the validated kernel; it is handed back as a
// conflict, and every key touching no locked block is answered. The count
// returned is the first conflicted key's index wherever that key falls,
// also past the 8-bit kernel's first chunk and the wrapper's first call.
func TestProbeLockedConflicts(t *testing.T) {
	if !AsmEnabled() {
		t.Skip("batch kernel not in use")
	}
	r := rand.New(rand.NewSource(23))
	for _, wide := range []bool{false, true} {
		seqs := make([]atomic.Uint64, 4)
		locked := map[uint64]bool{3: true, 11: true}
		var c batchCase
		var tab []LockedArray
		if wide {
			c.blocks16 = newBlocks16(16)
			fillTwoChoice16(r, c.blocks16, 0.7)
			twin := lockedTwin16(c.blocks16, seqs)
			for b := range locked {
				twin[b].Lock()
			}
			tab = []LockedArray{NewLockedArray(twin, seqs)}
		} else {
			c.blocks8 = newBlocks8(16)
			fillTwoChoice8(r, c.blocks8, 0.7)
			twin := lockedTwin8(c.blocks8, seqs)
			for b := range locked {
				twin[b].Lock()
			}
			tab = []LockedArray{NewLockedArray(twin, seqs)}
		}
		hs := make([]uint64, 4000)
		for i := range hs {
			hs[i] = r.Uint64()
		}
		out := make([]bool, len(hs))
		conflicts := 0
		for i := 0; i < len(hs); {
			n := runLocked(t, wide, tab, hs[i:], out[i:])
			for k := i; k < i+n; k++ {
				b1, b2 := candidates(hs[k], 16, wide)
				if locked[b1] || locked[b2] {
					t.Fatalf("wide=%v: key %d on locked block %d/%d answered", wide, k, b1, b2)
				}
				if want := lockedWant([]batchCase{c}, hs[k]); out[k] != want {
					t.Fatalf("wide=%v: out[%d] = %v, want %v", wide, k, out[k], want)
				}
			}
			i += n
			if i < len(hs) {
				if b1, b2 := candidates(hs[i], 16, wide); !locked[b1] && !locked[b2] {
					t.Fatalf("wide=%v: key %d on unlocked blocks %d/%d conflicted", wide, i, b1, b2)
				}
				conflicts++
				i++
			}
		}
		if conflicts == 0 {
			t.Fatalf("wide=%v: no key touched a locked block", wide)
		}
		// The first conflict k keys in, past the 8-bit kernel's first
		// chunks and the wrapper's first call: exactly k keys are answered.
		var free, hit []uint64
		for _, h := range hs {
			if b1, b2 := candidates(h, 16, wide); locked[b1] || locked[b2] {
				hit = append(hit, h)
			} else {
				free = append(free, h)
			}
		}
		for _, k := range []int{255, 256, 257, 600, 1023, 1024, 1500} {
			batch := append(append([]uint64(nil), free[:k]...), hit[:3]...)
			if n := runLocked(t, wide, tab, batch, out); n != k {
				t.Fatalf("wide=%v: first conflict at key %d, kernel answered %d", wide, k, n)
			}
		}
	}
}

// TestProbeBatchPreconditions: the wrapper refuses, rather than hands to the
// unchecked assembly, a block array whose mask would index past its end and
// an out slice too short for the batch.
func TestProbeBatchPreconditions(t *testing.T) {
	if !AsmEnabled() {
		t.Skip("batch kernel not in use")
	}
	hs := make([]uint64, 10)
	for _, c := range []struct {
		name   string
		blocks int
		out    int
	}{{"three blocks", 3, 10}, {"no blocks", 0, 10}, {"short out", 4, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ProbeBatch8 did not panic", c.name)
				}
			}()
			ProbeBatch8(newBlocks8(c.blocks), hs, make([]bool, c.out))
		}()
	}
	seqs := make([]atomic.Uint64, 1)
	entry := NewLockedArray(newBlocks8(2), seqs)
	for _, c := range []struct {
		name    string
		entries int
		out     int
	}{{"three arrays", 3, 10}, {"no arrays", 0, 10}, {"512 arrays", 512, 10}, {"short out", 1, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ProbeLocked8 did not panic", c.name)
				}
			}()
			tab := make([]LockedArray, c.entries)
			for i := range tab {
				tab[i] = entry
			}
			ProbeLocked8(tab, hs, make([]bool, c.out))
		}()
	}
	for _, c := range []struct {
		name         string
		blocks, seqs int
	}{{"three blocks", 3, 1}, {"no blocks", 0, 1}, {"three stripes", 2, 3}, {"no stripes", 2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewLockedArray did not panic", c.name)
				}
			}()
			NewLockedArray(newBlocks16(c.blocks), make([]atomic.Uint64, c.seqs))
		}()
	}
}

// FuzzProbeBatchParity is the fuzz form of the batch parity gate. The ops
// bytes fill a four-block array at both widths (block, bucket, fingerprint
// triples); the query bytes become key hashes as they stand, plus keys
// rebuilt from each triple so that stored fingerprints are probed too. The
// validated kernels answer the same keys over the arrays' locked twins, as
// a one-array table, and staggered (see staggered) over tables of 2 and 4
// arrays of 1 to 4 blocks. The same triples also fill one- and two-block
// arrays, where partners coincide with primaries, and the 8-bit kernel
// answers candidate-dense and candidate-free batches over every array size
// (see fuzzDense8 and fuzzFree8). Then the ops bytes, repeated, overwrite
// every word of the four-block arrays — arbitrary metadata, lock bits
// included — and both kernels run over them: neither may fault, and the
// validated one must hand back exactly the keys that touch a block whose
// lock bit is set.
func FuzzProbeBatchParity(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 79, 2, 2, 40, 3}, []byte("01234567abcdefgh"))
	f.Add([]byte("fuzzing builds character and valid metadata"), []byte{})
	f.Fuzz(func(t *testing.T, ops, query []byte) {
		if !AsmSupported() {
			t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
		}
		defer SetAsmKernels(true)
		var hashes []uint64
		for q := query; len(q) >= 8; q = q[8:] {
			hashes = append(hashes, binary.LittleEndian.Uint64(q))
		}
		var b8 []Block8
		var b16 []Block16
		var k8, k16 []uint64
		var cs8, cs16 []batchCase // the 1-, 2- and 4-block cases, in turn
		for _, nblocks := range []int{1, 2, 4} {
			b8, b16 = newBlocks8(nblocks), newBlocks16(nblocks)
			k8, k16 = nil, nil
			for i := 0; i+2 < len(ops); i += 3 {
				blk := uint64(ops[i]) % uint64(nblocks)
				fp16 := uint16(ops[i+2]) | uint16(ops[i])<<8
				bucket8, bucket16 := uint(ops[i+1])%B8Buckets, uint(ops[i+1])%B16Buckets
				b8[blk].Insert(bucket8, ops[i+2])
				b16[blk].Insert(bucket16, fp16)
				k8 = append(k8, key8(blk, bucket8, ops[i+2]))
				k16 = append(k16, key16(blk, bucket16, fp16))
			}
			k8, k16 = append(k8, hashes...), append(k16, hashes...)
			c8 := batchCase{name: fmt.Sprintf("fuzz8/blocks%d", nblocks), blocks8: b8, keys: k8}
			c16 := batchCase{name: fmt.Sprintf("fuzz16/blocks%d", nblocks), blocks16: b16, keys: k16}
			cs8, cs16 = append(cs8, c8), append(cs16, c16)
			dense := fuzzDense8(ops, nblocks, k8)
			free := fuzzFree8(c8)
			for _, asm := range []bool{true, false} {
				SetAsmKernels(asm)
				checkBatchParity(t, c8, k8)
				checkBatchParity(t, c16, k16)
				checkBatchParity(t, dense, dense.keys)
				checkBatchParity(t, free, free.keys)
				if nblocks != 4 {
					continue
				}
				// Tables of 2 and 4 arrays, the four-block one first,
				// with the keys staggered across them (see staggered).
				t8 := []batchCase{c8, cs8[0], cs8[1], dense}
				t16 := []batchCase{c16, cs16[0], cs16[1], {blocks16: newBlocks16(8)}}
				checkLockedParity(t, "fuzz8/locked1", t8[:1], k8)
				checkLockedParity(t, "fuzz16/locked1", t16[:1], k16)
				for _, nshards := range []int{2, 4} {
					checkLockedParity(t, fmt.Sprintf("fuzz8/locked%d", nshards), t8[:nshards], staggered(k8, nshards))
					checkLockedParity(t, fmt.Sprintf("fuzz16/locked%d", nshards), t16[:nshards], staggered(k16, nshards))
				}
			}
		}
		// b8, b16, k8 and k16 now hold the four-block arrays and their keys.
		if len(ops) == 0 {
			return
		}
		w8, w16 := wordsOf(b8), wordsOf(b16)
		for i := range w8 {
			var word [8]byte
			for j := range word {
				word[j] = ops[(8*i+j)%len(ops)]
			}
			w8[i] = binary.LittleEndian.Uint64(word[:])
			w16[i] = w8[i]
		}
		SetAsmKernels(true)
		out := make([]bool, max(len(k8), len(k16)))
		ProbeBatch8(b8, k8, out)
		ProbeBatch16(b16, k16, out)
		seqs := make([]atomic.Uint64, 1)
		checkLockBits(t, false, []LockedArray{NewLockedArray(b8, seqs)}, 4,
			func(b uint64) bool { return b8[b].MetaHi&LockBit != 0 }, k8, out)
		checkLockBits(t, true, []LockedArray{NewLockedArray(b16, seqs)}, 4,
			func(b uint64) bool { return b16[b].Meta&LockBit != 0 }, k16, out)
	})
}

// fuzzDense8 builds a candidate-dense 8-bit case from fuzz input: an
// nblocks array whose blocks are filled with one fingerprint, the first
// triple's (or 0 without one), in buckets taken in turn from the ops bytes,
// until full, probed with keys whose fingerprint byte is replaced by it.
// Every lane matches every key, so both of a key's blocks hold a candidate.
func fuzzDense8(ops []byte, nblocks int, keys []uint64) batchCase {
	var fp byte
	if len(ops) >= 3 {
		fp = ops[2]
	}
	blocks := newBlocks8(nblocks)
	if len(ops) > 0 {
		for i := range blocks {
			for j := i; !blocks[i].Full(); j++ {
				blocks[i].Insert(uint(ops[j%len(ops)])%B8Buckets, fp)
			}
		}
	}
	dense := make([]uint64, len(keys))
	for i, h := range keys {
		dense[i] = h&^(0xff<<16) | uint64(fp)<<16
	}
	return batchCase{name: fmt.Sprintf("fuzz8/dense/blocks%d", nblocks), blocks8: blocks, keys: dense}
}

// fuzzFree8 rewrites c's keys into a candidate-free batch: every key's
// fingerprint byte becomes the smallest byte no lane of c's array holds
// (none when all 256 appear), so no block of any key matches.
func fuzzFree8(c batchCase) batchCase {
	var seen [256]bool
	for i := range c.blocks8 {
		for _, w := range c.blocks8[i].Fps {
			for k := 0; k < 8; k++ {
				seen[byte(w>>(8*k))] = true
			}
		}
	}
	free := batchCase{name: c.name + "/free", blocks8: c.blocks8}
	for fp := range seen {
		if !seen[fp] {
			for _, h := range c.keys {
				free.keys = append(free.keys, h&^(0xff<<16)|uint64(fp)<<16)
			}
			break
		}
	}
	return free
}

// wordsOf views a block array as its raw words.
func wordsOf[B Block8 | Block16](blocks []B) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&blocks[0])), len(blocks)*8)
}

// checkLockBits runs the validated kernel over hs against tab, one array of
// nblocks blocks holding arbitrary words, restarting after every conflict:
// exactly the keys with a candidate whose lock bit is set (isLocked) must
// conflict. The answers themselves are unchecked.
func checkLockBits(t *testing.T, wide bool, tab []LockedArray, nblocks int, isLocked func(b uint64) bool, hs []uint64, out []bool) {
	t.Helper()
	for i := 0; i < len(hs); {
		n := runLocked(t, wide, tab, hs[i:], out[i:])
		for k := i; k < i+n; k++ {
			if b1, b2 := candidates(hs[k], nblocks, wide); isLocked(b1) || isLocked(b2) {
				t.Fatalf("wide=%v: key %#x on a locked block answered", wide, hs[k])
			}
		}
		i += n
		if i < len(hs) {
			if b1, b2 := candidates(hs[i], nblocks, wide); !isLocked(b1) && !isLocked(b2) {
				t.Fatalf("wide=%v: key %#x on unlocked blocks conflicted", wide, hs[i])
			}
			i++
		}
	}
}
