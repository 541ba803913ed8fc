package minifilter

import (
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"
)

// FuzzBlock8OpSequence interprets fuzz input as an operation stream against
// one block and checks it against an exact model: byte triples of
// (op, bucket, fingerprint). The stream is replayed on a plain-mode block
// and on a locked-mode block (Lock, then InsertUnlock, RemoveUnlock, or
// ContainsLocked and Unlock), each with the assembly kernels on and then
// off. Both kernel runs of a mode must agree op for op and leave
// bit-identical block words, and the two modes must agree too once the
// locked block's top bit is mapped to the plain convention.
func FuzzBlock8OpSequence(f *testing.F) {
	f.Add([]byte{0, 10, 42, 0, 10, 42, 1, 10, 42, 2, 10, 42})
	f.Add([]byte{0, 79, 255, 2, 79, 255, 1, 79, 255})
	f.Add(make([]byte, 300)) // many op-0 on bucket 0
	f.Fuzz(func(t *testing.T, data []byte) {
		replayBothModes(t, func(locked bool) ([]uint64, []bool) { return replay8(t, data, locked) })
	})
}

// replay8 runs one FuzzBlock8OpSequence stream against the model, in locked
// mode if locked, and returns the final block's words in the plain
// convention and every op's result.
func replay8(t *testing.T, data []byte, locked bool) ([]uint64, []bool) {
	var b Block8
	var seq atomic.Uint64
	b.Reset()
	model := map[modelKey]int{}
	occ, writes := 0, uint64(0)
	var results []bool
	for i := 0; i+2 < len(data); i += 3 {
		bucket := uint(data[i+1]) % B8Buckets
		fp := data[i+2]
		k := modelKey{bucket, uint16(fp)}
		op := int(data[i] % 3)
		var ok bool
		switch {
		case locked:
			ok = lockedOp8(&b, &seq, op, bucket, fp)
		case op == 0:
			ok = b.Insert(bucket, fp)
		case op == 1:
			ok = b.Remove(bucket, fp)
		default:
			ok = b.Contains(bucket, fp)
		}
		switch op {
		case 0:
			if ok != (occ < B8Slots) {
				t.Fatalf("insert ok=%v at occ=%d", ok, occ)
			}
			if ok {
				model[k]++
				occ++
				writes++
			}
		case 1:
			if ok != (model[k] > 0) {
				t.Fatalf("remove ok=%v model=%d", ok, model[k])
			}
			if ok {
				model[k]--
				occ--
				writes++
			}
		case 2:
			if want := model[k] > 0; ok != want {
				t.Fatalf("contains=%v want %v", ok, want)
			}
		}
		results = append(results, ok)
	}
	words := blockWords(&b)
	if locked {
		if b.OccupancyLocked() != uint(occ) {
			t.Fatalf("locked occupancy %d, model %d", b.OccupancyLocked(), occ)
		}
		words[1] = plainTopBit(t, words[1], occ == B8Slots, seq.Load(), writes)
	} else if b.Occupancy() != uint(occ) {
		t.Fatalf("occupancy %d, model %d", b.Occupancy(), occ)
	}
	return words, results
}

// FuzzBlock16OpSequence is the 16-bit analog; fingerprints take two bytes.
func FuzzBlock16OpSequence(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 2, 5, 1, 2, 1, 5, 1, 2})
	f.Add([]byte{0, 35, 255, 255, 1, 35, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayBothModes(t, func(locked bool) ([]uint64, []bool) { return replay16(t, data, locked) })
	})
}

// replay16 runs one FuzzBlock16OpSequence stream; see replay8.
func replay16(t *testing.T, data []byte, locked bool) ([]uint64, []bool) {
	var b Block16
	var seq atomic.Uint64
	b.Reset()
	model := map[modelKey]int{}
	occ, writes := 0, uint64(0)
	var results []bool
	for i := 0; i+3 < len(data); i += 4 {
		bucket := uint(data[i+1]) % B16Buckets
		fp := uint16(data[i+2]) | uint16(data[i+3])<<8
		k := modelKey{bucket, fp}
		op := int(data[i] % 3)
		var ok bool
		switch {
		case locked:
			ok = lockedOp16(&b, &seq, op, bucket, fp)
		case op == 0:
			ok = b.Insert(bucket, fp)
		case op == 1:
			ok = b.Remove(bucket, fp)
		default:
			ok = b.Contains(bucket, fp)
		}
		switch op {
		case 0:
			if ok != (occ < B16Slots) {
				t.Fatalf("insert ok=%v at occ=%d", ok, occ)
			}
			if ok {
				model[k]++
				occ++
				writes++
			}
		case 1:
			if ok != (model[k] > 0) {
				t.Fatalf("remove ok=%v model=%d", ok, model[k])
			}
			if ok {
				model[k]--
				occ--
				writes++
			}
		case 2:
			if want := model[k] > 0; ok != want {
				t.Fatalf("contains=%v want %v", ok, want)
			}
		}
		results = append(results, ok)
	}
	words := blockWords(&b)
	if locked {
		words[0] = plainTopBit(t, words[0], occ == B16Slots, seq.Load(), writes)
	}
	return words, results
}

// plainTopBit maps a locked-mode block's lock word w, at rest after a
// replay, to the plain convention: its stored top bit is the lock alone and
// must be clear, while the plain word's top bit is the final terminator,
// set exactly when the block is full. It also requires the version stripe
// ver to count every committed write.
func plainTopBit(t *testing.T, w uint64, full bool, ver, writes uint64) uint64 {
	t.Helper()
	if w&lockBit != 0 {
		t.Fatalf("lock bit left set: %#x", w)
	}
	if ver != writes {
		t.Fatalf("version stripe %d after %d committed writes", ver, writes)
	}
	if full {
		w |= lockBit
	}
	return w
}

// replayBothModes runs replay in plain and in locked mode, each through
// replayBothKernels, and fails unless the modes return the same op results
// and the same block words in the plain convention.
func replayBothModes(t *testing.T, replay func(locked bool) (words []uint64, results []bool)) {
	t.Helper()
	plainWords, plainResults := replayBothKernels(t, func() ([]uint64, []bool) { return replay(false) })
	lockedWords, lockedResults := replayBothKernels(t, func() ([]uint64, []bool) { return replay(true) })
	if !slices.Equal(plainResults, lockedResults) {
		t.Fatalf("plain and locked modes returned different results:\nplain  %v\nlocked %v", plainResults, lockedResults)
	}
	if !slices.Equal(plainWords, lockedWords) {
		t.Fatalf("block words differ:\nplain  %#x\nlocked %#x", plainWords, lockedWords)
	}
}

// replayBothKernels runs replay with the assembly kernels selected and then
// with the generic kernels, and fails unless both runs return the same op
// results and bit-identical block words, which it returns. On builds or
// CPUs without the assembly both runs are generic. It leaves the assembly
// selected, the default.
func replayBothKernels(t *testing.T, replay func() (words []uint64, results []bool)) ([]uint64, []bool) {
	t.Helper()
	defer SetAsmKernels(true)
	SetAsmKernels(true)
	asmWords, asmResults := replay()
	SetAsmKernels(false)
	genWords, genResults := replay()
	for i := range asmResults {
		if asmResults[i] != genResults[i] {
			t.Fatalf("op %d: asm kernels returned %v, generic %v", i, asmResults[i], genResults[i])
		}
	}
	if !slices.Equal(asmWords, genWords) {
		t.Fatalf("block words differ:\nasm     %#x\ngeneric %#x", asmWords, genWords)
	}
	return asmWords, asmResults
}

// blockWords returns a copy of a block's eight raw words, metadata first.
func blockWords[B Block8 | Block16](b *B) []uint64 {
	w := *(*[8]uint64)(unsafe.Pointer(b))
	return w[:]
}
