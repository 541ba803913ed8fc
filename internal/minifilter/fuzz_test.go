package minifilter

import (
	"slices"
	"testing"
	"unsafe"
)

// FuzzBlock8OpSequence interprets fuzz input as an operation stream against
// one block and checks it against an exact model: byte triples of
// (op, bucket, fingerprint). The stream is replayed with the assembly
// kernels on and then off; both runs must agree op for op and leave
// bit-identical block words.
func FuzzBlock8OpSequence(f *testing.F) {
	f.Add([]byte{0, 10, 42, 0, 10, 42, 1, 10, 42, 2, 10, 42})
	f.Add([]byte{0, 79, 255, 2, 79, 255, 1, 79, 255})
	f.Add(make([]byte, 300)) // many op-0 on bucket 0
	f.Fuzz(func(t *testing.T, data []byte) {
		replayBothKernels(t, func() ([]uint64, []bool) { return replay8(t, data) })
	})
}

// replay8 runs one FuzzBlock8OpSequence stream against the model and
// returns the final block's words and every op's result.
func replay8(t *testing.T, data []byte) ([]uint64, []bool) {
	var b Block8
	b.Reset()
	model := map[modelKey]int{}
	occ := 0
	var results []bool
	for i := 0; i+2 < len(data); i += 3 {
		bucket := uint(data[i+1]) % B8Buckets
		fp := data[i+2]
		k := modelKey{bucket, uint16(fp)}
		var ok bool
		switch data[i] % 3 {
		case 0:
			ok = b.Insert(bucket, fp)
			if ok != (occ < B8Slots) {
				t.Fatalf("insert ok=%v at occ=%d", ok, occ)
			}
			if ok {
				model[k]++
				occ++
			}
		case 1:
			ok = b.Remove(bucket, fp)
			if ok != (model[k] > 0) {
				t.Fatalf("remove ok=%v model=%d", ok, model[k])
			}
			if ok {
				model[k]--
				occ--
			}
		case 2:
			ok = b.Contains(bucket, fp)
			if want := model[k] > 0; ok != want {
				t.Fatalf("contains=%v want %v", ok, want)
			}
		}
		results = append(results, ok)
	}
	if b.Occupancy() != uint(occ) {
		t.Fatalf("occupancy %d, model %d", b.Occupancy(), occ)
	}
	return blockWords(&b), results
}

// FuzzBlock16OpSequence is the 16-bit analog; fingerprints take two bytes.
func FuzzBlock16OpSequence(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 2, 5, 1, 2, 1, 5, 1, 2})
	f.Add([]byte{0, 35, 255, 255, 1, 35, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayBothKernels(t, func() ([]uint64, []bool) { return replay16(t, data) })
	})
}

// replay16 runs one FuzzBlock16OpSequence stream; see replay8.
func replay16(t *testing.T, data []byte) ([]uint64, []bool) {
	var b Block16
	b.Reset()
	model := map[modelKey]int{}
	occ := 0
	var results []bool
	for i := 0; i+3 < len(data); i += 4 {
		bucket := uint(data[i+1]) % B16Buckets
		fp := uint16(data[i+2]) | uint16(data[i+3])<<8
		k := modelKey{bucket, fp}
		var ok bool
		switch data[i] % 3 {
		case 0:
			ok = b.Insert(bucket, fp)
			if ok != (occ < B16Slots) {
				t.Fatalf("insert ok=%v at occ=%d", ok, occ)
			}
			if ok {
				model[k]++
				occ++
			}
		case 1:
			ok = b.Remove(bucket, fp)
			if ok != (model[k] > 0) {
				t.Fatalf("remove ok=%v model=%d", ok, model[k])
			}
			if ok {
				model[k]--
				occ--
			}
		case 2:
			ok = b.Contains(bucket, fp)
			if want := model[k] > 0; ok != want {
				t.Fatalf("contains=%v want %v", ok, want)
			}
		}
		results = append(results, ok)
	}
	return blockWords(&b), results
}

// replayBothKernels runs replay with the assembly kernels selected and then
// with the generic kernels, and fails unless both runs return the same op
// results and bit-identical block words. On builds or CPUs without the
// assembly both runs are generic. It leaves the assembly selected, the
// default.
func replayBothKernels(t *testing.T, replay func() (words []uint64, results []bool)) {
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
}

// blockWords returns a copy of a block's eight raw words, metadata first.
func blockWords[B Block8 | Block16](b *B) []uint64 {
	w := *(*[8]uint64)(unsafe.Pointer(b))
	return w[:]
}
