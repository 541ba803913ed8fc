//go:build linux && amd64 && !purego

package minifilter

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestBatchLookAheadBounds: every batch kernel prefetches the blocks of the
// key 8 ahead of the one it probes, and must clamp that key to the call's
// last, since the blocks' addresses come from loading the key's hash. Here
// the hashes end a page followed by an inaccessible one, so a kernel that
// loads a hash past hs faults. Lengths cover batches shorter than the
// look-ahead, up to twice it, and the 8-bit kernels' 256-key chunk edge.
// The validated kernels run over tables of 1, 2 and 4 arrays of different
// sizes, with keys staggered so that key i+8 is answered by another array
// than key i.
func TestBatchLookAheadBounds(t *testing.T) {
	if !AsmEnabled() {
		t.Skip("batch kernel not in use")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), page/8)

	r := rand.New(rand.NewSource(29))
	var cases [2][]batchCase // by width: arrays of 64, 2, 16 and 4 blocks
	for _, nblocks := range []int{64, 2, 16, 4} {
		b8, b16 := newBlocks8(nblocks), newBlocks16(nblocks)
		k8, k16 := fillTwoChoice8(r, b8, 0.85), fillTwoChoice16(r, b16, 0.85)
		name := fmt.Sprintf("blocks%d", nblocks)
		cases[0] = append(cases[0], batchCase{name: "bounds8/" + name, blocks8: b8,
			keys: mixKeys(r, k8, func(int) uint64 { return r.Uint64() }, 300)})
		cases[1] = append(cases[1], batchCase{name: "bounds16/" + name, blocks16: b16,
			keys: mixKeys(r, k16, func(int) uint64 { return r.Uint64() }, 300)})
	}
	var lengths []int
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257)
	for _, width := range cases {
		c := width[0]
		for _, n := range lengths {
			hs := words[len(words)-n:] // hs[n-1] ends the page
			copy(hs, c.keys)
			checkBatchParity(t, c, hs)
			for _, nshards := range []int{1, 2, 4} {
				copy(hs, staggered(c.keys[:n], nshards))
				checkLockedParity(t, fmt.Sprintf("%s/locked%d", c.name, nshards), width[:nshards], hs)
			}
		}
	}
}
