package minifilter

import (
	"testing"

	"vqf/internal/telemetry"
)

// TestSetAsmKernels verifies the dispatch switch: the reported state
// matches the build's and CPU's capability, each selection is recorded as
// an asm-dispatch event, and a remove through either kernel leaves the same
// block.
func TestSetAsmKernels(t *testing.T) {
	defer SetAsmKernels(true)
	if got := SetAsmKernels(true); got != AsmSupported() || AsmEnabled() != got {
		t.Fatalf("SetAsmKernels(true) = %v, AsmEnabled %v, want %v", got, AsmEnabled(), AsmSupported())
	}
	if SetAsmKernels(false) || AsmEnabled() {
		t.Fatal("SetAsmKernels(false) left the assembly enabled")
	}
	evs := telemetry.Global().Events()
	if last := evs[len(evs)-1]; last.Kind != telemetry.EvAsmDispatch.String() || last.A != 0 || last.B != b2u(AsmSupported()) {
		t.Fatalf("last event %+v, want asm-dispatch A=0 B=%d", last, b2u(AsmSupported()))
	}
	var blocks [2]Block8
	for i, asm := range []bool{false, true} {
		SetAsmKernels(asm)
		b := &blocks[i]
		b.Reset()
		for j := 0; j < B8Slots; j++ {
			b.Insert(uint(j*7)%B8Buckets, byte(j%5))
		}
		for j := 0; j < B8Slots; j += 3 {
			if !b.Remove(uint(j*7)%B8Buckets, byte(j%5)) {
				t.Fatalf("asm %v: remove %d missed", asm, j)
			}
		}
	}
	if blocks[0] != blocks[1] {
		t.Fatal("removes through the generic and assembly kernels left different blocks")
	}
}
