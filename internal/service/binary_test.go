package service

import (
	"bufio"
	"io"
	"runtime"
	"testing"

	"vqf/internal/workload"
)

// TestHandleFrameAllocs pins the steady-state binary data plane at zero
// allocations per frame: 512-key inserts, lookups and removes on every
// kind. GOMAXPROCS 1 keeps sharded batches on the calling goroutine.
func TestHandleFrameAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(17).Keys(512)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	var sc connScratch
	for _, kind := range Kinds() {
		if _, err := srv.Registry().Create(Spec{Name: string(kind), Kind: kind, Capacity: 1 << 16, Shards: 2}); err != nil {
			t.Fatal(err)
		}
		for _, op := range []byte{opInsert, opContains, opRemove} {
			frame, err := appendRequest(nil, op, 0, string(kind), keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := srv.handleFrame(frame[4:], bw, &sc); err != nil {
					t.Fatal(err)
				}
			})
			// The insert runs first on every kind so lookups hit.
			if allocs != 0 {
				t.Errorf("%s op %d: %v allocations per frame, want 0", kind, op, allocs)
			}
			if h, _ := srv.reg.get(string(kind)); op == opInsert && h.filter.Count() == 0 {
				t.Fatalf("%s: insert frames stored nothing", kind)
			}
		}
	}
}
